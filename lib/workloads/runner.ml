(** Workload orchestration: run any Table 2 workload on any backend and
    collect the measurements the figures need. *)

type result = {
  workload : string;
  backend : Backend.kind;
  ops : int;
  batch : int; (* group-commit size; 1 = one FASE / transaction per op *)
  ns_total : float;
  ns_flush : float;
  ns_log : float;
  ns_other : float;
  fences : int;
  flushes : int;
  commits : int;
  loads : int;
  stores : int;
  miss_ratio : float;
  live_words : int;
  high_water_words : int;
  telemetry : Telemetry.report option;
      (* per-(structure x op) histograms + fence-stall attribution, when
         the run was started with ?metrics *)
}

(* A Table 2 workload as the runner sees it.  [scale] sets the iteration
   count (the paper runs 1M of each), with per-workload adjustments for
   the heavier applications; [run] returns the ops it measured. *)
type workload = {
  name : string;
  stages : bool;  (* has a staged variant, so takes batch > 1 *)
  honors_policy : bool;  (* opens its structure under the context's policy *)
  run : batch:int -> Backend.t -> scale:int -> int;
}

let workloads =
  let app name ~stages ~honors_policy run =
    { name; stages; honors_policy; run }
  in
  let micro name ?(stages = true)
      (run : ?batch:int -> Backend.t -> ops:int -> size:int -> unit) =
    app name ~stages ~honors_policy:true (fun ~batch ctx ~scale ->
        run ~batch ctx ~ops:scale ~size:scale;
        scale)
  in
  [
    micro "map" Micro.map_run;
    micro "set" Micro.set_run;
    micro "queue" Micro.queue_run;
    micro "stack" Micro.stack_run;
    micro "vector" Micro.vector_run;
    micro "vec-swap" ~stages:false Micro.vec_swap_run;
    app "bfs" ~stages:false ~honors_policy:false (fun ~batch:_ ctx ~scale ->
        Graph.run ctx ~nodes:(max 64 (scale / 12)) ~edges:scale;
        scale);
    app "vacation" ~stages:false ~honors_policy:false
      (fun ~batch:_ ctx ~scale ->
        Vacation.run ctx ~ops:scale ~relations:(max 64 (scale / 10));
        scale);
    app "memcached" ~stages:true ~honors_policy:true (fun ~batch ctx ~scale ->
        let ops = max 1 (scale / 5) in
        Memcached.run ~batch ctx ~ops ~keyspace:(max 64 (scale / 5));
        ops);
  ]

let names = List.map (fun w -> w.name) workloads

let find name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Runner: unknown workload %S" name)

let takers p =
  String.concat ", "
    (List.filter_map (fun w -> if p w then Some w.name else None) workloads)

(* Whether a run of [name] would honor [batch] and [persist]; a setting
   the run would ignore is an error naming the workloads that take it. *)
let check ~batch ?persist backend name =
  let w = find name in
  if batch > 1 && not w.stages then
    Error
      (Printf.sprintf
         "%s has no staged variant, so --batch must be 1; --batch > 1 is \
          taken by: %s"
         name
         (takers (fun w -> w.stages)))
  else
    match persist with
    | Some Pmalloc.Heap.Backup when backend <> Backend.Mod ->
        Error
          (Printf.sprintf
             "--persist backup is a MOD commit policy; %s ignores it (use \
              --backend mod)"
             (Backend.kind_name backend))
    | Some Pmalloc.Heap.Backup when not w.honors_policy ->
        Error
          (Printf.sprintf
             "%s ignores the commit policy; --persist backup is taken by: %s"
             name
             (takers (fun w -> w.honors_policy)))
    | _ -> Ok ()

(* Build the run's heap and attach its collector now; the returned thunk
   runs the workload on them.  A host timer around the thunk then times
   the workload, not the allocation of the heap's arrays.  A setting the
   run would ignore ({!check}) raises [Invalid_argument]. *)
let prepare ?(batch = 1) ?metrics ?persist ?seed name backend ~scale =
  Result.iter_error invalid_arg (check ~batch ?persist backend name);
  let w = find name in
  let ctx = Backend.create ?seed ?persist backend in
  (* instance-scoped: the collector rides on this run's heap, so
     concurrent runs (shards) never fight over a process-wide slot *)
  let collector =
    Option.map
      (fun sink -> Pmalloc.Heap.attach_telemetry ~sink (Backend.heap ctx))
      metrics
  in
  fun () ->
    let ops = w.run ~batch ctx ~scale in
    let telemetry = Option.map Telemetry.report collector in
    let s = Backend.stats ctx in
    let allocator = Pmalloc.Heap.allocator (Backend.heap ctx) in
    {
      workload = name;
      backend;
      ops;
      batch;
      ns_total = s.Pmem.Stats.now_ns;
      ns_flush = s.Pmem.Stats.ns_flush;
      ns_log = Pmem.Stats.ns_log s;
      ns_other = Pmem.Stats.ns_other s;
      fences = s.Pmem.Stats.fences;
      flushes = s.Pmem.Stats.clwbs;
      commits = s.Pmem.Stats.commits;
      loads = s.Pmem.Stats.loads;
      stores = s.Pmem.Stats.stores;
      miss_ratio = Pmem.Stats.miss_ratio s;
      live_words = Pmalloc.Allocator.live_words allocator;
      high_water_words = Pmalloc.Allocator.high_water_words allocator;
      telemetry;
    }

let run_one ?batch ?metrics ?persist ?seed name backend ~scale =
  prepare ?batch ?metrics ?persist ?seed name backend ~scale ()

(* Same run, but also return the trace for consistency checking. *)
let run_traced name backend ~scale =
  let ctx = Backend.create ~trace:true backend in
  ignore ((find name).run ~batch:1 ctx ~scale : int);
  Pmalloc.Heap.trace (Backend.heap ctx)

let flush_fraction r = if r.ns_total = 0.0 then 0.0 else r.ns_flush /. r.ns_total
let log_fraction r = if r.ns_total = 0.0 then 0.0 else r.ns_log /. r.ns_total

let fences_per_op r = float_of_int r.fences /. float_of_int (max 1 r.ops)
let flushes_per_op r = float_of_int r.flushes /. float_of_int (max 1 r.ops)
let ns_per_op r = r.ns_total /. float_of_int (max 1 r.ops)
let fences_per_commit r = float_of_int r.fences /. float_of_int (max 1 r.commits)

(* The machine-readable form of a result, shared by bench's sweep and
   [modpm run --json]. *)
let to_json r =
  Report.Json.(
    Obj
      [
        ("workload", String r.workload);
        ("backend", String (Backend.kind_name r.backend));
        ("ops", Int r.ops);
        ("batch", Int r.batch);
        ("commits", Int r.commits);
        ("sim_ns_total", Float r.ns_total);
        ("sim_ns_flush", Float r.ns_flush);
        ("sim_ns_log", Float r.ns_log);
        ("sim_ns_other", Float r.ns_other);
        ("ns_per_op", Float (ns_per_op r));
        ("fences", Int r.fences);
        ("fences_per_op", Float (fences_per_op r));
        ("flushes", Int r.flushes);
        ("flushes_per_op", Float (flushes_per_op r));
        ("loads", Int r.loads);
        ("stores", Int r.stores);
        ("cache_miss_ratio", Float r.miss_ratio);
        ("live_words", Int r.live_words);
        ("high_water_words", Int r.high_water_words);
      ])
