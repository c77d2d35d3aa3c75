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

let names =
  [ "map"; "set"; "queue"; "stack"; "vector"; "vec-swap"; "bfs"; "vacation";
    "memcached" ]

(* Scale knobs per workload: the paper runs 1M iterations of each; [scale]
   sets the iteration count here, with per-workload adjustments for the
   heavier applications. *)
let dispatch ?(batch = 1) name ~scale ctx =
  let ops = scale in
  match name with
  | "map" -> (Micro.map_run ~batch ctx ~ops ~size:scale, ops)
  | "set" -> (Micro.set_run ~batch ctx ~ops ~size:scale, ops)
  | "queue" -> (Micro.queue_run ~batch ctx ~ops ~size:scale, ops)
  | "stack" -> (Micro.stack_run ~batch ctx ~ops ~size:scale, ops)
  | "vector" -> (Micro.vector_run ~batch ctx ~ops ~size:scale, ops)
  | "vec-swap" -> (Micro.vec_swap_run ctx ~ops ~size:scale, ops)
  | "bfs" ->
      let nodes = max 64 (scale / 12) in
      (Graph.run ctx ~nodes ~edges:scale, scale)
  | "vacation" ->
      let relations = max 64 (scale / 10) in
      (Vacation.run ctx ~ops ~relations, ops)
  | "memcached" ->
      let ops = max 1 (scale / 5) in
      let keyspace = max 64 (scale / 5) in
      (Memcached.run ~batch ctx ~ops ~keyspace, ops)
  | other -> invalid_arg (Printf.sprintf "Runner: unknown workload %S" other)

(* Build the run's heap and attach its collector now; the returned thunk
   runs the workload on them.  A host timer around the thunk then times
   the workload, not the allocation of the heap's arrays. *)
let prepare ?(capacity_words = 1 lsl 21) ?(trace = false) ?(batch = 1)
    ?metrics ?persist ?seed name backend ~scale =
  let ctx = Backend.create ~capacity_words ~trace ?seed ?persist backend in
  (* instance-scoped: the collector rides on this run's heap, so
     concurrent runs (shards) never fight over a process-wide slot *)
  let collector =
    Option.map
      (fun sink -> Pmalloc.Heap.attach_telemetry ~sink (Backend.heap ctx))
      metrics
  in
  fun () ->
    let (), ops = dispatch ~batch name ~scale ctx in
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

let run_one ?capacity_words ?trace ?batch ?metrics ?persist ?seed name backend
    ~scale =
  prepare ?capacity_words ?trace ?batch ?metrics ?persist ?seed name backend
    ~scale ()

(* Same run, but also return the trace for consistency checking. *)
let run_traced name backend ~scale =
  let ctx = Backend.create ~capacity_words:(1 lsl 21) ~trace:true backend in
  let (), _ops = dispatch name ~scale ctx in
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
