(* Sharded multi-domain serving layer.

   N shards, each owning its own [Pmalloc.Heap] (optionally file-backed
   at [<image>.N]), its own instance-scoped telemetry collector, and --
   in [Domains] mode -- its own OCaml 5 domain.  Keys are
   hash-partitioned by [Router.shard_of_key]; requests flow through
   per-shard bounded FIFO queues; idle workers steal from loaded
   siblings to absorb zipfian skew.

   Two invariants the whole layer is built on:

   - {e Shard independence.}  No state is shared between shards: heap,
     allocator, collector, queue and lock are all per-shard, so a crash
     of one shard cannot perturb another, and each recovers alone from
     its own image.  The crash workloads [shard<i>of<n>]
     ([Crashtest.Workload]) sweep one shard's heap and check both.

   - {e Per-shard FIFO.}  A request is popped {e under the executing
     shard's heap lock} and completed before the lock is released, so
     two sets to one key apply in arrival order no matter which domain
     (owner or thief) executes them.  That is what makes the sharded
     map's final state equal the single-heap map's for any request
     sequence (the differential test in test_shard.ml).

   Work stealing and the clocks: a stolen request still executes on the
   {e victim's} heap, and simulated PM time is charged to the heap that
   does the work, so stealing improves wall-clock utilisation (domains
   never idle beside a hot sibling) but not the simulated makespan --
   the per-shard sim clock is the serialization point the data lives
   behind.  Throughput gates therefore compare simulated makespans
   (max over shards), which are deterministic and machine-independent;
   wall-clock req/s is reported for color only. *)

module Router = Router
module Queue = Queue

module Kv = Mod_core.Dmap.Make (Pfds.Kv.String_blob) (Pfds.Kv.String_blob)

let kv_slot = 0

type request = Set of string * string | Get of string

let key_of = function Set (k, _) | Get k -> k

type mode = Inline | Domains

let mode_name = function Inline -> "inline" | Domains -> "domains"

type shard = {
  id : int;
  heap : Pmalloc.Heap.t;
  collector : Telemetry.t;
  mutable kv : Kv.t;
  queue : request Queue.t;
  hlock : Mutex.t;
      (* serializes all access to this shard's heap: taken by the owner
         and by thieves for the whole pop+execute of each request *)
  mutable routed : int;  (* requests the router sent here *)
  mutable executed : int;  (* requests retired on this heap (any domain) *)
  mutable stolen : int;  (* subset of [executed] retired by a thief *)
}

type t = {
  mode : mode;
  nshards : int;
  shards : shard array;
  persist : Pmalloc.Heap.policy;
}

let shard_path base i = Printf.sprintf "%s.%d" base i

let make_shard ~capacity_words ~queue_capacity ~seed ~persist ?file i =
  let file = Option.map (fun b -> shard_path b i) file in
  let heap = Pmalloc.Heap.create ~capacity_words ~seed:(seed + i) ?file () in
  let collector = Pmalloc.Heap.attach_telemetry heap in
  let kv = Kv.open_or_create ~persist heap ~slot:kv_slot in
  {
    id = i;
    heap;
    collector;
    kv;
    queue = Queue.create ~capacity:queue_capacity ();
    hlock = Mutex.create ();
    routed = 0;
    executed = 0;
    stolen = 0;
  }

let create ?(mode = Inline) ?(capacity_words = 1 lsl 21)
    ?(queue_capacity = 1024) ?(seed = 42) ?(persist = Pmalloc.Heap.Full) ?file
    ~nshards () =
  if nshards < 1 then invalid_arg "Shard.create: nshards must be >= 1";
  {
    mode;
    nshards;
    shards =
      Array.init nshards
        (make_shard ~capacity_words ~queue_capacity ~seed ~persist ?file);
    persist;
  }

let nshards t = t.nshards
let mode t = t.mode
let heap t i = t.shards.(i).heap
let collector t i = t.shards.(i).collector
let close t = Array.iter (fun sh -> Pmalloc.Heap.close sh.heap) t.shards

(* Charge the per-request application logic around the datastructure op,
   as the figure-9 backends do (Backend.op_pause): the sim clock should
   reflect whole requests, not just PM work. *)
let app_accesses_per_request = 50

let request_pause sh =
  let s = Pmalloc.Heap.stats sh.heap in
  Pmem.Stats.advance s Pmem.Config.op_overhead_ns;
  s.Pmem.Stats.l1_hits <- s.Pmem.Stats.l1_hits + app_accesses_per_request

let execute kv = function
  | Set (k, v) -> Kv.insert kv k v
  | Get k -> ignore (Kv.find kv k : string option)

let exec sh req =
  request_pause sh;
  execute sh.kv req;
  sh.executed <- sh.executed + 1

let route t key = t.shards.(Router.shard_of_key ~nshards:t.nshards key)

(* Inline-mode entry point (and the warmup and crash-workload path): execute on
   the owning shard right here.  No locking -- Inline mode is
   single-domain by definition, and a [Crash_point] escaping mid-request
   must not leave a mutex held. *)
let apply t req =
  let sh = route t (key_of req) in
  sh.routed <- sh.routed + 1;
  exec sh req

let submit t req =
  match t.mode with
  | Inline -> apply t req
  | Domains ->
      let sh = route t (key_of req) in
      sh.routed <- sh.routed + 1;
      Queue.push sh.queue req

let close_queues t = Array.iter (fun sh -> Queue.close sh.queue) t.shards

(* -- workers (Domains mode) --------------------------------------------- *)

let with_hlock sh f =
  Mutex.lock sh.hlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.hlock) f

(* Serve one request of [sh]'s queue, popping under the heap lock so
   per-shard execution is strictly FIFO (see the header comment). *)
let serve_one ~thief sh =
  with_hlock sh (fun () ->
      match Queue.try_pop sh.queue with
      | None -> false
      | Some req ->
          if thief then sh.stolen <- sh.stolen + 1;
          exec sh req;
          true)

let try_steal_one sh =
  if Mutex.try_lock sh.hlock then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock sh.hlock)
      (fun () ->
        match Queue.try_pop sh.queue with
        | None -> false
        | Some req ->
            sh.stolen <- sh.stolen + 1;
            exec sh req;
            true)
  else false

let worker t i () =
  let me = t.shards.(i) in
  let n = t.nshards in
  (* steal from the most loaded sibling first: under zipfian skew the
     hot shard's queue is where idle cycles are worth spending *)
  let steal_round () =
    let best = ref (-1) and best_len = ref 0 in
    for d = 1 to n - 1 do
      let j = (i + d) mod n in
      let len = Queue.length t.shards.(j).queue in
      if len > !best_len then begin
        best := j;
        best_len := len
      end
    done;
    !best >= 0 && try_steal_one t.shards.(!best)
  in
  let all_drained () =
    let ok = ref true in
    for j = 0 to n - 1 do
      ok := !ok && Queue.drained t.shards.(j).queue
    done;
    !ok
  in
  let rec loop idle =
    if serve_one ~thief:false me then loop 0
    else if n > 1 && steal_round () then loop 0
    else if all_drained () then ()
    else begin
      (* no timed condition wait in OCaml's Mutex/Condition: poll with
         escalating backoff (relax spins, then a short sleep) *)
      if idle < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002;
      loop (idle + 1)
    end
  in
  loop 0

(* -- measured load ------------------------------------------------------- *)

type shard_metrics = {
  m_id : int;
  m_routed : int;
  m_executed : int;
  m_stolen : int;
  m_sim_ns : float;
  m_fences : int;
  m_p50_ns : float;
  m_p99_ns : float;
  m_report : Telemetry.report;
}

type load_result = {
  lr_requests : int;
  lr_nshards : int;
  lr_mode : mode;
  lr_theta : float;
  lr_wall_s : float;
  lr_wall_req_s : float;
  lr_sim_makespan_ns : float;  (* max over shards: the parallel sim time *)
  lr_sim_total_ns : float;  (* sum over shards: the serial-equivalent *)
  lr_sim_req_s : float;  (* requests / makespan, in simulated seconds *)
  lr_shards : shard_metrics list;
}

let reset_measurement t =
  Array.iter
    (fun sh ->
      Pmem.Stats.reset (Pmalloc.Heap.stats sh.heap);
      Telemetry.reset sh.collector;
      sh.routed <- 0;
      sh.executed <- 0;
      sh.stolen <- 0)
    t.shards

(* Overall span-latency percentiles for one shard: merge the
   per-(structure x op) histograms the collector kept. *)
let latency_histogram report =
  let acc = Telemetry.Histogram.create () in
  List.iter
    (fun r -> Telemetry.Histogram.merge ~into:acc r.Telemetry.r_lat)
    report.Telemetry.rows;
  acc

let shard_metrics sh =
  let report = Telemetry.report sh.collector in
  let lat = latency_histogram report in
  let s = Pmalloc.Heap.stats sh.heap in
  {
    m_id = sh.id;
    m_routed = sh.routed;
    m_executed = sh.executed;
    m_stolen = sh.stolen;
    m_sim_ns = s.Pmem.Stats.now_ns;
    m_fences = s.Pmem.Stats.fences;
    m_p50_ns = Telemetry.Histogram.percentile lat 0.5;
    m_p99_ns = Telemetry.Histogram.percentile lat 0.99;
    m_report = report;
  }

(* Deterministic request stream: zipfian key popularity over a fixed
   keyspace, [get_pct]% reads, values drawn from a small precomputed
   pool (the memcached shape: 16-byte keys, 512-byte values). *)
let value_pool ~seed n =
  let rng = Random.State.make [| seed; 0xbeef |] in
  Array.init n (fun _ ->
      String.init 512 (fun _ -> Char.chr (33 + Random.State.int rng 94)))

type stream = { keys : string array; z : Router.zipf; mix : Random.State.t;
                pool : string array; get_pct : int }

let stream ?(theta = 0.99) ?(get_pct = 5) ~seed ~keyspace () =
  {
    keys = Array.init keyspace Router.key_of_index;
    z = Router.zipf ~theta ~seed ~n:keyspace ();
    mix = Random.State.make [| seed; 0xfeed |];
    pool = value_pool ~seed 64;
    get_pct;
  }

let next_request st =
  let k = st.keys.(Router.next st.z) in
  if Random.State.int st.mix 100 < st.get_pct then Get k
  else Set (k, st.pool.(Random.State.int st.mix (Array.length st.pool)))

(* The crash workloads' script: the same stream over a 256-key keyspace,
   small enough that keys repeat, so sets overwrite and GETs land
   between writes. *)
let script ~seed n =
  let st = stream ~seed ~keyspace:256 () in
  Array.init n (fun _ -> next_request st)

let run_load ?(theta = 0.99) ?(get_pct = 5) ?(seed = 1) ?(warmup = 0)
    ?(keyspace = 10_000) t ~requests () =
  let st = stream ~theta ~get_pct ~seed ~keyspace () in
  for _ = 1 to warmup do
    apply t (next_request st)
  done;
  reset_measurement t;
  let t0 = Unix.gettimeofday () in
  (match t.mode with
  | Inline ->
      for _ = 1 to requests do
        submit t (next_request st)
      done
  | Domains ->
      let domains =
        Array.init t.nshards (fun i -> Domain.spawn (worker t i))
      in
      for _ = 1 to requests do
        submit t (next_request st)
      done;
      close_queues t;
      Array.iter Domain.join domains);
  let wall = Unix.gettimeofday () -. t0 in
  let per_shard = Array.to_list (Array.map shard_metrics t.shards) in
  let makespan =
    List.fold_left (fun acc m -> Float.max acc m.m_sim_ns) 0.0 per_shard
  in
  let total = List.fold_left (fun acc m -> acc +. m.m_sim_ns) 0.0 per_shard in
  {
    lr_requests = requests;
    lr_nshards = t.nshards;
    lr_mode = t.mode;
    lr_theta = theta;
    lr_wall_s = wall;
    lr_wall_req_s = (if wall > 0.0 then float_of_int requests /. wall else 0.0);
    lr_sim_makespan_ns = makespan;
    lr_sim_total_ns = total;
    lr_sim_req_s =
      (if makespan > 0.0 then float_of_int requests /. (makespan *. 1e-9)
       else 0.0);
    lr_shards = per_shard;
  }

(* -- canonical dumps ----------------------------------------------------- *)

(* The one rendering of a map's pairs: sorted by key, [k=v;...].  It
   serves the live shards, the crash workloads' models and their
   recovered targets alike. *)
let render pairs =
  List.sort (fun (a, _) (b, _) -> String.compare a b) pairs
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat ";"

let pairs kv = Kv.fold kv (fun k v acc -> (k, v) :: acc) []
let dump_kv kv = render (pairs kv)
let dump t i = dump_kv t.shards.(i).kv

let dump_all t =
  render (List.concat_map (fun sh -> pairs sh.kv) (Array.to_list t.shards))
