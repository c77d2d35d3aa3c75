(** Sharded multi-domain serving layer.

    N shards, each owning its own {!Pmalloc.Heap} (optionally
    file-backed at [<image>.N]), its own instance-scoped telemetry
    collector, and -- in {!Domains} mode -- its own OCaml 5 domain.
    Keys are hash-partitioned ({!Router.shard_of_key}); requests flow
    through per-shard bounded FIFO queues ({!Queue}); idle workers
    steal from loaded siblings to absorb zipfian skew.

    Invariants: {e shard independence} (no shared state between shards,
    so one shard's crash cannot perturb another; the crash workloads
    [shard<i>of<n>] of [Crashtest.Workload] sweep one shard's heap and
    check every sibling against its model) and {e per-shard FIFO} (a
    request is popped and executed under the owning shard's heap lock,
    so sets to one key apply in arrival order no matter which domain
    runs them).

    Clocks: a stolen request executes on the victim's heap and its
    simulated PM time is charged there, so stealing improves wall-clock
    utilisation but not the simulated makespan.  Throughput gates
    compare simulated makespans (deterministic, machine-independent);
    wall req/s is reported for color. *)

module Router : module type of Router
module Queue : module type of Queue

(** The served structure: one durable string->string map per shard
    (memcached shape: 16-byte keys, 512-byte values). *)
module Kv :
    module type of Mod_core.Dmap.Make (Pfds.Kv.String_blob) (Pfds.Kv.String_blob)

val kv_slot : int
(** Root slot each shard's map lives in (0). *)

type request = Set of string * string | Get of string

val key_of : request -> string

type mode =
  | Inline  (** one domain, requests execute at {!submit} -- the
                deterministic mode crash sweeps and tests run in *)
  | Domains  (** one worker domain per shard, with work stealing *)

val mode_name : mode -> string

type t

val create :
  ?mode:mode ->
  ?capacity_words:int ->
  ?queue_capacity:int ->
  ?seed:int ->
  ?persist:Pmalloc.Heap.policy ->
  ?file:string ->
  nshards:int ->
  unit ->
  t
(** [create ~nshards ()] builds the shard set.  [~file:base] file-backs
    shard [i] at [base.i].  [persist] is the commit policy every
    shard's map is promoted to (default [Full]). *)

val nshards : t -> int
val mode : t -> mode
val heap : t -> int -> Pmalloc.Heap.t
val collector : t -> int -> Telemetry.t

val close : t -> unit
(** Commit and release every shard's backing file (no-op in memory). *)

val submit : t -> request -> unit
(** Route by key and execute (Inline) or enqueue (Domains). *)

val apply : t -> request -> unit
(** Route and execute inline on the owning shard, regardless of mode
    (the warmup and crash-workload path). *)

val execute : Kv.t -> request -> unit
(** The request's map operation alone, on any map: what {!apply} runs
    on the owning shard, without the routing and accounting. *)

val render : (string * string) list -> string
(** Canonical sorted [k=v;...] rendering of a map's pairs. *)

val dump_kv : Kv.t -> string
(** {!render} of a map's pairs. *)

val dump : t -> int -> string
(** {!dump_kv} of shard [i]'s map. *)

val dump_all : t -> string
(** All shards' pairs merged into one canonical rendering -- equals a
    single-heap map's dump for the same request sequence. *)

(** {1 Measured load} *)

type shard_metrics = {
  m_id : int;
  m_routed : int;  (** requests the router sent here *)
  m_executed : int;  (** requests retired on this heap (any domain) *)
  m_stolen : int;  (** subset of [m_executed] retired by a thief *)
  m_sim_ns : float;  (** this heap's simulated clock *)
  m_fences : int;
  m_p50_ns : float;  (** span latency percentiles, merged over all ops *)
  m_p99_ns : float;
  m_report : Telemetry.report;  (** feed to the existing exporters *)
}

type load_result = {
  lr_requests : int;
  lr_nshards : int;
  lr_mode : mode;
  lr_theta : float;
  lr_wall_s : float;
  lr_wall_req_s : float;
  lr_sim_makespan_ns : float;  (** max over shards: parallel sim time *)
  lr_sim_total_ns : float;  (** sum over shards: serial-equivalent *)
  lr_sim_req_s : float;  (** requests per simulated makespan-second *)
  lr_shards : shard_metrics list;
}

val run_load :
  ?theta:float ->
  ?get_pct:int ->
  ?seed:int ->
  ?warmup:int ->
  ?keyspace:int ->
  t ->
  requests:int ->
  unit ->
  load_result
(** Drive a deterministic zipfian ([theta], default 0.99) memcached-style
    loop of [requests] requests ([get_pct]% gets, default 5).  Resets
    each shard's stats and collector after [warmup] inline requests, so
    the result covers exactly the measured loop. *)

val script : seed:int -> int -> request array
(** [script ~seed n]: the first [n] requests of the same stream over a
    256-key keyspace (zipf 0.99, 5% gets, 512-byte values), the script
    of the crash workloads. *)
