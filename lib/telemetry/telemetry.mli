(** Per-FASE telemetry: spans, per-(structure x op) latency histograms,
    and fence-stall attribution over the simulated-PM clock.

    A {e collector} watches exactly one heap's {!Pmem.Stats} block and
    is {e instance-scoped}: it is carried by the heap it watches
    ([Pmalloc.Heap.attach_telemetry] / [Pmalloc.Heap.telemetry]), so any
    number of heaps — e.g. the per-domain shards of the serving layer —
    can be metered independently in one process.  The durable-structure
    entry points, [Batch.commit] and the outermost [Tx.run] wrap
    themselves in {!span_on} with their heap's collector; the outermost
    span snapshots the stats around the operation and aggregates the
    delta under its (structure, op) key.  Nested spans (an [insert_many]
    driving a [Batch.commit] driving a [Tx.run]) are suppressed by a
    depth guard, so every simulated nanosecond is attributed at most
    once and the per-op fence-stall sum plus the unattributed remainder
    provably equals that heap's [Pmem.Stats] flush-stall counter.

    With no collector attached a span is one match on the fast path.
    There is no process-wide collector: work on a heap that carries none
    is not recorded anywhere. *)

(** Log-bucketed latency histograms (re-exported; the library's root
    module is the only one visible to dependents). *)
module Histogram : module type of Histogram

module Sink : sig
  type t =
    | Null  (** track nesting only; record nothing *)
    | Memory  (** aggregate per-(structure, op) in the collector *)
end

(** Allocator occupancy sampled at span boundaries.  [alloc_words_total]
    is monotone (total words ever handed out), so deltas across a span
    measure its shadow allocations. *)
type gauges = {
  g_live_words : int;
  g_free_words : int;
  g_deferred_words : int;
  g_high_water_words : int;
  g_alloc_words_total : int;
}

type t

(** [create ?sink ?gauges stats] makes a fresh collector watching
    [stats].  Nothing is registered anywhere: the caller owns the
    collector and threads it (normally by attaching it to the heap with
    [Pmalloc.Heap.set_telemetry]).  [gauges] samples allocator occupancy
    at span boundaries; omit it and shadow-alloc attribution reads as
    zero.  Default sink: [Memory]. *)
val create : ?sink:Sink.t -> ?gauges:(unit -> gauges) -> Pmem.Stats.t -> t

(** Drop all aggregates and re-base totals on the stats block's current
    contents. *)
val reset : t -> unit

(** [span_on collector ~structure ~op ?ops f] runs [f], attributing
    its stats delta to [(structure, op)] on [collector] if this is the
    outermost span.  [collector] is the one the heap carries
    ([Pmalloc.Heap.telemetry]); with [None], [f] just runs.  [ops] is
    the number of logical operations the span retires (batch size;
    default 1). *)
val span_on :
  t option -> structure:string -> op:string -> ?ops:int -> (unit -> 'a) -> 'a

(** {1 Extraction} *)

type row = {
  r_structure : string;
  r_op : string;
  r_spans : int;  (** outermost spans recorded *)
  r_ops : int;  (** logical ops retired (>= r_spans for batched entry points) *)
  r_lat : Histogram.t;  (** span latency, sim-ns *)
  r_span_ns : float;
  r_fence_stall_ns : float;
  r_fences : int;
  r_flushed_lines : int;
  r_shadow_alloc_words : int;
  r_l1_hits : int;
  r_l1_misses : int;
}

type report = {
  rows : row list;  (** sorted by (structure, op) *)
  total_ns : float;
  total_fence_stall_ns : float;
      (** global [Pmem.Stats] flush-stall delta since create/reset *)
  attributed_fence_stall_ns : float;  (** sum over [rows] *)
  unattributed_fence_stall_ns : float;
      (** [total - attributed]: stalls outside any span *)
  total_fences : int;
  cache_hits : int;
  cache_misses : int;
  cache_hit_rate : float;
  last_gauges : gauges option;  (** sampled at the last span boundary *)
}

val report : t -> report

val pp_report : Format.formatter -> report -> unit

module Export : sig
  (** Self-describing JSON document ([modpm-telemetry-v1]); parses with
      [Workloads.Report.Json]. *)
  val to_json : report -> string

  (** Prometheus text exposition format (cumulative histogram buckets,
      counters, gauges). *)
  val to_prometheus : report -> string
end
