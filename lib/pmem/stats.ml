(** Simulated-time and event accounting.

    Execution time is split into the three phases of Figures 2 and 9:
    - [Flush]: CPU stalls at ordering points waiting for in-flight
      cacheline writebacks (including flushes of log entries);
    - [Log]: time spent constructing and copying write-ahead-log entries;
    - [Other]: everything else (computation, loads, stores).

    The counters also feed Figure 10 (flushes and fences per operation),
    Figure 11 (L1D miss ratios) and the Section 3 fence analysis. *)

type phase = Flush | Log | Other

(* A mutable float field of a record that also holds ints is a boxed
   float: every update allocates a box and runs the write barrier.
   [now_ns] and [ns_flush] stay fields because outside readers use them
   as fields; the Log and Other accumulators, which every load and store
   outside a fence bumps, live unboxed in [phase_ns] (read them through
   [ns_log] and [ns_other]).  Every copy of a [t] must copy [phase_ns]
   too, or two copies would share one accumulator. *)
type t = {
  mutable now_ns : float;
  mutable ns_flush : float;
  phase_ns : Float.Array.t; (* [log_ix]: Log, [other_ix]: Other *)
  mutable loads : int;
  mutable stores : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable clwbs : int;
  mutable fences : int;
  mutable lines_drained : int;
  mutable log_writes : int;
  mutable commits : int;
      (* commit points retired: MOD root swings and PM-STM transaction
         commits both count one, so fences/commit compares the backends'
         ordering cost per retired atomic update group *)
  mutable cur_phase : phase;
  (* file-backed persistence (Backing): atomic writeback batches committed,
     cachelines written through them, and fsyncs issued on their behalf *)
  mutable file_commits : int;
  mutable file_lines : int;
  mutable file_fsyncs : int;
}

let log_ix = 0
let other_ix = 1

let create () =
  {
    now_ns = 0.0;
    ns_flush = 0.0;
    phase_ns = Float.Array.make 2 0.0;
    loads = 0;
    stores = 0;
    l1_hits = 0;
    l1_misses = 0;
    clwbs = 0;
    fences = 0;
    lines_drained = 0;
    log_writes = 0;
    commits = 0;
    cur_phase = Other;
    file_commits = 0;
    file_lines = 0;
    file_fsyncs = 0;
  }

let reset t =
  t.now_ns <- 0.0;
  t.ns_flush <- 0.0;
  Float.Array.fill t.phase_ns 0 2 0.0;
  t.loads <- 0;
  t.stores <- 0;
  t.l1_hits <- 0;
  t.l1_misses <- 0;
  t.clwbs <- 0;
  t.fences <- 0;
  t.lines_drained <- 0;
  t.log_writes <- 0;
  t.commits <- 0;
  t.cur_phase <- Other;
  t.file_commits <- 0;
  t.file_lines <- 0;
  t.file_fsyncs <- 0

(* Deep copy, for region snapshots: a crash-point sample must not leak
   its simulated time or event counts into the next sample. *)
let copy t = { t with phase_ns = Float.Array.copy t.phase_ns }

(* Overwrite [into] with the contents of [src] (the restore half). *)
let assign ~into src =
  into.now_ns <- src.now_ns;
  into.ns_flush <- src.ns_flush;
  Float.Array.blit src.phase_ns 0 into.phase_ns 0 2;
  into.loads <- src.loads;
  into.stores <- src.stores;
  into.l1_hits <- src.l1_hits;
  into.l1_misses <- src.l1_misses;
  into.clwbs <- src.clwbs;
  into.fences <- src.fences;
  into.lines_drained <- src.lines_drained;
  into.log_writes <- src.log_writes;
  into.commits <- src.commits;
  into.cur_phase <- src.cur_phase;
  into.file_commits <- src.file_commits;
  into.file_lines <- src.file_lines;
  into.file_fsyncs <- src.file_fsyncs

let ns_log t = Float.Array.get t.phase_ns log_ix
let ns_other t = Float.Array.get t.phase_ns other_ix

let[@inline] add_phase t ix ns =
  Float.Array.set t.phase_ns ix (Float.Array.get t.phase_ns ix +. ns)

(* Advance simulated time, attributing it to a specific phase regardless of
   the current one.  Fence stalls always count as Flush time. *)
let[@inline] advance_in t phase ns =
  t.now_ns <- t.now_ns +. ns;
  match phase with
  | Flush -> t.ns_flush <- t.ns_flush +. ns
  | Log -> add_phase t log_ix ns
  | Other -> add_phase t other_ix ns

(* Advance simulated time, attributing it to the current phase. *)
let[@inline] advance t ns = advance_in t t.cur_phase ns

(* The accumulator [advance_in] adds [phase]'s time to, and its
   write-back: a line run (Region) sums its accesses' ns into two locals
   one access at a time, as [advance] would, and stores them once. *)
let[@inline] phase_total t phase =
  match phase with
  | Flush -> t.ns_flush
  | Log -> Float.Array.get t.phase_ns log_ix
  | Other -> Float.Array.get t.phase_ns other_ix

let[@inline] set_phase_total t phase ns =
  match phase with
  | Flush -> t.ns_flush <- ns
  | Log -> Float.Array.set t.phase_ns log_ix ns
  | Other -> Float.Array.set t.phase_ns other_ix ns

let in_phase t phase f =
  let saved = t.cur_phase in
  t.cur_phase <- phase;
  Fun.protect ~finally:(fun () -> t.cur_phase <- saved) f

let record_fence t ~drained =
  t.fences <- t.fences + 1;
  t.lines_drained <- t.lines_drained + drained

let miss_ratio t =
  let total = t.l1_hits + t.l1_misses in
  if total = 0 then 0.0 else float_of_int t.l1_misses /. float_of_int total

(** Immutable snapshot, used to compute per-operation deltas (Figure 10). *)
type snapshot = {
  s_now_ns : float;
  s_ns_flush : float;
  s_ns_log : float;
  s_ns_other : float;
  s_loads : int;
  s_stores : int;
  s_l1_hits : int;
  s_l1_misses : int;
  s_clwbs : int;
  s_fences : int;
  s_lines_drained : int;
  s_commits : int;
}

let snapshot t =
  {
    s_now_ns = t.now_ns;
    s_ns_flush = t.ns_flush;
    s_ns_log = ns_log t;
    s_ns_other = ns_other t;
    s_loads = t.loads;
    s_stores = t.stores;
    s_l1_hits = t.l1_hits;
    s_l1_misses = t.l1_misses;
    s_clwbs = t.clwbs;
    s_fences = t.fences;
    s_lines_drained = t.lines_drained;
    s_commits = t.commits;
  }

let diff ~before ~after =
  {
    s_now_ns = after.s_now_ns -. before.s_now_ns;
    s_ns_flush = after.s_ns_flush -. before.s_ns_flush;
    s_ns_log = after.s_ns_log -. before.s_ns_log;
    s_ns_other = after.s_ns_other -. before.s_ns_other;
    s_loads = after.s_loads - before.s_loads;
    s_stores = after.s_stores - before.s_stores;
    s_l1_hits = after.s_l1_hits - before.s_l1_hits;
    s_l1_misses = after.s_l1_misses - before.s_l1_misses;
    s_clwbs = after.s_clwbs - before.s_clwbs;
    s_fences = after.s_fences - before.s_fences;
    s_lines_drained = after.s_lines_drained - before.s_lines_drained;
    s_commits = after.s_commits - before.s_commits;
  }

let snapshot_miss_ratio s =
  let total = s.s_l1_hits + s.s_l1_misses in
  if total = 0 then 0.0 else float_of_int s.s_l1_misses /. float_of_int total

let pp ppf t =
  Format.fprintf ppf
    "@[<v>time %.0f ns (flush %.0f, log %.0f, other %.0f)@ loads %d stores %d@ \
     clwb %d sfence %d drained %d@ L1D hits %d misses %d (%.2f%%)@]"
    t.now_ns t.ns_flush (ns_log t) (ns_other t) t.loads t.stores t.clwbs t.fences
    t.lines_drained t.l1_hits t.l1_misses
    (100.0 *. miss_ratio t)
