(** Minimal-repro replay and shrinking.

    Every explorer failure is identified by a small tuple: (workload,
    ops, crash event index, mode, survival seed), plus the commit policy
    for sequential workloads and (writers, interleaving schedule) for
    concurrent ones.  [replay] re-runs
    exactly that crash deterministically, [command] prints the CLI
    incantation that does the same, and [minimize] shrinks the workload
    to the smallest operation count that still reproduces.  Replay
    always executes on a fresh heap and crashes the live image directly
    -- no snapshots, no workers -- so a repro command reproduces
    bit-for-bit regardless of the sweep settings that found it. *)

val replay :
  ?cfg:Explorer.config ->
  Explorer.subject ->
  crash_index:int ->
  mode:Pmem.Region.crash_mode ->
  ?seed:int ->
  ?fault:int ->
  unit ->
  Oracle.verdict option
(** Re-run one crash point, single sample.  [None] means the crash
    index lies beyond the run's last PM event.  [crash_index = -1]
    replays the uncrashed final-state check instead of a crash.  With
    [~fault:k] the sample is the sweep's kind-[k] fault sample at
    [seed] ({!Explorer.sample_fault}; [mode] is not used), and a typed
    error counts as consistent, as in the sweep.  Raises
    [Invalid_argument] for a fault without a seed. *)

val replay_fault :
  ?cfg:Explorer.config ->
  Explorer.subject ->
  crash_index:int ->
  k:int ->
  seed:int ->
  Explorer.fault_outcome option
(** The fault sample of {!replay}, with its outcome unjudged: whether
    recovery absorbed the fault or degraded with a typed error. *)

val command : Explorer.failure -> string
val reproduces : ?cfg:Explorer.config -> Explorer.failure -> bool

val minimize : ?cfg:Explorer.config -> Explorer.failure -> Explorer.failure
(** Shrink the operation count (1, 2, 4, ...) to the smallest workload
    that still reaches the crash index and still violates there. *)
