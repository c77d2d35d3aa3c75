(** Exhaustive crash-point exploration.

    A simulated power failure is injected after every single PM event of
    a deterministic workload; each crash point is sampled under the
    crash modes (and survival seeds, under [Randomize]), recovered, and
    checked against the durable-linearizability oracle.  Sequential and
    concurrent sweeps share one driver over (schedule, crash point) work
    items and one judge ({!Oracle.judge}): a sequential workload is the
    one-schedule, one-writer case, concurrent writers add an
    interleaving-schedule axis.  Each schedule runs once, uncrashed, with a
    {!Pmem.Region.capture} recording the image and fixing the oracle at
    every tested point; after the run the points are rebuilt in order
    on the rewound scratch heap and sampled through the region's
    snapshot journal, and [jobs > 1] spreads the work items over forked
    workers that inherit the captures.  Every run is also checked
    uncrashed: its final state must equal the newest committed model
    state (reported at crash index -1).  {!run} keeps the run-to-budget
    path for a single point (replay, and the tests' reference). *)

type config = {
  stride : int;  (** test every [stride]-th crash point *)
  randomize_samples : int;  (** survival samples per point in Randomize *)
  seed : int;  (** master seed survival seeds are derived from *)
  max_points : int option;
      (** cap on tested points (strided sweeps), per schedule *)
  jobs : int;  (** worker processes; 1 = sequential, 0 = one per core *)
  faults : bool;
      (** also sample each crash point under the fault schedule (torn
          lines + armed media faults, or a corrupted root summary)
          against the degradation contract; a corrupted summary alone
          must still recover fully *)
  worker_kill : int option;
      (** test hook: the given parallel worker index dies before doing
          any work, exercising the shard-resweep path *)
  log : string -> unit;
}

val default : config

val modes : Pmem.Region.crash_mode list
(** Every point is sampled under all three crash modes. *)

val capacity_words : int
val heap_seed : int

val fresh_heap : unit -> Pmalloc.Heap.t
(** The traced heap every run starts on: {!capacity_words} (it grows on
    demand) at {!heap_seed}. *)

type failure = {
  workload : string;
  writers : int;  (** concurrent writers; 0 = a sequential workload *)
  ops : int;  (** per writer *)
  schedule : Interleave.schedule option;  (** [None] = sequential *)
  persist : Pmalloc.Heap.policy option;
      (** the sequential workload's commit policy; [None] = Full *)
  crash_index : int;
      (** PM event the power failed after; -1 = the uncrashed run's
          final-state check *)
  mode : Pmem.Region.crash_mode;
  survival_seed : int option;  (** Randomize line-survival seed *)
  fault : int option;
      (** the fault-schedule kind of a [faults] sample, a torn crash at
          [survival_seed] with that fault injected (see {!sample_fault});
          [None] = a plain crash *)
  detail : string;
}

type result = {
  workload : string;
  ops : int;
  total_events : int;
  points_tested : int;
  points_skipped : int;
  crashes_sampled : int;
  fault_samples : int;
  fault_recovered : int;
  fault_degraded : int;
  fault_fallbacks : int;
  fault_scans : int;
      (** fault-sample recoveries that found no valid root summary (its
          line faulted or, in kind 4, its word was corrupted) and
          scanned every root slot *)
  shards_resequenced : int;
  wall_seconds : float;
  trace_report : Mod_core.Consistency.report option;
  failures : failure list;
}

val ok : result -> bool
val points_per_sec : result -> float

type cresult = {
  cr_workload : string;
  cr_writers : int;
  cr_ops : int;
  cr_schedules : int;
  cr_total_events : int;  (** summed over schedules *)
  cr_points_tested : int;
  cr_points_skipped : int;
  cr_crashes_sampled : int;
  cr_wall_seconds : float;
  cr_failures : failure list;
}

val cok : cresult -> bool
val cpoints_per_sec : cresult -> float
val mode_name : Pmem.Region.crash_mode -> string
val mode_of_name : string -> (Pmem.Region.crash_mode, string) Stdlib.result

val survival_seed : config -> crash_index:int -> k:int -> int
(** The survival seed of sample [k] at a crash point: a pure function
    of the master seed, so failures replay from their triple. *)

val fault_kinds : int
(** Fault samples per crash point under [faults], one per kind. *)

val fault_seed : config -> crash_index:int -> k:int -> int
(** The torn-crash seed of the kind-[k] fault sample at a crash point,
    from a stream distinct from {!survival_seed}'s. *)

val fault_kind : config -> crash_index:int -> int -> int option
(** [fault_kind cfg ~crash_index seed] is the kind [k] in
    [\[0, fault_kinds)] with [fault_seed cfg ~crash_index ~k = seed], if
    any. *)

val fault_sweep_seed : crash_index:int -> k:int -> int -> int
(** The master seed whose kind-[k] fault seed at [crash_index] is the
    given seed: the inverse of {!fault_seed}. *)

(** {1 One run} *)

type subject =
  | Seq of Workload.t
  | Conc of Workload.ct * Interleave.schedule
      (** concurrent writers under one interleaving schedule: a pure
          function of the schedule, so (subject, budget) reproduces the
          same interrupted image bit-for-bit *)

type crashed = {
  c_heap : Pmalloc.Heap.t;
  c_recover : unit -> unit;  (** the workload's post-crash recovery *)
  c_dump : unit -> Workload.state;
  c_judge : (Workload.state, exn) Stdlib.result -> Oracle.verdict;
      (** the oracle over the states the run committed *)
  c_latest : unit -> Workload.state;  (** newest committed model state *)
}

val run :
  config ->
  subject ->
  budget:int option ->
  [ `Completed of int * crashed | `Crashed of crashed ]
(** Run the subject on a fresh deterministic heap; with a budget, power
    fails after that many PM events and the interrupted execution is
    returned ([`Completed] carries the total event count).  The region
    stays powered off until the caller's {!Pmalloc.Heap.crash}. *)

val run_until :
  config ->
  Workload.t ->
  budget:int option ->
  [ `Completed of int * Pmalloc.Heap.t | `Crashed of crashed ]
(** {!run} on a sequential workload. *)

val recover_and_check : crashed -> Oracle.verdict
(** Recover, read the state back and consult the oracle. *)

val check_final : crashed -> Oracle.verdict
(** An uncrashed run's final state must equal the newest committed
    model state (for concurrent writers, the serializability check). *)

type fault_outcome =
  | Recovered  (** recovery absorbed the fault *)
  | Degraded of Mod_core.Error.t
      (** recovery or the read-back failed with a typed error: the fault
          was detected *)
  | Broken of string
      (** the degradation contract failed (the failure detail): silent
          corruption, an untyped exception, or a degraded recovery from
          a corrupted root summary alone (kind 4) *)

val sample_fault : crashed -> k:int -> seed:int -> fault_outcome
(** The fault sample the sweep takes under [faults]: crash torn, in
    Randomize mode at [seed], inject fault kind [k] (0 torn only; 1 the
    primary root-record line media-bad; 2 both record lines; 3 a
    seed-derived heap line; 4 the root-summary word corrupted), recover
    and judge. *)

val failure :
  subject ->
  crash_index:int ->
  mode:Pmem.Region.crash_mode ->
  survival_seed:int option ->
  ?fault:int ->
  string ->
  failure
(** The failure a sweep reports for this crash of the subject, the
    record a replay command is printed from and shrunk over. *)

(** {1 Sweeps} *)

val explore : ?cfg:config -> Workload.t -> result
(** The full sweep: every strided crash point x every mode x every
    survival seed, plus the trace check and the final-state check
    ([crash_index = -1]) of the one uncrashed run that captured the
    points. *)

val default_schedules : Interleave.schedule list
(** Round-robin at co-prime quanta plus seeded random walks. *)

val explore_concurrent :
  ?cfg:config -> ?schedules:Interleave.schedule list -> Workload.ct -> cresult
(** Sweep every (schedule, strided crash point, mode, survival seed)
    tuple.  Each schedule's one uncrashed run captures its points, and
    its final state must equal the newest tracked model state (the
    serializability check; reported with [crash_index = -1]). *)

val pp_failure : Format.formatter -> failure -> unit
val pp_result : Format.formatter -> result -> unit
val pp_cresult : Format.formatter -> cresult -> unit
