(** Real kill-9 crash harness.

    Everything the explorer proves is simulated; this harness makes the
    durability claim external.  A forked worker ({!serve}) applies a
    deterministic {!Workload} script to a {e file-backed} heap, acking
    each completed operation over a pipe; the driver ({!run}) SIGKILLs
    it -- at a random wall-clock instant, or deterministically inside
    the file backend's writeback protocol via {!Pmem.Backing.sync_phase}
    -- then reopens the image in the surviving process, dumps the
    recovered abstract state and checks it against the
    durable-linearizability oracle. *)

type plan =
  | Complete  (** no kill: calibration + exact-final-state check *)
  | Timer of float  (** SIGKILL after this many wall-clock seconds *)
  | At_sync of { commit : int; phase : Pmem.Backing.sync_phase }
      (** worker SIGKILLs itself inside its [commit]-th file batch *)

val plan_name : plan -> string

val names : string list
(** Workloads whose recovery path is self-contained in a fresh process.
    {!run} also takes the shard targets ({!Workload.is_shard}). *)

val serve :
  ?capacity_words:int ->
  ?kill_at:int * Pmem.Backing.sync_phase ->
  ?persist:Pmalloc.Heap.policy ->
  path:string ->
  workload:string ->
  ops:int ->
  ack_fd:Unix.file_descr ->
  unit ->
  unit
(** The worker body: open/create the file-backed heap at [path], run
    the workload, ack each completed op on [ack_fd].  Runs in the
    forked child, or standalone via [modpm serve]. *)

type outcome =
  | Consistent of int option
      (** matched the oracle window; the model index when unique *)
  | Violation of string
  | Typed_error of string  (** typed degradation (only OK pre-format) *)
  | Escaped of string  (** a raw exception leaked somewhere *)

type trial = {
  t_index : int;
  t_workload : string;
  t_plan : plan;
  t_acked : int;  (** completed ops acked; -1 = killed before format *)
  t_completed : bool;
  t_journal : [ `None | `Replayed of int | `Discarded ] option;
  t_reopen_ns : float;  (** 0 when the image never reopened *)
  t_fsck : Pmalloc.Fsck.verdict;
  t_outcome : outcome;
}

type result = {
  workload : string;
  ops : int;
  kills : int;
  trials : trial list;
  violations : int;
  escaped : int;
  typed_errors : int;  (** typed degradations on pre-format kills (benign) *)
  completed_runs : int;
  replayed : int;
  discarded : int;
  clean_journals : int;
  fsck_clean : int;
  fsck_degraded : int;
  fsck_corrupt : int;
  max_reopen_ns : float;
  mean_reopen_ns : float;
  run_span : float;
      (** seconds from the calibration worker's fork to its done ack:
          every Timer deadline is drawn from [\[0, run_span\]] *)
  wall_seconds : float;
}

val ok : result -> bool
val pp_result : Format.formatter -> result -> unit

val run :
  ?dir:string ->
  ?ops:int ->
  ?seed:int ->
  ?keep:bool ->
  ?capacity_words:int ->
  ?log:(string -> unit) ->
  ?persist:Pmalloc.Heap.policy ->
  workload:string ->
  kills:int ->
  unit ->
  result
(** Fork/kill/reopen [kills] trials (plus one calibration run and the
    deterministic sync-phase plans) and judge each against the oracle
    window.  [keep] preserves the image files for post-mortems. *)

val failures : result -> string list
(** One printable line per violating or escaped trial. *)
