(** Real kill-9 crash harness.

    Everything the explorer proves is simulated; this harness makes the
    durability claim external.  A forked worker ({!serve}) applies a
    deterministic {!Workload} script to a {e file-backed} heap, acking
    each completed operation over a pipe, and SIGKILLs itself at one
    kill point; the driver ({!run}) then reopens the image in the
    surviving process, dumps the recovered abstract state and checks it
    against the durable-linearizability oracle.  A sweep is
    deterministic: one calibration run lists every kill point in event
    order, and {!run} tests them at an even stride. *)

type point =
  | At_sync of { commit : int; phase : Pmem.Backing.sync_phase }
      (** at [phase] of the worker's [commit]-th file commit; commit 1
          formats the image inside {!Pmalloc.Heap.create} *)
  | After_ack of int  (** right after the worker acked its [i]-th op *)

val point_name : point -> string

val names : string list
(** Workloads whose recovery path is self-contained in a fresh process.
    {!run} also takes the shard targets ({!Workload.is_shard}). *)

val serve :
  ?capacity_words:int ->
  ?kill:point ->
  ?persist:Pmalloc.Heap.policy ->
  path:string ->
  workload:string ->
  ops:int ->
  ack_fd:Unix.file_descr ->
  unit ->
  unit
(** The worker body: create the file-backed heap at [path], run the
    workload, ack each completed op on [ack_fd] with the file commits
    done so far, and SIGKILL itself at [kill].  Runs in the forked
    child, or standalone via [modpm serve]. *)

type outcome =
  | Consistent of int option
      (** matched the oracle window; the first model index it equals *)
  | Violation of string
  | Typed_error of string  (** typed degradation (only OK pre-format) *)
  | Escaped of string  (** a raw exception leaked somewhere *)

type trial = {
  t_point : point option;  (** [None]: the calibration run, not killed *)
  t_index : int;  (** the point's index in event order; -1 calibration *)
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
  persist : Pmalloc.Heap.policy option;
  dir : string;  (** where the images were written *)
  kills : int;  (** the point budget the stride was chosen for *)
  points : int;  (** every kill point of the calibration run *)
  stride : int;  (** every [stride]-th point, from the first, was tested *)
  trials : trial list;  (** the calibration, then the points in order *)
  wall_seconds : float;
}

val ok : result -> bool
(** No violation, no escaped exception, the calibration run completed
    and every point killed. *)

val counters : result -> (string * int) list
(** Trial counts by outcome, completion, journal fate and fsck verdict,
    in a fixed order of fixed names. *)

val max_reopen_ns : result -> float
val pp_result : Format.formatter -> result -> unit

val run :
  ?dir:string ->
  ?ops:int ->
  ?keep:bool ->
  ?capacity_words:int ->
  ?log:(string -> unit) ->
  ?persist:Pmalloc.Heap.policy ->
  workload:string ->
  kills:int ->
  unit ->
  result
(** Run the calibration, list its kill points in event order, and test
    every [stride]-th of them, the smallest stride that keeps the count
    within [kills]: fork, kill, fsck, reopen and judge each against the
    oracle window.  [keep] preserves the image files for post-mortems. *)

val image_path : dir:string -> workload:string -> int -> string
(** The file the trial at a point index (-1: the calibration) writes in
    [dir].  With [keep] it stays there as the worker left it, journal
    ([<file>.journal]) and all, and a failure's replay line names it. *)

val failures : result -> (string * string) list
(** One (description, replay) pair per failing trial.  The replay line
    reruns the deterministic sweep with [--keep] and names the point and
    its image; for an {!At_sync} point it also gives the [modpm serve]
    command that reruns the worker alone. *)
