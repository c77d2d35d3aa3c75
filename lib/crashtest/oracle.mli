(** Durable-linearizability oracle.

    Sequential form: after a crash the recovered abstract state must
    equal the model state at a FASE boundary no older than the
    penultimate committed operation (buffered durable linearizability
    under epoch persistency, paper Section 5.1).

    Concurrent form: with several writers racing commits at one root
    the installed states still form a total order (the root-record CAS
    serializes them), but durability lags per thread -- the recovered
    state must be a linearization-consistent cut no older than each
    thread's penultimate committed operation, or the would-be state of
    an in-flight commit. *)

type verdict = Consistent | Violation of string

val acceptable : history:string list -> pending:string option -> string list
(** The window of states a crash may legally expose: the latest
    committed state, the newest committed state that differs from it,
    and the mid-flight operation's state if any.  [history] is
    newest-first and may repeat states (a read leaves the state
    unchanged). *)

val check :
  history:string list ->
  pending:string option ->
  recovered:(string, exn) result ->
  verdict
(** Sequential check.  [Error exn] (recovery raised) is always a
    violation: recovery must degrade typedly, never throw on read. *)

val is_consistent : verdict -> bool

(** {1 Concurrent histories} *)

type tracker
(** Per-execution bookkeeping for concurrent writers: the totally
    ordered committed model states (recorded at each commit's
    linearization point) plus each writer's in-flight state.  The
    tracked states are what the winning operation {e must} have
    produced, so lost updates surface as a recovered state matching no
    cut. *)

val tracker : writers:int -> init:string -> tracker

val copy_tracker : tracker -> tracker
(** The tracker as it stands now, unaffected by later commits: the
    oracle a crash at this instant is judged by.  O(writers). *)

val track_pending : tracker -> writer:int -> string -> unit
(** The writer is about to attempt its commit swing; [state] is the
    model state its operation yields applied to the current model.
    Call once per CAS attempt -- retries recompute and overwrite. *)

val track_commit : tracker -> writer:int -> string -> unit
(** The writer's commit won; [state] is now the latest durably-decided
    model state (clears the writer's pending). *)

val latest : tracker -> string
(** Newest committed model state ([init] before any commit): what an
    uncrashed run must observe -- the serializability check. *)

val check_concurrent : tracker -> recovered:(string, exn) result -> verdict
(** A recovered state is consistent iff it equals the tracked model
    state at some cut depth where every writer has at most one
    committed operation newer than the cut (only the last root write
    per thread can still be undrained), or one writer's pending
    state. *)
