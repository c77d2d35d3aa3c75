(** Durable-linearizability oracle.

    One judge over one history: the commits in their total order (the
    root-record CAS serializes racing writers), each tagged with its
    writer, plus each writer's in-flight state.  Durability lags per
    writer -- only a writer's last root write can still be undrained at
    the crash (buffered durable linearizability under epoch persistency,
    paper Section 5.1) -- so a recovered state is consistent iff it is a
    pending state, or the state at a cut with at most one commit per
    writer above it.  A sequential history is one writer whose unchanged
    states commit nothing. *)

type verdict = Consistent | Violation of string

val is_consistent : verdict -> bool

type tracker
(** One execution's history.  The tracked states are what the winning
    operation {e must} have produced, so lost updates surface as a
    recovered state matching no cut. *)

val tracker : writers:int -> init:string -> tracker

val track_pending : tracker -> writer:int -> string -> unit
(** The writer is about to attempt its commit swing; [state] is the
    model state its operation yields applied to the current model.
    Call once per CAS attempt -- retries recompute and overwrite. *)

val track_commit : tracker -> writer:int -> string -> unit
(** The writer's commit won; [state] is now the latest durably-decided
    model state (clears the writer's pending). *)

val clear_pending : tracker -> writer:int -> unit
(** The writer's operation ended without a commit (a read, or a write
    that left the state unchanged). *)

val latest : tracker -> string
(** Newest committed model state ([init] before any commit): what an
    uncrashed run must observe -- the serializability check. *)

val judge : tracker -> recovered:(string, exn) result -> verdict
(** [Error exn] (recovery or the read-back raised) is always a
    violation: recovery must degrade typedly, never throw on read.  The
    window is every pending state, then the state at each cut, newest
    first, down to the first cut with two commits of one writer above
    it.  [judge tr] lists it once, in O(writers), as [tr] stands then,
    and later commits leave it unchanged: the oracle a crash at that
    instant is judged by, whose checks then cost one string comparison
    per state of the window. *)

val check :
  history:string list ->
  pending:string option ->
  recovered:(string, exn) result ->
  verdict
(** {!judge} over one writer: [history] is newest-first, non-empty and
    may repeat states (a read leaves the state unchanged); each state
    that differs from the one before it is a commit. *)
