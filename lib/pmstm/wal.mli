(** Persistent undo log for the PMDK-style STM ({!Tx}).

    Lives in a [Raw] PM block: word 0 holds the valid entry count (0 =
    invalid) below a generation advanced at each invalidation, followed
    by self-describing entries [target offset; word count + check;
    saved words ...].  The check binds an entry to the log's nonce (see
    {!bind}), its generation, index and contents, so a crash that
    persists the count without the entry it publishes, or leaves an
    earlier transaction's or an earlier log's entry in the line, ends
    the rollback's prefix there; rollback restores snapshots
    newest-first. *)

type t

val create : Pmalloc.Heap.t -> capacity_words:int -> t
(** Allocate the log block and durably zero its count word. *)

val bind : t -> nonce:int -> unit
(** Bind the log to [nonce] before its first append: a number the owner
    records durably and never gave an earlier log, which {!recover} is
    handed back.  Entries a reused block still holds from earlier logs
    then never validate. *)

val body : t -> int
(** Body offset of the log block (for root-directory registration). *)

val capacity : t -> int
val entries : t -> int

val reset : t -> unit
(** Forget the volatile cursor/count (does not touch PM). *)

val append : t -> off:int -> words:int -> (unit, [ `Log_full ]) result
(** Snapshot a range into the log and flush the entry with unordered
    clwbs (the caller decides when to fence).  [Error `Log_full]
    appends nothing; existing entries stay valid. *)

val touch_metadata : t -> unit
(** Persist a log-metadata update (stage transitions): header store +
    clwb, ordered by the caller. *)

val invalidate : t -> unit
(** Durably invalidate the log (store + clwb + sfence) and reset. *)

val rollback : t -> entries_valid:int -> unit
(** Apply the first [entries_valid] entries, up to the first whose
    check fails, in reverse, restoring the snapshots, then durably
    invalidate. *)

val recover : Pmalloc.Heap.t -> body:int -> nonce:int -> bool
(** Crash recovery of the log whose block body is [body], bound to
    [nonce]: roll back if the durable count is non-zero.  Returns
    whether a rollback happened. *)
