(** PMDK-style persistent-memory transactions (the paper's baseline).

    Undo-logging STM over the simulated PM, in the two flavours the
    paper measures: [V1_4] orders every snapshot with its own fences
    (the "5-50 fences per transaction" regime of Section 3) and [V1_5]
    batches snapshot drains hybrid-redo style (~23% faster, Section
    6.3).  Writes are tracked and flushed at commit; the undo log is
    then durably invalidated.  See {!Norec} for the concurrent
    validation STM built for the multi-writer path. *)

type version = V1_4 | V1_5

type t

exception Abort
(** Raise inside [run] to abort the transaction (undo + re-raise). *)

exception Log_full
(** The undo log filled and repeated growth retries could not fit the
    transaction; it has been cleanly aborted through the undo path. *)

val create :
  ?log_capacity_words:int ->
  ?broken_ordering:bool ->
  Pmalloc.Heap.t ->
  version:version ->
  t
(** Allocate and durably register the undo log.  [broken_ordering]
    builds the deliberately buggy variant the crash-test negative
    controls expect to fail.  The last root slot keeps the log
    reachable across crashes, so a heap holds one [t] at a time: a
    second [create] takes the slot over. *)

val heap : t -> Pmalloc.Heap.t
val version : t -> version
val in_tx : t -> bool

val log_capacity : t -> int
(** Current undo-log capacity in words (grows on [Log_full] retries). *)

val run : t -> (unit -> 'a) -> 'a
(** Run [f] in a transaction: begin, commit on return, abort on any
    exception (which is re-raised).  Nested [run]s flatten into the
    outermost transaction.  A full log aborts, grows and retries the
    whole flattened body, raising {!Log_full} after bounded retries. *)

val run_grouped : t -> n:int -> (int -> unit) -> unit
(** Group commit: one transaction covering [n] logical operations,
    amortizing the snapshot and commit ordering points (the PM-STM
    counterpart of [Mod_core.Batch]). *)

val add : t -> off:int -> words:int -> unit
(** Snapshot [words] words at [off] into the undo log (TX_ADD), with
    the fence discipline of the transaction's [version].  Must precede
    any in-place [store] to existing memory. *)

val load : t -> int -> Pmem.Word.t

val store : t -> int -> Pmem.Word.t -> unit
(** In-place transactional store; raises [Failure] if the target is
    neither snapshotted nor freshly allocated. *)

val alloc : t -> kind:Pmalloc.Block.kind -> words:int -> int
(** Transactional allocation, rolled back if the transaction aborts. *)

val store_fresh : t -> int -> Pmem.Word.t -> unit
(** Store into a block allocated in this transaction (no undo entry
    needed; still flushed at commit). *)

val free_on_commit : t -> int -> unit
(** Defer a free to commit time (aborting cancels it). *)

val begin_ : t -> unit
val commit : t -> unit
val abort : t -> unit
(** Explicit lifecycle for tests; prefer {!run}. *)

val recover : Pmalloc.Heap.t -> bool
(** Crash recovery: find the undo log through the last root slot, as
    {!create} registered it, and roll back an interrupted transaction
    from it.  Needs no [t], so a restarted process recovers the same
    way.  Returns whether a rollback happened. *)
