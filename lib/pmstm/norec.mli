(** NOrec-style validation STM over the simulated PM, for concurrent
    writers.

    One global sequence lock serializes writing commits; readers are
    lock-free and validate by {e value}: a transaction records the bits
    of every word it read and re-checks them whenever the global
    sequence number moves (Dalessandro, Spear, Scott, PPoPP'10 -- "no
    ownership records").  Durability is redo-based: a committing writer
    publishes its buffered write set into a checksummed redo log and
    fences once -- the durable linearization point -- then applies the
    writes in place and durably retires the log.  Three ordering points
    per writing commit, zero for read-only transactions.

    Concurrency is the simulator's cooperative kind: every PM event is
    a preemption point ({!Pmem.Region.set_event_hook}); spin-waits call
    the instance's yield so the lock holder can progress. *)

type t
(** One STM instance: the sequence lock plus its durable redo log.
    Shared by every writer of the heap; each writer runs its own
    transactions ({!tx}) against it. *)

type tx
(** One in-flight transaction (read set, buffered write set). *)

val create : ?log_capacity_words:int -> Pmalloc.Heap.t -> t
(** Allocate the redo log and durably register it in the root directory
    (slot [Pmalloc.Heap.root_slots - 2]; {!Tx} uses the last slot) so
    recovery reachability keeps it alive. *)

val heap : t -> Pmalloc.Heap.t

val set_yield : t -> (unit -> unit) -> unit
(** Install the cooperative yield used while spinning on the sequence
    lock.  The interleaving explorer points this at its scheduler; the
    default spins on a bounded fuel counter and fails loudly rather
    than hang. *)

val run :
  ?before_publish:(unit -> unit) ->
  ?after_publish:(unit -> unit) ->
  t ->
  (tx -> 'a) ->
  'a
(** Run [f] as a transaction, re-executing it from scratch whenever
    value validation fails (so [f] must be idempotent up to its [tx]
    operations).  [before_publish] fires after the sequence lock is
    acquired, before the first redo-log store -- the earliest instant a
    crash could expose the commit; [after_publish] fires right after
    the publish fence, when the commit is durably decided.  Both must
    issue no PM events (each PM event is a preemption point). *)

val read : tx -> int -> Pmem.Word.t
(** Transactional load: served from the write buffer when buffered,
    otherwise validated against the global sequence number and recorded
    in the value read set. *)

val write : tx -> int -> Pmem.Word.t -> unit
(** Buffer a word store; it reaches PM only at commit.  Raises
    [Invalid_argument] if the write set outgrows the redo log. *)

val commits : t -> int
(** Writing commits since [create] (volatile diagnostic). *)

val aborts : t -> int
(** Validation failures that forced a re-execution. *)

val recover : Pmalloc.Heap.t -> bool
(** Crash recovery: if the root directory points at a redo log whose
    checksum validates with a non-zero entry count, the crash landed
    between the publish fence and the durable retire -- replay the
    entries (idempotent) and retire the log.  Returns whether a replay
    happened.  Run before the heap's reachability analysis. *)
