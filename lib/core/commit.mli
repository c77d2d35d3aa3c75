(** Commit: the single ordering point of every MOD failure-atomic section
    (paper Section 5.1, Figure 8).

    A FASE has two parts: Update -- pure, out-of-place operations that
    flush their writes with unordered clwbs -- and Commit, which fences
    once so every shadow is durable, then atomically swings the persistent
    pointer(s), then reclaims superseded versions by reference count. *)

val single :
  ?intermediates:Pmem.Word.t list ->
  ?reclaim:bool ->
  Pmalloc.Heap.t ->
  slot:int ->
  Pmem.Word.t ->
  unit
(** CommitSingle (Figure 8b): one datastructure, one or more updates.
    One fence, one 8-byte atomic root write.  [intermediates] are the
    superseded shadows of a multi-update FASE; [reclaim:false] is an
    ablation knob that leaves old versions to recovery GC. *)

val commit_cas :
  ?reclaim:bool ->
  ?before_swing:(unit -> unit) ->
  ?after_swing:(unit -> unit) ->
  Pmalloc.Heap.t ->
  slot:int ->
  build:(Pmem.Word.t -> (Pmem.Word.t * Pmem.Word.t list) option) ->
  int
(** The lock-free concurrent commit: [build old] re-runs the pure
    update against the root's current version, returning the owned
    [(latest, intermediates)] shadow pair or [None] for a no-op; each
    attempt fences the shadows durable and tries one hardware-CAS root
    swing ({!Pmalloc.Heap.root_cas}), retrying the rebuild on conflict
    instead of taking a lock.  Returns the number of build attempts
    (1 = uncontended).  [before_swing] runs between an attempt's fence
    and its CAS, [after_swing] directly after a winning CAS before any
    reclamation; both must issue no PM events (under the interleaving
    explorer every PM event is a preemption point) -- the concurrent
    oracle hangs its pending/linearized bookkeeping on them.

    Reclamation contract: with genuinely concurrent writers pass
    [reclaim:false].  [reclaim:true] frees the superseded version the
    instant the CAS wins, while a losing writer may still be mid-build
    holding pointers into it -- the classic lock-free reclamation
    hazard (there are no hazard pointers here).  Unreclaimed versions
    are unreachable garbage that recovery GC scrubs; a lost attempt's
    discarded shadow is always released immediately, which is safe
    because its fresh nodes are private and its shared subtrees keep at
    least their pre-build reference count. *)

val siblings : Pmalloc.Heap.t -> slot:int -> (int * Pmem.Word.t) list -> unit
(** CommitSiblings (Figure 8c): several datastructures under one parent
    object held in [slot].  [(field, shadow)] pairs replace parent fields;
    unlisted fields are shared.  A fresh parent is built and flushed, then
    installed after the single fence with one atomic write.  Raises
    [Invalid_argument] if the slot is empty (null) or holds a scalar
    rather than a parent pointer, or if a field index falls outside the
    parent object. *)

val sibling_shadow :
  Pmalloc.Heap.t -> slot:int -> (int * Pmem.Word.t) list -> Pmem.Word.t
(** The Update half of {!siblings}: build and flush (no fence) a fresh
    parent for [slot] with the given field replacements, sharing the
    rest.  Returns the owned parent shadow, ready for any Commit flavor;
    {!Batch} uses it to fold several sibling groups under one fence.
    Same [Invalid_argument] guards as {!siblings}. *)

val unrelated :
  Pmalloc.Heap.t -> Pmstm.Tx.t -> (int * Pmem.Word.t) list -> unit
(** CommitUnrelated (Figure 8d): datastructures with no common parent.
    One fence persists all shadows, then a short PM-STM transaction
    updates the root slots -- the only case with extra ordering points. *)

val release_version : Pmalloc.Heap.t -> Pmem.Word.t -> unit
(** Drop one reference to a version (no-op on null/scalar words). *)

(** {1 "Don't Persist All": the Backup commit policy}

    A Backup-policy slot's root holds a descriptor [magic; nonce;
    anchor; log] ({!Pmalloc.Backup}); commits append one checksummed log
    entry (a single clwb) instead of flushing the shadow path, and the
    volatile current version is rebuilt after a crash by replaying the
    log from the anchor.  Structures drive these through
    {!Handle.commit}'s [?entry] and their own [reconstruct]. *)

val current_of : Pmalloc.Heap.t -> slot:int -> Pmem.Word.t
(** The version a reader should see: the durable root for Full slots,
    the volatile current version for Backup slots.  Raises [Failure] on
    a Backup slot whose state has not been reconstructed yet. *)

val layout_tag : string -> int
(** The tag the named structure's Backup descriptors carry in word 0
    ("Dmap", "Dset", "Dstack", "Dqueue", "Dvec", "Dseq", "Dpqueue"). *)

val describe_tag : int -> string
(** A tag as a [Codec_mismatch] names it. *)

val enable : Pmalloc.Heap.t -> slot:int -> tag:int -> unit
(** Promote a slot to the Backup policy: durably flip its policy word,
    then commit a descriptor tagged [tag] and anchored at the slot's
    present version (null for an empty structure) and install fresh
    volatile state.
    One fence.  A crash mid-promotion leaves either the old Full state
    or Backup-policy + pre-promotion root, which [reconstruct]
    re-promotes. *)

val backup_append :
  ?intermediates:Pmem.Word.t list ->
  Pmalloc.Heap.t ->
  Pmalloc.Heap.backup_state ->
  opcode:int ->
  a0:Pmem.Word.t ->
  a1:Pmem.Word.t ->
  latest:Pmem.Word.t ->
  unit
(** The Backup commit: fence (draining the {e previous} entry's clwb --
    the same epoch-durability window as a Full commit), append + clwb
    one log entry, advance the volatile current to [latest] and release
    the superseded versions. *)

val checkpoint :
  ?intermediates:Pmem.Word.t list ->
  Pmalloc.Heap.t ->
  slot:int ->
  Pmem.Word.t ->
  unit
(** Re-anchor a Backup slot at the given version: flush the backlogged
    interior nodes, commit a fresh descriptor (with the slot's tag) +
    empty op log with one
    CommitSingle, reset the volatile state.  Used when the log fills or
    an operation's arguments cannot ride in a log entry. *)

val reconstruct :
  Pmalloc.Heap.t ->
  slot:int ->
  tag:int ->
  apply:
    (Pmem.Word.t -> opcode:int -> a0:Pmem.Word.t -> a1:Pmem.Word.t ->
     Pmem.Word.t) ->
  unit
(** Rebuild a Backup slot's volatile current version: replay the log's
    valid prefix from the anchor through [apply] (the structure's pure
    op dispatcher, returning the owned successor version).  Idempotent,
    no durable writes; a no-op on Full slots.  An interrupted promotion
    (Backup policy, non-descriptor root) is re-promoted here, tagged
    [tag].  A descriptor (or reconstructed state) tagged for another
    structure raises {!Error.Error} [Codec_mismatch] before anything
    changes; an untagged one opens. *)
