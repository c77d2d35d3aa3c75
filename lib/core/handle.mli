(** A handle binds a MOD datastructure to a persistent root slot.

    Through the Basic interface (Section 4.3.1) a handle behaves like a
    mutable datastructure with logically in-place failure-atomic updates;
    underneath, each operation is pure-update-then-CommitSingle.  The
    Composition interface (Section 4.3.2) works on the versions directly:
    [current] reads the installed version, pure updates return shadows,
    and [commit] installs them. *)

type t

val make : Pmalloc.Heap.t -> slot:int -> t
val heap : t -> Pmalloc.Heap.t
val slot : t -> int

val current : t -> Pmem.Word.t
(** The installed version (null if none): the durable root for a Full
    slot, the volatile log-covered version for a Backup slot (raises
    [Failure] there until the structure's [reconstruct] ran). *)

val is_initialized : t -> bool

val initialize : t -> Pmem.Word.t -> unit
(** Install an initial version into an empty slot, failure-atomically.
    [Invalid_argument] on Backup slots -- structures initialize before
    promoting. *)

val pure : t -> (Pmem.Word.t -> 'a) -> 'a
(** Run a pure update against {!current}.  On a Backup slot the update
    runs inside the backup bracket, so its shadows' clwbs are parked in
    the checkpoint backlog instead of issued. *)

val commit :
  ?intermediates:Pmem.Word.t list ->
  ?entry:int * Pmem.Word.t * Pmem.Word.t ->
  t ->
  Pmem.Word.t ->
  unit
(** Install a version.  Full slot: CommitSingle.  Backup slot: append
    the [(opcode, a0, a1)] log [entry] ({!Commit.backup_append}) when
    one is given and the log has room, otherwise {!Commit.checkpoint}.
    [entry] is ignored on Full slots. *)

val update_cas :
  ?reclaim:bool ->
  ?before_swing:(unit -> unit) ->
  ?after_swing:(unit -> unit) ->
  t ->
  build:(Pmem.Word.t -> (Pmem.Word.t * Pmem.Word.t list) option) ->
  int
(** Concurrent commit against this slot: {!Commit.commit_cas} on a Full
    slot (returns the attempt count); raises [Invalid_argument] on a
    Backup slot, whose commit order is its op-log append order and
    cannot be serialized by a lock-free root CAS.  Pass [reclaim:false]
    whenever other writers can race this slot (see the reclamation
    contract on {!Commit.commit_cas}). *)

(** {1 Opening a structure's slot}

    Every structure opens through these two functions, so the commit
    policy matrix and the validated open are written once. *)

type layout = {
  name : string;  (** the structure's module, for error messages *)
  tag : int;
      (** the tag its Backup descriptors carry ({!Commit.layout_tag}):
          a Backup slot tagged for another structure does not open *)
  shape : string;  (** its root block, as a [Codec_mismatch] names it *)
  words : int option;  (** the root block's size, when it is fixed *)
  empty : (Pmalloc.Heap.t -> Pmem.Word.t) option;
      (** the version a null slot is given; [None] when a null version
          is the empty state *)
  reconstruct : Pmalloc.Heap.t -> slot:int -> unit;
      (** the structure's Backup log replay ({!Commit.reconstruct}) *)
}

val open_or_create :
  layout -> ?persist:Pmalloc.Heap.policy -> Pmalloc.Heap.t -> slot:int -> t
(** Bind [slot], installing [empty] if the slot is null.  Trusts the
    slot's contents.  [persist] omitted follows the slot's durable policy
    word (a Backup slot is reconstructed); [Backup] promotes a Full
    slot; [Full] on a Backup slot is [Invalid_argument].  A Backup slot
    whose descriptor is tagged for another structure raises
    {!Error.Error} [Codec_mismatch]. *)

val open_result :
  layout -> Pmalloc.Heap.t -> slot:int -> (t, Error.t) result
(** Like [open_or_create] with no [persist], after validating the slot:
    in range, readable, and either null or a pointer to an allocated
    [Scanned] block of [words] words ([Backup.desc_words] when the slot
    commits as Backup, with a descriptor untagged or tagged [tag];
    another structure's descriptor is [Codec_mismatch]). *)
