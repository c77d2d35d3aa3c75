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

val pure : t -> (Pmalloc.Heap.t -> Pmem.Word.t -> 'a) -> 'a
(** [pure t f] runs the pure update [f heap (current t)].  On a Backup
    slot the update runs inside the backup bracket, so its shadows'
    clwbs are parked in the checkpoint backlog instead of issued. *)

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

(** {1 The Basic interface's FASEs (Section 4.2)}

    Every structure's Basic entry point is one call to these: each runs
    under the heap's telemetry span labelled [structure]/[op]
    ({!Pmalloc.Heap.span}), and each update is {!pure} then {!commit}. *)

val span :
  t -> structure:string -> op:string -> (unit -> 'a) -> 'a
(** A read path: [f] under the span. *)

val update :
  ?entry:int * Pmem.Word.t * Pmem.Word.t ->
  t ->
  structure:string ->
  op:string ->
  (Pmalloc.Heap.t -> Pmem.Word.t -> Pmem.Word.t) ->
  unit
(** The one-fence FASE: {!pure} [f], then {!commit} its shadow with the
    Backup log [entry]. *)

val take :
  ?entry:int * Pmem.Word.t * Pmem.Word.t ->
  t ->
  structure:string ->
  op:string ->
  (Pmalloc.Heap.t -> Pmem.Word.t -> ('a * Pmem.Word.t) option) ->
  'a option
(** A pop-like FASE: {!pure} [f]; when it yields [Some (v, shadow)],
    commit [shadow] and return [Some v]; on [None] commit nothing. *)

val many :
  t ->
  structure:string ->
  op:string ->
  (Pmalloc.Heap.t -> Pmem.Word.t -> 'x -> Pmem.Word.t) ->
  'x list ->
  unit
(** Group commit (Figure 8): stage [f heap version x] for each [x] on
    one {!Batch} and retire them all under one ordering point, in one
    span counting [List.length xs] ops.  An empty list does nothing. *)

val scalar_entry :
  int -> Pmem.Word.t -> Pmem.Word.t -> (int * Pmem.Word.t * Pmem.Word.t) option
(** [scalar_entry opcode a0 a1]: the log entry, or [None] (a checkpoint
    commit) when either argument is a pointer, such as a blob element. *)

(** {1 Opening a structure's slot}

    Every structure opens through these functions, so the commit policy
    matrix, the validated open and the Backup log replay are written
    once. *)

type layout

val layout :
  name:string ->
  shape:string ->
  words:int option ->
  empty:(Pmalloc.Heap.t -> Pmem.Word.t) option ->
  (Pmalloc.Heap.t ->
  Pmem.Word.t ->
  opcode:int ->
  a0:Pmem.Word.t ->
  a1:Pmem.Word.t ->
  Pmem.Word.t option) ->
  layout
(** [layout ~name ~shape ~words ~empty apply] describes a structure's
    slot: [name] is its module, whose tag ({!Commit.layout_tag}) its
    Backup descriptors carry; [shape] names its root block in a
    [Codec_mismatch]; [words] is that block's size when it is fixed;
    [empty] is the version a null slot is given ([None] when null is the
    empty state); [apply] replays one Backup log entry on a version,
    returning the owned successor, or [None] for an opcode the structure
    does not define. *)

val reconstruct : layout -> Pmalloc.Heap.t -> slot:int -> unit
(** The layout's Backup log replay ({!Commit.reconstruct}).  An entry
    whose opcode the layout does not define raises {!Error.Error}
    [Corrupt_root], naming the layout. *)

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
    another structure's descriptor is [Codec_mismatch]).  An error the
    log replay raises is returned as [Error]. *)
