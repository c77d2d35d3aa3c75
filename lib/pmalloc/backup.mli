(** On-PM layout of a Backup-policy slot ("Don't Persist All"): the
    4-word descriptor node a Backup slot's root points at, and the Raw
    op-log block whose per-cacheline checksummed entries make each
    operation durable with a single clwb.  See the implementation header
    for the full protocol and crash argument. *)

val magic : int
(** Scalar payload of a descriptor's word 0; large enough that no
    structure root's scalar (bitmap, size, ...) collides with it. *)

val max_tag : int

val magic_word : tag:int -> Pmem.Word.t
(** A descriptor's word 0: {!magic} with the owning structure's layout
    tag (0 to {!max_tag}) in the bits above it, so one store writes
    both. *)

val is_magic : Pmem.Word.t -> bool
(** Whether a word is a descriptor's word 0, whatever its tag. *)

val tag_of : Pmem.Word.t -> int
(** The tag of a word {!is_magic} accepts. *)

val desc_words : int
(** Descriptor body size (4). *)

val d_magic : int
val d_nonce : int
val d_anchor : int
val d_log : int
(** Word indices inside the descriptor body. *)

val entry_stride : int
(** Words per log entry = words per cacheline: a torn crash can damage
    at most the entry being appended. *)

val log_capacity : int
(** Entries per log; a full log forces a checkpoint. *)

val log_alloc_words : int
(** Body words to allocate for a log so [log_capacity] line-aligned
    entries fit at any body alignment. *)

val first_entry_off : int -> int
(** First (line-aligned) entry word inside a log body. *)

val entry_off : int -> index:int -> int

val entry_checksum :
  nonce:int -> index:int -> opcode:int -> a0:Pmem.Word.t -> a1:Pmem.Word.t ->
  int
(** Checksum binding an entry to its descriptor (nonce), its position,
    and its payload -- stale entries from a recycled log block can never
    validate against a fresh nonce. *)

val append :
  Heap.t -> log:int -> nonce:int -> index:int -> opcode:int ->
  a0:Pmem.Word.t -> a1:Pmem.Word.t -> unit
(** The Backup commit's durable write: one line of stores + one clwb,
    ordered (made durable) by the next fence. *)

val read_entry :
  load:(int -> Pmem.Word.t) -> log:int -> nonce:int -> index:int ->
  (int * Pmem.Word.t * Pmem.Word.t) option
(** Validate entry [index]; [None] on checksum miss.  [load] abstracts
    live-region vs offline-array reads; a media fault it raises
    propagates. *)

val valid_entries :
  load:(int -> Pmem.Word.t) -> log:int -> nonce:int ->
  (int * Pmem.Word.t * Pmem.Word.t) list
(** The committed prefix: entries from 0 until the first invalid one. *)
