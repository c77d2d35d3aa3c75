(** Compressed Hash-Array Mapped Prefix tree (CHAMP) in persistent memory
    — the functional map/set under the paper's MOD map and set
    (Steindorfer & Vinju, OOPSLA'15; the paper's reference [43]).

    All update operations are pure: they copy the O(log32 n) nodes on the
    path to the affected slot, share everything else, flush fresh nodes
    with unordered clwbs, and return an owned new root.  The single fence
    belongs to Commit. *)

val bits_per_level : int
val branch : int

val popcount : int -> int
(** Population count of a map below 2^32 (a node's datamap or nodemap, or
    a masked part of one), used for bitmap-compressed slot indexing.  The
    count is wrong for a value of 2^32 or more. *)

module Make (K : Kv.CODEC) (V : Kv.CODEC) : sig
  type key = K.t
  type value = V.t

  val empty : Pmem.Word.t
  (** The empty map: a null version. *)

  val is_empty : Pmem.Word.t -> bool

  val find : Pmalloc.Heap.t -> Pmem.Word.t -> key -> value option
  val find_word : Pmalloc.Heap.t -> Pmem.Word.t -> key -> Pmem.Word.t option
  val mem : Pmalloc.Heap.t -> Pmem.Word.t -> key -> bool

  val insert :
    Pmalloc.Heap.t -> Pmem.Word.t -> key -> value -> Pmem.Word.t * bool
  (** [(new_root, grew)]; [grew] is false when an existing binding was
      replaced.  The new root is owned; the old version is untouched. *)

  val remove : Pmalloc.Heap.t -> Pmem.Word.t -> key -> Pmem.Word.t * bool
  (** [(new_root, removed)].  When the key is absent the original root is
      returned un-owned and no commit is needed.  Deletion maintains the
      canonical CHAMP form: single surviving entries migrate up into their
      parents. *)

  val iter : Pmalloc.Heap.t -> Pmem.Word.t -> (key -> value -> unit) -> unit

  val iter_words :
    Pmalloc.Heap.t -> Pmem.Word.t -> (Pmem.Word.t -> Pmem.Word.t -> unit) -> unit

  val fold :
    Pmalloc.Heap.t -> Pmem.Word.t -> (key -> value -> 'a -> 'a) -> 'a -> 'a

  val cardinal : Pmalloc.Heap.t -> Pmem.Word.t -> int
end
