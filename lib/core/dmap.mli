(** MOD durable map (Section 4: CHAMP trie + Functional Shadowing).

    The installed version is the CHAMP root itself (null = empty map), so
    each update flushes exactly the copied tree path and nothing else.
    [elt] is a key/value pair; [add] = [insert]. *)

module Make (K : Pfds.Kv.CODEC) (V : Pfds.Kv.CODEC) : sig
  include Intf.DURABLE with type t = Handle.t and type elt = K.t * V.t

  val apply :
    Pmalloc.Heap.t -> Pmem.Word.t -> opcode:int -> a0:Pmem.Word.t ->
    a1:Pmem.Word.t -> Pmem.Word.t option
  (** One Backup log entry replayed on a version ({!Handle.layout}). *)

  (** {1 Composition interface (Section 4.3.2): pure updates on versions} *)

  val insert_pure : Pmalloc.Heap.t -> Pmem.Word.t -> K.t -> V.t -> Pmem.Word.t

  val remove_pure : Pmalloc.Heap.t -> Pmem.Word.t -> K.t -> Pmem.Word.t * bool
  (** Returns the unchanged version itself (un-owned) when the key was
      absent; callers skip the commit in that case. *)

  val find_in : Pmalloc.Heap.t -> Pmem.Word.t -> K.t -> V.t option
  val mem_in : Pmalloc.Heap.t -> Pmem.Word.t -> K.t -> bool
  val card_of : Pmalloc.Heap.t -> Pmem.Word.t -> int

  (** {1 Basic interface (Section 4.3.1): one-fence FASEs} *)

  val insert : t -> K.t -> V.t -> unit
  val remove : t -> K.t -> bool

  val insert_many : t -> (K.t * V.t) list -> unit
  (** N inserts under one ordering point (group commit, Figure 8). *)

  val find : t -> K.t -> V.t option
  val mem : t -> K.t -> bool

  val cardinal : t -> int
  (** O(n): cardinality is not materialized in the versioned state. *)

  val iter : t -> (K.t -> V.t -> unit) -> unit
  val fold : t -> (K.t -> V.t -> 'a -> 'a) -> 'a -> 'a
end
