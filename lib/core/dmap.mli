(** MOD durable map (Section 4: CHAMP trie + Functional Shadowing).

    The installed version is the CHAMP root itself (null = empty map), so
    each update flushes exactly the copied tree path and nothing else.
    Conforms to {!Intf.DURABLE} with [elt = K.t * V.t]. *)

module Make (K : Pfds.Kv.CODEC) (V : Pfds.Kv.CODEC) : sig
  type t = Handle.t
  type elt = K.t * V.t

  val structure : string

  val open_or_create :
    ?persist:Pmalloc.Heap.policy -> Pmalloc.Heap.t -> slot:int -> t
  (** Bind [slot]; a null slot is a valid empty map.  [~persist:Backup]
      promotes the slot to the "Don't Persist All" commit policy (see
      {!Intf.DURABLE}). *)

  val open_result : Pmalloc.Heap.t -> slot:int -> (t, Error.t) result
  val reconstruct : Pmalloc.Heap.t -> slot:int -> unit

  val layout : Handle.layout
  (** How the map opens its slot ({!Handle.open_or_create}). *)

  val apply :
    Pmalloc.Heap.t -> Pmem.Word.t -> opcode:int -> a0:Pmem.Word.t ->
    a1:Pmem.Word.t -> Pmem.Word.t
  (** One Backup log entry replayed on a version ({!Commit.reconstruct}). *)

  val handle : t -> Handle.t
  val empty_version : Pmalloc.Heap.t -> Pmem.Word.t

  (** {1 Composition interface (Section 4.3.2): pure updates on versions} *)

  val insert_pure : Pmalloc.Heap.t -> Pmem.Word.t -> K.t -> V.t -> Pmem.Word.t

  val remove_pure : Pmalloc.Heap.t -> Pmem.Word.t -> K.t -> Pmem.Word.t * bool
  (** Returns the unchanged version itself (un-owned) when the key was
      absent; callers skip the commit in that case. *)

  val find_in : Pmalloc.Heap.t -> Pmem.Word.t -> K.t -> V.t option
  val mem_in : Pmalloc.Heap.t -> Pmem.Word.t -> K.t -> bool
  val card_of : Pmalloc.Heap.t -> Pmem.Word.t -> int
  val add_pure : Pmalloc.Heap.t -> Pmem.Word.t -> elt -> Pmem.Word.t
  val size_in : Pmalloc.Heap.t -> Pmem.Word.t -> int

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

  (** {1 Unified interface ({!Intf.DURABLE})} *)

  val add : t -> elt -> unit
  val add_many : t -> elt list -> unit
  val size : t -> int
  val is_empty : t -> bool
  val iter_elts : t -> (elt -> unit) -> unit
end
