(** MOD durable set: a {!Dmap} with unit values (the paper's set shares
    the map's CHAMP implementation the same way).  [elt] is a key. *)

module Make (K : Pfds.Kv.CODEC) : sig
  include Intf.DURABLE with type t = Handle.t and type elt = K.t

  (** {1 Composition interface} *)

  val remove_pure : Pmalloc.Heap.t -> Pmem.Word.t -> K.t -> Pmem.Word.t * bool
  val mem_in : Pmalloc.Heap.t -> Pmem.Word.t -> K.t -> bool

  (** {1 Basic interface} *)

  val remove : t -> K.t -> bool
  val mem : t -> K.t -> bool
  val cardinal : t -> int
  val iter : t -> (K.t -> unit) -> unit
  val fold : t -> (K.t -> 'a -> 'a) -> 'a -> 'a
end
