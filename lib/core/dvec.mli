(** MOD durable vector: {!Pfds.Pvec} under Functional Shadowing.

    The version word is the vector descriptor.  [swap] is the paper's
    Figure 7b multi-update FASE: two pure updates chained through an
    intermediate shadow, one CommitSingle.  [add] = [push_back]. *)

include Intf.DURABLE with type t = Handle.t and type elt = Pmem.Word.t

(** {1 Composition interface} *)

val push_back_pure : Pmalloc.Heap.t -> Pmem.Word.t -> Pmem.Word.t -> Pmem.Word.t
val set_pure : Pmalloc.Heap.t -> Pmem.Word.t -> int -> Pmem.Word.t -> Pmem.Word.t
val pop_back_pure : Pmalloc.Heap.t -> Pmem.Word.t -> Pmem.Word.t * Pmem.Word.t
val get_in : Pmalloc.Heap.t -> Pmem.Word.t -> int -> Pmem.Word.t

(** {1 Basic interface} *)

val push_back : t -> Pmem.Word.t -> unit
val set : t -> int -> Pmem.Word.t -> unit
val pop_back : t -> Pmem.Word.t

val swap : t -> int -> int -> unit
(** Swap two elements failure-atomically: Figure 7b (one CommitSingle,
    intermediate shadow reclaimed). *)

val push_back_many : t -> Pmem.Word.t list -> unit
(** N pushes under one ordering point (group commit). *)

val get : t -> int -> Pmem.Word.t
val iter : t -> (Pmem.Word.t -> unit) -> unit
val to_list : t -> Pmem.Word.t list
