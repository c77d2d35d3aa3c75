(** MOD durable queue: {!Pfds.Pqueue} (Okasaki batched queue) under
    Functional Shadowing.  [add] = [enqueue]. *)

include Intf.DURABLE with type t = Handle.t and type elt = Pmem.Word.t

(** {1 Composition interface} *)

val enqueue_pure : Pmalloc.Heap.t -> Pmem.Word.t -> Pmem.Word.t -> Pmem.Word.t

val dequeue_pure :
  Pmalloc.Heap.t -> Pmem.Word.t -> (Pmem.Word.t * Pmem.Word.t) option

(** {1 Basic interface} *)

val enqueue : t -> Pmem.Word.t -> unit
val dequeue : t -> Pmem.Word.t option
val enqueue_many : t -> Pmem.Word.t list -> unit
val length : t -> int
val iter : t -> (Pmem.Word.t -> unit) -> unit
val to_list : t -> Pmem.Word.t list
