(** MOD durable priority queue — a sixth datastructure produced by the
    paper's recipe (Section 4.2) from a purely functional leftist heap
    ({!Pfds.Pheap}).  [elt] is a priority; [add] = [insert].
    [iter_elts] is unordered: the leftist heap has no cheap in-order
    traversal short of draining it. *)

include Intf.DURABLE with type t = Handle.t and type elt = int

(** {1 Composition interface} *)

val insert_pure : Pmalloc.Heap.t -> Pmem.Word.t -> int -> Pmem.Word.t
val delete_min_pure : Pmalloc.Heap.t -> Pmem.Word.t -> (int * Pmem.Word.t) option

(** {1 Basic interface} *)

val insert : t -> int -> unit
val find_min : t -> int option
val delete_min : t -> int option
val insert_many : t -> int list -> unit
val cardinal : t -> int
val fold : t -> (int -> 'a -> 'a) -> 'a -> 'a
