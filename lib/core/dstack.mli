(** MOD durable stack: {!Pfds.Pstack} under Functional Shadowing.

    The version word is the list head (null = empty): push allocates one
    node, pop shares the tail, each Basic-interface operation is a
    one-fence FASE.  [add] = [push]. *)

include Intf.DURABLE with type t = Handle.t and type elt = Pmem.Word.t

(** {1 Composition interface} *)

val push_pure : Pmalloc.Heap.t -> Pmem.Word.t -> Pmem.Word.t -> Pmem.Word.t

val pop_pure :
  Pmalloc.Heap.t -> Pmem.Word.t -> (Pmem.Word.t * Pmem.Word.t) option

(** {1 Basic interface} *)

val push : t -> Pmem.Word.t -> unit

val pop : t -> Pmem.Word.t option
(** Returns the value word of the popped element.  For blob-valued
    stacks, read the payload via [peek] before popping: the commit
    inside [pop] releases the old version and with it the last
    reference to the popped blob. *)

val push_many : t -> Pmem.Word.t list -> unit
val peek : t -> Pmem.Word.t option
val length : t -> int
val iter : t -> (Pmem.Word.t -> unit) -> unit
val to_list : t -> Pmem.Word.t list
