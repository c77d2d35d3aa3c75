(** MOD durable sequence: the RRB tree ({!Pfds.Rrb}) under Functional
    Shadowing — the paper's vector structure with its full interface
    (reference [44]), including failure-atomic O(log n) concatenation and
    slicing.  Append-heavy workloads should prefer {!Dvec}, whose tail
    buffer makes push_back cheaper; [Dseq] is the general sequence.
    [add] = [push_back]. *)

include Intf.DURABLE with type t = Handle.t and type elt = Pmem.Word.t

(** {1 Composition interface} *)

val of_words_pure : Pmalloc.Heap.t -> Pmem.Word.t list -> Pmem.Word.t
val set_pure : Pmalloc.Heap.t -> Pmem.Word.t -> int -> Pmem.Word.t -> Pmem.Word.t

val concat_pure : Pmalloc.Heap.t -> Pmem.Word.t -> Pmem.Word.t -> Pmem.Word.t

val slice_pure :
  Pmalloc.Heap.t -> Pmem.Word.t -> pos:int -> len:int -> Pmem.Word.t

val get_in : Pmalloc.Heap.t -> Pmem.Word.t -> int -> Pmem.Word.t

(** {1 Basic interface} *)

val push_back : t -> Pmem.Word.t -> unit
val set : t -> int -> Pmem.Word.t -> unit

val append : t -> t -> unit
(** Append another durable sequence's current contents,
    failure-atomically. *)

val restrict : t -> pos:int -> len:int -> unit
(** Keep only [pos, pos+len), failure-atomically. *)

val push_back_many : t -> Pmem.Word.t list -> unit
val get : t -> int -> Pmem.Word.t
val iter : t -> (Pmem.Word.t -> unit) -> unit
val to_list : t -> Pmem.Word.t list
