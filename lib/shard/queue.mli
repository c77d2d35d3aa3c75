(** Bounded per-shard request queue: one producer, FIFO consumers.

    Pops are strictly FIFO from a single end -- per-shard request order
    is a serving-layer invariant (sets to one key apply in arrival
    order), so thieves take the {e oldest} pending request rather than
    the classic deque's newest.  [push] blocks for backpressure;
    consumers poll [try_pop] and back off (no blocking pop: a blocked
    worker could not steal). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Default capacity 1024.  Raises [Invalid_argument] when < 1. *)

val push : 'a t -> 'a -> unit
(** Enqueue, blocking while full.  Raises [Invalid_argument] if the
    queue is (or becomes, while blocked) closed. *)

val try_pop : 'a t -> 'a option
(** Dequeue the oldest pending request; [None] when empty. *)

val close : 'a t -> unit
(** No further pushes; pending requests stay poppable. *)

val drained : 'a t -> bool
(** Closed with nothing pending: the consumer exit condition. *)

val length : 'a t -> int
val capacity : 'a t -> int
