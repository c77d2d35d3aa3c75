(* Bounded per-shard request queue.

   One producer (the front-end router) pushes, the owning worker and any
   thieves pop.  Pops are strictly FIFO: per-shard request order is an
   invariant the serving layer relies on (two sets to one key must apply
   in arrival order no matter which domain executes them), so there is
   no LIFO thief end -- a thief takes the oldest pending request, under
   the victim's heap lock (see Shard).  [push] applies backpressure by
   blocking while the ring is full; consumers never block (OCaml's
   [Condition] has no timed wait, and a blocked worker could not steal),
   they poll [try_pop] and back off. *)

type 'a t = {
  buf : 'a option array;
  cap : int;
  mutable head : int;  (* absolute index of the next pop *)
  mutable tail : int;  (* absolute index of the next push *)
  mutable closed : bool;
  lock : Mutex.t;
  not_full : Condition.t;
}

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Queue.create: capacity must be >= 1";
  {
    buf = Array.make capacity None;
    cap = capacity;
    head = 0;
    tail = 0;
    closed = false;
    lock = Mutex.create ();
    not_full = Condition.create ();
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = with_lock t (fun () -> t.tail - t.head)
let capacity t = t.cap

let push t x =
  with_lock t (fun () ->
      while t.tail - t.head >= t.cap && not t.closed do
        Condition.wait t.not_full t.lock
      done;
      if t.closed then invalid_arg "Queue.push: closed";
      t.buf.(t.tail mod t.cap) <- Some x;
      t.tail <- t.tail + 1)

let try_pop t =
  with_lock t (fun () ->
      if t.head >= t.tail then None
      else begin
        let i = t.head mod t.cap in
        let x = t.buf.(i) in
        t.buf.(i) <- None;
        t.head <- t.head + 1;
        Condition.signal t.not_full;
        x
      end)

(* drained = nothing pending and nothing will ever arrive: the worker
   exit condition (checked across every queue it could steal from). *)
let drained t = with_lock t (fun () -> t.closed && t.head >= t.tail)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.not_full)
