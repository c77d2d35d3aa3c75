(** MOD durable queue: {!Pfds.Pqueue} (Okasaki batched queue) under
    Functional Shadowing. *)

type t = Handle.t
type elt = Pmem.Word.t

let structure = "dqueue"
let handle t = t
let empty_version heap = Pfds.Pqueue.create heap
let enqueue_pure = Pfds.Pqueue.enqueue
let dequeue_pure = Pfds.Pqueue.dequeue
let add_pure = enqueue_pure

(* -- Backup-policy op log -------------------------------------------------- *)

let op_enqueue = 0
let op_dequeue = 1

let apply heap version ~opcode ~a0 ~a1:_ =
  match opcode with
  | 0 -> Some (Pfds.Pqueue.enqueue heap version a0)
  | 1 -> (
      match Pfds.Pqueue.dequeue heap version with
      | Some (_, shadow) -> Some shadow
      | None -> Some version)
  | _ -> None

(* A null slot gets the empty descriptor; under [Backup] the promotion
   commit anchors it. *)
let layout =
  Handle.layout ~name:"Dqueue" ~shape:"queue descriptor (2 scanned words)"
    ~words:(Some 2) ~empty:(Some empty_version) apply

let open_or_create ?persist = Handle.open_or_create layout ?persist
let open_result = Handle.open_result layout
let reconstruct = Handle.reconstruct layout

(* -- Basic interface ------------------------------------------------------ *)

let enqueue t w =
  Handle.update t ~structure ~op:"enqueue"
    ?entry:(Handle.scalar_entry op_enqueue w Pmem.Word.zero)
    (fun heap cur -> Pfds.Pqueue.enqueue heap cur w)

let dequeue t =
  Handle.take t ~structure ~op:"dequeue"
    ~entry:(op_dequeue, Pmem.Word.zero, Pmem.Word.zero)
    Pfds.Pqueue.dequeue

let enqueue_many t ws =
  Handle.many t ~structure ~op:"enqueue_many" enqueue_pure ws

let is_empty t = Pfds.Pqueue.is_empty (Handle.heap t) (Handle.current t)
let length t = Pfds.Pqueue.length (Handle.heap t) (Handle.current t)
let iter t fn = Pfds.Pqueue.iter (Handle.heap t) (Handle.current t) fn
let to_list t = Pfds.Pqueue.to_list (Handle.heap t) (Handle.current t)

(* -- Unified interface ({!Intf.DURABLE}) ---------------------------------- *)

let add = enqueue
let add_many = enqueue_many
let size = length
let size_in heap version = Pfds.Pqueue.length heap version
let iter_elts = iter
