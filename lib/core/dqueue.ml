(** MOD durable queue: {!Pfds.Pqueue} (Okasaki batched queue) under
    Functional Shadowing. *)

type t = Handle.t
type elt = Pmem.Word.t

let structure = "dqueue"

let span t op f =
  Pmalloc.Heap.span (Handle.heap t) ~structure ~op f

let span_n t op n f =
  Pmalloc.Heap.span (Handle.heap t) ~structure ~op ~ops:n f

let handle t = t
let empty_version heap = Pfds.Pqueue.create heap
let enqueue_pure = Pfds.Pqueue.enqueue
let dequeue_pure = Pfds.Pqueue.dequeue
let add_pure = enqueue_pure

(* -- Backup-policy op log -------------------------------------------------- *)

let op_enqueue = 0
let op_dequeue = 1

let apply heap version ~opcode ~a0 ~a1 =
  ignore a1;
  match opcode with
  | 0 -> Pfds.Pqueue.enqueue heap version a0
  | 1 -> (
      match Pfds.Pqueue.dequeue heap version with
      | Some (_, shadow) -> shadow
      | None -> version)
  | _ -> Printf.ksprintf failwith "dqueue: unknown log opcode %d" opcode

let tag = Commit.layout_tag "Dqueue"

let reconstruct heap ~slot =
  Commit.reconstruct heap ~slot ~tag ~apply:(apply heap)

let entry_of_elt op w =
  if Pmem.Word.is_ptr w then None else Some (op, w, Pmem.Word.of_int 0)

(* A null slot gets the empty descriptor; under [Backup] the promotion
   commit anchors it. *)
let layout =
  { Handle.name = "Dqueue"; tag; shape = "queue descriptor (2 scanned words)";
    words = Some 2; empty = Some empty_version; reconstruct }

let open_or_create ?persist = Handle.open_or_create layout ?persist
let open_result = Handle.open_result layout

let enqueue t w =
  span t "enqueue" (fun () ->
      let heap = Handle.heap t in
      let shadow = Handle.pure t (fun cur -> Pfds.Pqueue.enqueue heap cur w) in
      Handle.commit ?entry:(entry_of_elt op_enqueue w) t shadow)

let dequeue t =
  span t "dequeue" (fun () ->
      let heap = Handle.heap t in
      match Handle.pure t (fun cur -> Pfds.Pqueue.dequeue heap cur) with
      | None -> None
      | Some (v, shadow) ->
          Handle.commit
            ~entry:(op_dequeue, Pmem.Word.of_int 0, Pmem.Word.of_int 0)
            t shadow;
          Some v)

(* Group commit: enqueue N elements in one one-fence FASE. *)
let enqueue_many t ws =
  match ws with
  | [] -> ()
  | _ ->
      span_n t "enqueue_many" (List.length ws) (fun () ->
          let heap = Handle.heap t in
          let b = Batch.create heap in
          List.iter
            (fun w ->
              Batch.stage b ~slot:(Handle.slot t) (fun version ->
                  Pfds.Pqueue.enqueue heap version w))
            ws;
          ignore (Batch.commit b : Batch.commit_point))

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
