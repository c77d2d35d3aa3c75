(** MOD durable stack: {!Pfds.Pstack} under Functional Shadowing.

    The version word is the list head (null = empty): push allocates one
    node, pop shares the tail, each Basic-interface operation is a
    one-fence FASE. *)

type t = Handle.t
type elt = Pmem.Word.t

let structure = "dstack"

let span t op f =
  Pmalloc.Heap.span (Handle.heap t) ~structure ~op f

let span_n t op n f =
  Pmalloc.Heap.span (Handle.heap t) ~structure ~op ~ops:n f

let handle t = t
let empty_version _heap = Pfds.Pstack.empty
let push_pure = Pfds.Pstack.push
let pop_pure = Pfds.Pstack.pop
let add_pure = push_pure

(* -- Backup-policy op log -------------------------------------------------- *)

let op_push = 0
let op_pop = 1

let apply heap version ~opcode ~a0 ~a1 =
  ignore a1;
  match opcode with
  | 0 -> Pfds.Pstack.push heap version a0
  | 1 -> (
      match Pfds.Pstack.pop heap version with
      | Some (_, shadow) -> shadow
      | None -> version)
  | _ -> Printf.ksprintf failwith "dstack: unknown log opcode %d" opcode

let tag = Commit.layout_tag "Dstack"

let reconstruct heap ~slot =
  Commit.reconstruct heap ~slot ~tag ~apply:(apply heap)

(* Only scalar elements can ride in a log entry; a pointer-valued push
   (blob element) forces a checkpoint instead. *)
let entry_of_elt op w =
  if Pmem.Word.is_ptr w then None else Some (op, w, Pmem.Word.of_int 0)

(* A null version is a valid (empty) stack, so opening just binds the
   slot; the first push installs the first node. *)
let layout =
  { Handle.name = "Dstack"; tag; shape = "stack cons cell (2 scanned words)";
    words = Some 2; empty = None; reconstruct }

let open_or_create ?persist = Handle.open_or_create layout ?persist
let open_result = Handle.open_result layout

let push t w =
  span t "push" (fun () ->
      let heap = Handle.heap t in
      let shadow = Handle.pure t (fun cur -> Pfds.Pstack.push heap cur w) in
      Handle.commit ?entry:(entry_of_elt op_push w) t shadow)

(* Pop returns the value word of the popped element; for inline scalars
   this is the value itself.  For blob-valued stacks, read the payload via
   [peek] before popping: the commit inside [pop] releases the old version
   and with it the last reference to the popped blob. *)
let pop t =
  span t "pop" (fun () ->
      let heap = Handle.heap t in
      match Handle.pure t (fun cur -> Pfds.Pstack.pop heap cur) with
      | None -> None
      | Some (v, shadow) ->
          Handle.commit ~entry:(op_pop, Pmem.Word.of_int 0, Pmem.Word.of_int 0)
            t shadow;
          Some v)

(* Group commit: push N elements in one one-fence FASE. *)
let push_many t ws =
  match ws with
  | [] -> ()
  | _ ->
      span_n t "push_many" (List.length ws) (fun () ->
          let heap = Handle.heap t in
          let b = Batch.create heap in
          List.iter
            (fun w ->
              Batch.stage b ~slot:(Handle.slot t) (fun version ->
                  Pfds.Pstack.push heap version w))
            ws;
          ignore (Batch.commit b : Batch.commit_point))

let peek t =
  span t "peek" (fun () ->
      Pfds.Pstack.peek (Handle.heap t) (Handle.current t))

let is_empty t = Pfds.Pstack.is_empty (Handle.current t)
let length t = Pfds.Pstack.length (Handle.heap t) (Handle.current t)
let iter t fn = Pfds.Pstack.iter (Handle.heap t) (Handle.current t) fn
let to_list t = Pfds.Pstack.to_list (Handle.heap t) (Handle.current t)

(* -- Unified interface ({!Intf.DURABLE}) ---------------------------------- *)

let add = push
let add_many = push_many
let size = length
let size_in heap version = Pfds.Pstack.length heap version
let iter_elts = iter
