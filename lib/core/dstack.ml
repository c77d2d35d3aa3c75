(** MOD durable stack: {!Pfds.Pstack} under Functional Shadowing.

    The version word is the list head (null = empty): push allocates one
    node, pop shares the tail, each Basic-interface operation is a
    one-fence FASE. *)

type t = Handle.t
type elt = Pmem.Word.t

let structure = "dstack"
let handle t = t
let empty_version _heap = Pfds.Pstack.empty
let push_pure = Pfds.Pstack.push
let pop_pure = Pfds.Pstack.pop
let add_pure = push_pure

(* -- Backup-policy op log -------------------------------------------------- *)

let op_push = 0
let op_pop = 1

let apply heap version ~opcode ~a0 ~a1:_ =
  match opcode with
  | 0 -> Some (Pfds.Pstack.push heap version a0)
  | 1 -> (
      match Pfds.Pstack.pop heap version with
      | Some (_, shadow) -> Some shadow
      | None -> Some version)
  | _ -> None

(* A null version is a valid (empty) stack, so opening just binds the
   slot; the first push installs the first node. *)
let layout =
  Handle.layout ~name:"Dstack" ~shape:"stack cons cell (2 scanned words)"
    ~words:(Some 2) ~empty:None apply

let open_or_create ?persist = Handle.open_or_create layout ?persist
let open_result = Handle.open_result layout
let reconstruct = Handle.reconstruct layout

(* -- Basic interface ------------------------------------------------------ *)

let push t w =
  Handle.update t ~structure ~op:"push"
    ?entry:(Handle.scalar_entry op_push w Pmem.Word.zero)
    (fun heap cur -> Pfds.Pstack.push heap cur w)

(* Pop returns the value word of the popped element; for inline scalars
   this is the value itself.  For blob-valued stacks, read the payload via
   [peek] before popping: the commit inside [pop] releases the old version
   and with it the last reference to the popped blob. *)
let pop t =
  Handle.take t ~structure ~op:"pop"
    ~entry:(op_pop, Pmem.Word.zero, Pmem.Word.zero)
    Pfds.Pstack.pop

let push_many t ws = Handle.many t ~structure ~op:"push_many" push_pure ws

let peek t =
  Handle.span t ~structure ~op:"peek" (fun () ->
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
