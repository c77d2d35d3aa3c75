(** MOD durable priority queue — a sixth datastructure produced by the
    paper's recipe (Section 4.2) from a purely functional leftist heap
    ({!Pfds.Pheap}).  Included to demonstrate that new MOD datastructures
    really are a recipe application: the module holds the pure
    operations, the log opcodes with their replay, and one {!Handle}
    call per Basic entry point. *)

type t = Handle.t
type elt = int

let structure = "dpqueue"
let handle t = t
let empty_version _heap = Pfds.Pheap.empty
let insert_pure = Pfds.Pheap.insert
let delete_min_pure = Pfds.Pheap.delete_min
let add_pure = insert_pure

(* -- Backup-policy op log -------------------------------------------------- *)

let op_insert = 0
let op_delete_min = 1

let apply heap version ~opcode ~a0 ~a1:_ =
  match opcode with
  | 0 -> Some (Pfds.Pheap.insert heap version (Pmem.Word.to_int a0))
  | 1 -> (
      match Pfds.Pheap.delete_min heap version with
      | Some (_, shadow) -> Some shadow
      | None -> Some version)
  | _ -> None

(* A null version is a valid (empty) heap. *)
let layout =
  Handle.layout ~name:"Dpqueue" ~shape:"leftist-heap node (4 scanned words)"
    ~words:(Some 4) ~empty:None apply

let open_or_create ?persist = Handle.open_or_create layout ?persist
let open_result = Handle.open_result layout
let reconstruct = Handle.reconstruct layout

(* -- Basic interface ------------------------------------------------------ *)

let insert t p =
  Handle.update t ~structure ~op:"insert"
    ~entry:(op_insert, Pmem.Word.of_int p, Pmem.Word.zero)
    (fun heap cur -> Pfds.Pheap.insert heap cur p)

let find_min t =
  Handle.span t ~structure ~op:"find_min" (fun () ->
      Pfds.Pheap.find_min (Handle.heap t) (Handle.current t))

let delete_min t =
  Handle.take t ~structure ~op:"delete_min"
    ~entry:(op_delete_min, Pmem.Word.zero, Pmem.Word.zero)
    Pfds.Pheap.delete_min

let insert_many t ps = Handle.many t ~structure ~op:"insert_many" insert_pure ps
let is_empty t = Pfds.Pheap.is_empty (Handle.current t)
let cardinal t = Pfds.Pheap.cardinal (Handle.heap t) (Handle.current t)
let fold t fn acc = Pfds.Pheap.fold (Handle.heap t) (Handle.current t) fn acc

(* -- Unified interface ({!Intf.DURABLE}) ---------------------------------- *)

let add = insert
let add_many = insert_many
let size = cardinal
let size_in heap version = Pfds.Pheap.cardinal heap version

(* Unordered: the leftist heap has no cheap in-order traversal short of
   draining it. *)
let iter_elts t fn = fold t (fun p () -> fn p) ()
