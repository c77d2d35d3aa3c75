(** MOD durable priority queue — a sixth datastructure produced by the
    paper's recipe (Section 4.2) from a purely functional leftist heap
    ({!Pfds.Pheap}).  Included to demonstrate that new MOD datastructures
    really are a recipe application: the whole module is a thin
    pure-update + CommitSingle wrapper, identical in shape to the five
    the paper ships. *)

type t = Handle.t
type elt = int

let structure = "dpqueue"

let span t op f =
  Pmalloc.Heap.span (Handle.heap t) ~structure ~op f

let span_n t op n f =
  Pmalloc.Heap.span (Handle.heap t) ~structure ~op ~ops:n f

let handle t = t
let empty_version _heap = Pfds.Pheap.empty
let insert_pure = Pfds.Pheap.insert
let delete_min_pure = Pfds.Pheap.delete_min
let add_pure = insert_pure

(* -- Backup-policy op log -------------------------------------------------- *)

let op_insert = 0
let op_delete_min = 1

let apply heap version ~opcode ~a0 ~a1 =
  ignore a1;
  match opcode with
  | 0 -> Pfds.Pheap.insert heap version (Pmem.Word.to_int a0)
  | 1 -> (
      match Pfds.Pheap.delete_min heap version with
      | Some (_, shadow) -> shadow
      | None -> version)
  | _ -> Printf.ksprintf failwith "dpqueue: unknown log opcode %d" opcode

let tag = Commit.layout_tag "Dpqueue"

let reconstruct heap ~slot =
  Commit.reconstruct heap ~slot ~tag ~apply:(apply heap)

(* A null version is a valid (empty) heap. *)
let layout =
  { Handle.name = "Dpqueue"; tag; shape = "leftist-heap node (4 scanned words)";
    words = Some 4; empty = None; reconstruct }

let open_or_create ?persist = Handle.open_or_create layout ?persist
let open_result = Handle.open_result layout

let insert t p =
  span t "insert" (fun () ->
      let heap = Handle.heap t in
      let shadow = Handle.pure t (fun cur -> Pfds.Pheap.insert heap cur p) in
      Handle.commit ~entry:(op_insert, Pmem.Word.of_int p, Pmem.Word.of_int 0) t
        shadow)

let find_min t =
  span t "find_min" (fun () ->
      Pfds.Pheap.find_min (Handle.heap t) (Handle.current t))

let delete_min t =
  span t "delete_min" (fun () ->
      let heap = Handle.heap t in
      match Handle.pure t (fun cur -> Pfds.Pheap.delete_min heap cur) with
      | None -> None
      | Some (p, shadow) ->
          Handle.commit
            ~entry:(op_delete_min, Pmem.Word.of_int 0, Pmem.Word.of_int 0)
            t shadow;
          Some p)

(* Group commit: insert N priorities in one one-fence FASE. *)
let insert_many t ps =
  match ps with
  | [] -> ()
  | _ ->
      span_n t "insert_many" (List.length ps) (fun () ->
          let heap = Handle.heap t in
          let b = Batch.create heap in
          List.iter
            (fun p ->
              Batch.stage b ~slot:(Handle.slot t) (fun version ->
                  Pfds.Pheap.insert heap version p))
            ps;
          ignore (Batch.commit b : Batch.commit_point))

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
