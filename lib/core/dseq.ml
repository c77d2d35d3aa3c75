(** MOD durable sequence: the RRB tree ({!Pfds.Rrb}) under Functional
    Shadowing — the paper's vector structure with its full interface
    (reference [44]), including failure-atomic O(log n) concatenation and
    slicing.  Append-heavy workloads should prefer {!Dvec}, whose tail
    buffer makes push_back cheaper; [Dseq] is the general sequence. *)

type t = Handle.t
type elt = Pmem.Word.t

let structure = "dseq"
let handle t = t

(* -- Backup-policy op log -------------------------------------------------- *)

let op_push_back = 0
let op_set = 1
let op_restrict = 2

let apply heap version ~opcode ~a0 ~a1 =
  match opcode with
  | 0 -> Some (Pfds.Rrb.push_back heap version a0)
  | 1 -> Some (Pfds.Rrb.set heap version (Pmem.Word.to_int a0) a1)
  | 2 ->
      Some
        (Pfds.Rrb.slice heap version ~pos:(Pmem.Word.to_int a0)
           ~len:(Pmem.Word.to_int a1))
  | _ -> None

let empty_version heap = Pfds.Rrb.create heap

let layout =
  Handle.layout ~name:"Dseq" ~shape:"RRB descriptor (3 scanned words)"
    ~words:(Some 3) ~empty:(Some empty_version) apply

let open_or_create ?persist = Handle.open_or_create layout ?persist
let open_result = Handle.open_result layout
let reconstruct = Handle.reconstruct layout

(* -- Composition interface ------------------------------------------------ *)

let of_words_pure = Pfds.Rrb.of_words
let set_pure = Pfds.Rrb.set
let concat_pure = Pfds.Rrb.concat
let slice_pure = Pfds.Rrb.slice
let get_in = Pfds.Rrb.get
let size_in = Pfds.Rrb.size
let add_pure = Pfds.Rrb.push_back

(* -- Basic interface ------------------------------------------------------ *)

let push_back t w =
  Handle.update t ~structure ~op:"push_back"
    ?entry:(Handle.scalar_entry op_push_back w Pmem.Word.zero)
    (fun heap cur -> Pfds.Rrb.push_back heap cur w)

let set t i w =
  Handle.update t ~structure ~op:"set"
    ?entry:(Handle.scalar_entry op_set (Pmem.Word.of_int i) w)
    (fun heap cur -> Pfds.Rrb.set heap cur i w)

(* The other handle's version is not expressible in a log entry, so a
   Backup slot takes a checkpoint here. *)
let append t other =
  Handle.update t ~structure ~op:"append" (fun heap cur ->
      Pfds.Rrb.concat heap cur (Handle.current other))

let restrict t ~pos ~len =
  Handle.update t ~structure ~op:"restrict"
    ~entry:(op_restrict, Pmem.Word.of_int pos, Pmem.Word.of_int len)
    (fun heap cur -> Pfds.Rrb.slice heap cur ~pos ~len)

let push_back_many t ws =
  Handle.many t ~structure ~op:"push_back_many" add_pure ws

let get t i =
  Handle.span t ~structure ~op:"get" (fun () ->
      Pfds.Rrb.get (Handle.heap t) (Handle.current t) i)

let size t = Pfds.Rrb.size (Handle.heap t) (Handle.current t)
let is_empty t = size t = 0
let iter t fn = Pfds.Rrb.iter (Handle.heap t) (Handle.current t) fn
let to_list t = Pfds.Rrb.to_list (Handle.heap t) (Handle.current t)

(* -- Unified interface ({!Intf.DURABLE}) ---------------------------------- *)

let add = push_back
let add_many = push_back_many
let iter_elts = iter
