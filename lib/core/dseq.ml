(** MOD durable sequence: the RRB tree ({!Pfds.Rrb}) under Functional
    Shadowing — the paper's vector structure with its full interface
    (reference [44]), including failure-atomic O(log n) concatenation and
    slicing.  Append-heavy workloads should prefer {!Dvec}, whose tail
    buffer makes push_back cheaper; [Dseq] is the general sequence. *)

type t = Handle.t
type elt = Pmem.Word.t

let structure = "dseq"

let span t op f =
  Pmalloc.Heap.span (Handle.heap t) ~structure ~op f

let span_n t op n f =
  Pmalloc.Heap.span (Handle.heap t) ~structure ~op ~ops:n f

let handle t = t

(* -- Backup-policy op log -------------------------------------------------- *)

let op_push_back = 0
let op_set = 1
let op_restrict = 2

let apply heap version ~opcode ~a0 ~a1 =
  match opcode with
  | 0 -> Pfds.Rrb.push_back heap version a0
  | 1 -> Pfds.Rrb.set heap version (Pmem.Word.to_int a0) a1
  | 2 ->
      Pfds.Rrb.slice heap version ~pos:(Pmem.Word.to_int a0)
        ~len:(Pmem.Word.to_int a1)
  | _ -> Printf.ksprintf failwith "dseq: unknown log opcode %d" opcode

let tag = Commit.layout_tag "Dseq"

let reconstruct heap ~slot =
  Commit.reconstruct heap ~slot ~tag ~apply:(apply heap)

let entry_of_elt op w =
  if Pmem.Word.is_ptr w then None else Some (op, w, Pmem.Word.of_int 0)

let empty_version heap = Pfds.Rrb.create heap

let layout =
  { Handle.name = "Dseq"; tag; shape = "RRB descriptor (3 scanned words)";
    words = Some 3; empty = Some empty_version; reconstruct }

let open_or_create ?persist = Handle.open_or_create layout ?persist
let open_result = Handle.open_result layout

(* -- Composition interface ------------------------------------------------ *)

let of_words_pure = Pfds.Rrb.of_words
let set_pure = Pfds.Rrb.set
let concat_pure = Pfds.Rrb.concat
let slice_pure = Pfds.Rrb.slice
let get_in = Pfds.Rrb.get
let size_in = Pfds.Rrb.size
let add_pure heap version w = Pfds.Rrb.push_back heap version w

(* -- Basic interface ------------------------------------------------------ *)

let push_back t w =
  span t "push_back" (fun () ->
      let heap = Handle.heap t in
      let shadow = Handle.pure t (fun cur -> Pfds.Rrb.push_back heap cur w) in
      Handle.commit ?entry:(entry_of_elt op_push_back w) t shadow)

let set t i w =
  span t "set" (fun () ->
      let heap = Handle.heap t in
      let shadow = Handle.pure t (fun cur -> Pfds.Rrb.set heap cur i w) in
      let entry =
        if Pmem.Word.is_ptr w then None else Some (op_set, Pmem.Word.of_int i, w)
      in
      Handle.commit ?entry t shadow)

(* Append another durable sequence's current contents, failure-atomically.
   The other handle's version is not expressible in a log entry, so a
   Backup slot takes a checkpoint here. *)
let append t other =
  span t "append" (fun () ->
      let heap = Handle.heap t in
      let shadow =
        Handle.pure t (fun cur ->
            Pfds.Rrb.concat heap cur (Handle.current other))
      in
      Handle.commit t shadow)

(* Keep only [pos, pos+len), failure-atomically. *)
let restrict t ~pos ~len =
  span t "restrict" (fun () ->
      let heap = Handle.heap t in
      let shadow =
        Handle.pure t (fun cur -> Pfds.Rrb.slice heap cur ~pos ~len)
      in
      Handle.commit
        ~entry:(op_restrict, Pmem.Word.of_int pos, Pmem.Word.of_int len)
        t shadow)

(* Group commit: push N elements in one one-fence FASE. *)
let push_back_many t ws =
  match ws with
  | [] -> ()
  | _ ->
      span_n t "push_back_many" (List.length ws) (fun () ->
          let heap = Handle.heap t in
          let b = Batch.create heap in
          List.iter
            (fun w ->
              Batch.stage b ~slot:(Handle.slot t) (fun version ->
                  Pfds.Rrb.push_back heap version w))
            ws;
          ignore (Batch.commit b : Batch.commit_point))

let get t i =
  span t "get" (fun () -> Pfds.Rrb.get (Handle.heap t) (Handle.current t) i)

let size t = Pfds.Rrb.size (Handle.heap t) (Handle.current t)
let is_empty t = size t = 0
let iter t fn = Pfds.Rrb.iter (Handle.heap t) (Handle.current t) fn
let to_list t = Pfds.Rrb.to_list (Handle.heap t) (Handle.current t)

(* -- Unified interface ({!Intf.DURABLE}) ---------------------------------- *)

let add = push_back
let add_many = push_back_many
let iter_elts = iter
