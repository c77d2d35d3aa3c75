(** MOD durable vector: {!Pfds.Pvec} under Functional Shadowing.

    The version word is the vector descriptor.  [swap] is the paper's
    Figure 7b multi-update FASE: two pure updates chained through an
    intermediate shadow, one CommitSingle. *)

type t = Handle.t
type elt = Pmem.Word.t

let structure = "dvec"

let span t op f =
  Pmalloc.Heap.span (Handle.heap t) ~structure ~op f

let span_n t op n f =
  Pmalloc.Heap.span (Handle.heap t) ~structure ~op ~ops:n f

let handle t = t

(* -- Backup-policy op log -------------------------------------------------- *)

let op_push_back = 0
let op_set = 1
let op_pop_back = 2
let op_swap = 3

let apply heap version ~opcode ~a0 ~a1 =
  match opcode with
  | 0 -> Pfds.Pvec.push_back heap version a0
  | 1 -> Pfds.Pvec.set heap version (Pmem.Word.to_int a0) a1
  | 2 -> snd (Pfds.Pvec.pop_back heap version)
  | 3 ->
      let i = Pmem.Word.to_int a0 and j = Pmem.Word.to_int a1 in
      let vi = Pfds.Pvec.get heap version i in
      let vj = Pfds.Pvec.get heap version j in
      let shadow = Pfds.Pvec.set heap version i vj in
      let shadow_shadow = Pfds.Pvec.set heap shadow j vi in
      Commit.release_version heap shadow;
      shadow_shadow
  | _ -> Printf.ksprintf failwith "dvec: unknown log opcode %d" opcode

let tag = Commit.layout_tag "Dvec"

let reconstruct heap ~slot =
  Commit.reconstruct heap ~slot ~tag ~apply:(apply heap)

let entry_of_elt op w =
  if Pmem.Word.is_ptr w then None else Some (op, w, Pmem.Word.of_int 0)

let empty_version heap = Pfds.Pvec.create heap

let layout =
  { Handle.name = "Dvec"; tag; shape = "vector descriptor (4 scanned words)";
    words = Some 4; empty = Some empty_version; reconstruct }

let open_or_create ?persist = Handle.open_or_create layout ?persist
let open_result = Handle.open_result layout

(* -- Composition interface ------------------------------------------------ *)

let push_back_pure = Pfds.Pvec.push_back
let set_pure = Pfds.Pvec.set
let pop_back_pure = Pfds.Pvec.pop_back
let get_in = Pfds.Pvec.get
let size_in = Pfds.Pvec.size
let add_pure = push_back_pure

(* -- Basic interface ------------------------------------------------------ *)

let push_back t w =
  span t "push_back" (fun () ->
      let heap = Handle.heap t in
      let shadow = Handle.pure t (fun cur -> Pfds.Pvec.push_back heap cur w) in
      Handle.commit ?entry:(entry_of_elt op_push_back w) t shadow)

let set t i w =
  span t "set" (fun () ->
      let heap = Handle.heap t in
      let shadow = Handle.pure t (fun cur -> Pfds.Pvec.set heap cur i w) in
      let entry =
        if Pmem.Word.is_ptr w then None else Some (op_set, Pmem.Word.of_int i, w)
      in
      Handle.commit ?entry t shadow)

let pop_back t =
  span t "pop_back" (fun () ->
      let heap = Handle.heap t in
      let v, shadow = Handle.pure t (fun cur -> Pfds.Pvec.pop_back heap cur) in
      Handle.commit
        ~entry:(op_pop_back, Pmem.Word.of_int 0, Pmem.Word.of_int 0)
        t shadow;
      v)

(* Swap two elements failure-atomically: Figure 7b.  The first update
   produces VectorPtrShadow, the second VectorPtrShadowShadow; Commit
   installs the latter and reclaims the intermediate.  Under Backup the
   whole multi-update FASE is one log entry: replay re-derives both
   element values from the version it rebuilds. *)
let swap t i j =
  span t "swap" (fun () ->
      let heap = Handle.heap t in
      let shadow, shadow_shadow =
        Handle.pure t (fun v ->
            let vi = Pfds.Pvec.get heap v i in
            let vj = Pfds.Pvec.get heap v j in
            let shadow = Pfds.Pvec.set heap v i vj in
            (shadow, Pfds.Pvec.set heap shadow j vi))
      in
      Handle.commit ~intermediates:[ shadow ]
        ~entry:(op_swap, Pmem.Word.of_int i, Pmem.Word.of_int j)
        t shadow_shadow)

(* Group commit: push N elements in one one-fence FASE, intermediate
   shadows reclaimed at the commit (the batched form of Figure 7b). *)
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
                  Pfds.Pvec.push_back heap version w))
            ws;
          ignore (Batch.commit b : Batch.commit_point))

let get t i =
  span t "get" (fun () -> Pfds.Pvec.get (Handle.heap t) (Handle.current t) i)

let size t = Pfds.Pvec.size (Handle.heap t) (Handle.current t)
let is_empty t = size t = 0
let iter t fn = Pfds.Pvec.iter (Handle.heap t) (Handle.current t) fn
let to_list t = Pfds.Pvec.to_list (Handle.heap t) (Handle.current t)

(* -- Unified interface ({!Intf.DURABLE}) ---------------------------------- *)

let add = push_back
let add_many = push_back_many
let iter_elts = iter
