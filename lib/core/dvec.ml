(** MOD durable vector: {!Pfds.Pvec} under Functional Shadowing.

    The version word is the vector descriptor.  [swap] is the paper's
    Figure 7b multi-update FASE: two pure updates chained through an
    intermediate shadow, one CommitSingle. *)

type t = Handle.t
type elt = Pmem.Word.t

let structure = "dvec"
let handle t = t

(* Figure 7b's two chained updates: the first produces VectorPtrShadow,
   the second VectorPtrShadowShadow. *)
let swap_pure heap v i j =
  let vi = Pfds.Pvec.get heap v i in
  let vj = Pfds.Pvec.get heap v j in
  let shadow = Pfds.Pvec.set heap v i vj in
  (shadow, Pfds.Pvec.set heap shadow j vi)

(* -- Backup-policy op log -------------------------------------------------- *)

let op_push_back = 0
let op_set = 1
let op_pop_back = 2
let op_swap = 3

let apply heap version ~opcode ~a0 ~a1 =
  match opcode with
  | 0 -> Some (Pfds.Pvec.push_back heap version a0)
  | 1 -> Some (Pfds.Pvec.set heap version (Pmem.Word.to_int a0) a1)
  | 2 -> Some (snd (Pfds.Pvec.pop_back heap version))
  | 3 ->
      let shadow, shadow_shadow =
        swap_pure heap version (Pmem.Word.to_int a0) (Pmem.Word.to_int a1)
      in
      Commit.release_version heap shadow;
      Some shadow_shadow
  | _ -> None

let empty_version heap = Pfds.Pvec.create heap

let layout =
  Handle.layout ~name:"Dvec" ~shape:"vector descriptor (4 scanned words)"
    ~words:(Some 4) ~empty:(Some empty_version) apply

let open_or_create ?persist = Handle.open_or_create layout ?persist
let open_result = Handle.open_result layout
let reconstruct = Handle.reconstruct layout

(* -- Composition interface ------------------------------------------------ *)

let push_back_pure = Pfds.Pvec.push_back
let set_pure = Pfds.Pvec.set
let pop_back_pure = Pfds.Pvec.pop_back
let get_in = Pfds.Pvec.get
let size_in = Pfds.Pvec.size
let add_pure = push_back_pure

(* -- Basic interface ------------------------------------------------------ *)

let push_back t w =
  Handle.update t ~structure ~op:"push_back"
    ?entry:(Handle.scalar_entry op_push_back w Pmem.Word.zero)
    (fun heap cur -> Pfds.Pvec.push_back heap cur w)

let set t i w =
  Handle.update t ~structure ~op:"set"
    ?entry:(Handle.scalar_entry op_set (Pmem.Word.of_int i) w)
    (fun heap cur -> Pfds.Pvec.set heap cur i w)

let pop_back t =
  Option.get
    (Handle.take t ~structure ~op:"pop_back"
       ~entry:(op_pop_back, Pmem.Word.zero, Pmem.Word.zero)
       (fun heap cur -> Some (Pfds.Pvec.pop_back heap cur)))

(* Commit installs VectorPtrShadowShadow and reclaims the intermediate.
   Under Backup the whole multi-update FASE is one log entry: replay
   re-derives both element values from the version it rebuilds. *)
let swap t i j =
  Handle.span t ~structure ~op:"swap" (fun () ->
      let shadow, shadow_shadow =
        Handle.pure t (fun heap v -> swap_pure heap v i j)
      in
      Handle.commit ~intermediates:[ shadow ]
        ~entry:(op_swap, Pmem.Word.of_int i, Pmem.Word.of_int j)
        t shadow_shadow)

(* The batched form of Figure 7b: intermediate shadows are reclaimed at
   the commit. *)
let push_back_many t ws =
  Handle.many t ~structure ~op:"push_back_many" push_back_pure ws

let get t i =
  Handle.span t ~structure ~op:"get" (fun () ->
      Pfds.Pvec.get (Handle.heap t) (Handle.current t) i)

let size t = Pfds.Pvec.size (Handle.heap t) (Handle.current t)
let is_empty t = size t = 0
let iter t fn = Pfds.Pvec.iter (Handle.heap t) (Handle.current t) fn
let to_list t = Pfds.Pvec.to_list (Handle.heap t) (Handle.current t)

(* -- Unified interface ({!Intf.DURABLE}) ---------------------------------- *)

let add = push_back
let add_many = push_back_many
let iter_elts = iter
