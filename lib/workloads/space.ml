(** Memory-consumption study (Table 3): the ratio of memory consumed by a
    datastructure holding 2N elements to one holding N elements, for the
    MOD and PMDK implementations of each structure.

    The paper's N is 1 million; N is a parameter here.  "Memory consumed"
    is the live footprint reported by the allocator (headers included)
    after building the structure, with per-update shadow garbage already
    reclaimed by CommitSingle -- plus the per-update shadow overhead
    reported separately, which is the paper's "0.00002-0.00004x extra
    memory per update" claim. *)

type row = {
  structure : string;
  backend : Backend.kind;
  words_at_n : int;
  words_at_2n : int;
  ratio : float;
}

let live ctx = Pmalloc.Allocator.live_words (Pmalloc.Heap.allocator (Backend.heap ctx))

(* Build to N elements, snapshot, continue to 2N, snapshot.  The footprint
   is measured relative to the post-create baseline so backend machinery
   (the PMDK undo log block) is not charged to the datastructure.
   [open_] opens the structure and returns its insert. *)
let grow structure backend ~n open_ =
  let ctx = Backend.create ~capacity_words:(1 lsl 22) backend in
  let base =
    match backend with
    | Backend.Mod -> 0
    | Backend.Pmdk14 | Backend.Pmdk15 ->
        ignore (Backend.tx ctx : Pmstm.Tx.t);
        live ctx
  in
  let insert = open_ ctx in
  for i = 1 to n do
    insert i
  done;
  let words_at_n = live ctx - base in
  for i = n + 1 to 2 * n do
    insert i
  done;
  let words_at_2n = live ctx - base in
  {
    structure;
    backend;
    words_at_n;
    words_at_2n;
    ratio = float_of_int words_at_2n /. float_of_int (max 1 words_at_n);
  }

let rows backend ~n =
  [
    grow "map" backend ~n (fun ctx ->
        let m = Ops.Int_map.open_ ctx ~size:(2 * n) in
        fun i -> m.insert i i);
    grow "set" backend ~n (fun ctx ->
        let s = Ops.Int_set.open_ ctx ~size:(2 * n) in
        fun i -> s.insert i ());
    grow "stack" backend ~n (fun ctx -> (Ops.stack ctx).push);
    grow "queue" backend ~n (fun ctx -> (Ops.queue ctx).push);
    grow "vector" backend ~n (fun ctx -> (Ops.vector ctx ~size:1).push_back);
  ]

(* Per-update shadow overhead: extra words a single insert allocates
   transiently, relative to the structure's size (the <0.01% claim). *)
let shadow_overhead ~n =
  let ctx = Backend.create ~capacity_words:(1 lsl 22) Backend.Mod in
  let m = Ops.Int_map.open_ ctx ~size:(2 * n) in
  for i = 1 to n do
    m.insert i i
  done;
  let before = live ctx in
  let alloc = Pmalloc.Heap.allocator (Backend.heap ctx) in
  let hw_before = Pmalloc.Allocator.high_water_words alloc in
  m.insert (n + 1) 0;
  let hw_after = Pmalloc.Allocator.high_water_words alloc in
  let transient = max (hw_after - hw_before) 0 in
  (transient, before)

let table3 ?(n = 10_000) () =
  List.concat_map (fun backend -> rows backend ~n)
    [ Backend.Mod; Backend.Pmdk15 ]
