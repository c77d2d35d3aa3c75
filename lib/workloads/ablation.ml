(** Ablations of MOD's design choices (not in the paper; indexed in
    DESIGN.md).  Each isolates one ingredient of Functional Shadowing:

    (a) {b structural sharing} -- a naive shadow-paging vector that copies
        the whole array on every update, versus the tree-based MOD vector;
    (b) {b minimal ordering} -- MOD with a fence after every clwb,
        recreating the serialized-flush regime of Section 3;
    (c) {b eager reclamation} -- CommitSingle without reference-count
        reclamation, leaving superseded versions to recovery GC. *)

(* -- (a) naive shadow vector: full copy per update ------------------------ *)

module Naive_vec = struct
  (* Version layout: a [Raw] block of [size] scalar words.  Every update
     allocates and flushes a complete copy -- classic shadow paging with
     no sharing. *)

  let create heap ~size =
    let body = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:(max 1 size) in
    for i = 0 to size - 1 do
      Pmalloc.Heap.store heap (body + i) (Pmem.Word.of_int 0)
    done;
    Pmalloc.Heap.flush_block heap body;
    Pmem.Word.of_ptr body

  let get heap version i =
    Pmalloc.Heap.load heap (Pmem.Word.to_ptr version + i)

  let set heap version ~size i w =
    let src = Pmem.Word.to_ptr version in
    let dst = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:(max 1 size) in
    for s = 0 to size - 1 do
      Pmalloc.Heap.store heap (dst + s)
        (if s = i then w else Pmalloc.Heap.load heap (src + s))
    done;
    Pmalloc.Heap.flush_block heap dst;
    Pmem.Word.of_ptr dst
end

type result = {
  label : string;
  ops : int;
  ns_total : float;
  ns_flush : float;
  fences : int;
  flushes : int;
  high_water_words : int;
}

let collect label ctx ~ops =
  let s = Backend.stats ctx in
  {
    label;
    ops;
    ns_total = s.Pmem.Stats.now_ns;
    ns_flush = s.Pmem.Stats.ns_flush;
    fences = s.Pmem.Stats.fences;
    flushes = s.Pmem.Stats.clwbs;
    high_water_words =
      Pmalloc.Allocator.high_water_words (Pmalloc.Heap.allocator (Backend.heap ctx));
  }

(* MOD tree vector vs naive full-copy shadow vector, random writes. *)
let sharing ~ops ~size =
  let tree =
    let ctx = Backend.create Backend.Mod in
    let v = Ops.vector ctx ~size in
    let rng = Backend.rng ctx in
    Backend.start_measuring ctx;
    for _ = 1 to ops do
      (* value before index (the draw-order note in Ops) *)
      let x = Random.State.int rng 1000 in
      v.write (Random.State.int rng size) x
    done;
    collect "MOD vector (structural sharing)" ctx ~ops
  in
  let naive =
    let ctx = Backend.create Backend.Mod in
    let heap = Backend.heap ctx in
    let slot = Backend.slot in
    Mod_core.Commit.single heap ~slot (Naive_vec.create heap ~size);
    let rng = Backend.rng ctx in
    Backend.start_measuring ctx;
    for _ = 1 to ops do
      let version = Pmalloc.Heap.root_get heap slot in
      let shadow =
        Naive_vec.set heap version ~size (Random.State.int rng size)
          (Pmem.Word.of_int (Random.State.int rng 1000))
      in
      Mod_core.Commit.single heap ~slot shadow
    done;
    collect "naive shadow vector (full copy)" ctx ~ops
  in
  [ tree; naive ]

(* MOD map with overlapped flushes vs one fence per flush. *)
let ordering ~ops ~size =
  let run label ~fence_per_flush =
    let ctx = Backend.create Backend.Mod in
    Pmem.Region.set_fence_per_flush
      (Pmalloc.Heap.region (Backend.heap ctx))
      fence_per_flush;
    let m = Ops.Int_map.open_ ctx ~size in
    let rng = Backend.rng ctx in
    for _ = 1 to size / 2 do
      m.insert (Random.State.int rng size) 1
    done;
    Backend.start_measuring ctx;
    for _ = 1 to ops do
      m.insert (Random.State.int rng size) 2
    done;
    collect label ctx ~ops
  in
  [
    run "MOD map (overlapped flushes)" ~fence_per_flush:false;
    run "MOD map (fence per flush)" ~fence_per_flush:true;
  ]

(* CommitSingle with and without reference-count reclamation. *)
let reclamation ~ops ~size =
  let run label ~reclaim =
    let ctx = Backend.create ~capacity_words:(1 lsl 22) Backend.Mod in
    let heap = Backend.heap ctx in
    let map = Ops.Int_map.Mod.open_or_create heap ~slot:Backend.slot in
    let rng = Backend.rng ctx in
    Backend.start_measuring ctx;
    for _ = 1 to ops do
      let k = Random.State.int rng size in
      let shadow =
        Ops.Int_map.Mod.insert_pure heap (Mod_core.Handle.current map) k k
      in
      Mod_core.Commit.single ~reclaim heap ~slot:Backend.slot shadow
    done;
    collect label ctx ~ops
  in
  [
    run "CommitSingle with reclamation" ~reclaim:true;
    run "CommitSingle without reclamation (leak until recovery)" ~reclaim:false;
  ]
