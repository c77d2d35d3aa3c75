(* Unit and property tests for the persistent allocator, heap and
   recovery GC. *)

let mk_heap ?(capacity = 1 lsl 16) ?(trace = false) () =
  Pmalloc.Heap.create ~capacity_words:capacity ~trace ()

let alloc_tests =
  [
    Alcotest.test_case "alloc returns distinct blocks" `Quick (fun () ->
        let heap = mk_heap () in
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:4 in
        let b = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:4 in
        Alcotest.(check bool) "distinct" true (a <> b));
    Alcotest.test_case "block metadata round-trips" `Quick (fun () ->
        let heap = mk_heap () in
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:10 in
        let alloc = Pmalloc.Heap.allocator heap in
        Alcotest.(check int) "used" 10 (Pmalloc.Allocator.used_of alloc a);
        Alcotest.(check bool)
          "raw kind" true
          (Pmalloc.Allocator.kind_of alloc a = Pmalloc.Block.Raw);
        Alcotest.(check bool)
          "capacity >= used+header" true
          (Pmalloc.Allocator.capacity_of alloc a
          >= 10 + Pmalloc.Block.header_words));
    Alcotest.test_case "free then alloc reuses memory" `Quick (fun () ->
        let heap = mk_heap () in
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:6 in
        Pmalloc.Heap.free heap a;
        let b = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:6 in
        Alcotest.(check int) "same block back" a b);
    Alcotest.test_case "a warm alloc/free cycle allocates one clock box"
      `Quick (fun () ->
        (* the header store's [now_ns] box, 2 words; an arena take that
           returned an option would add 2 *)
        let heap = mk_heap () in
        let cycle () =
          Pmalloc.Heap.free heap
            (Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:4)
        in
        cycle ();
        let n = 10_000 in
        let before = Gc.minor_words () in
        for _ = 1 to n do
          cycle ()
        done;
        let per = (Gc.minor_words () -. before) /. float_of_int n in
        if per > 2. then
          Alcotest.failf "an alloc/free cycle allocated %.2f words" per);
    Alcotest.test_case "double free raises" `Quick (fun () ->
        let heap = mk_heap () in
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:4 in
        Pmalloc.Heap.free heap a;
        Alcotest.(check bool)
          "raises" true
          (try
             Pmalloc.Heap.free heap a;
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "live accounting" `Quick (fun () ->
        let heap = mk_heap () in
        let alloc = Pmalloc.Heap.allocator heap in
        let before = Pmalloc.Allocator.live_words alloc in
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:6 in
        let mid = Pmalloc.Allocator.live_words alloc in
        Alcotest.(check bool) "grew" true (mid > before);
        Pmalloc.Heap.free heap a;
        Alcotest.(check int) "restored" before (Pmalloc.Allocator.live_words alloc));
    Alcotest.test_case "large blocks split and reuse" `Quick (fun () ->
        let heap = mk_heap () in
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:500 in
        Pmalloc.Heap.free heap a;
        let b = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:100 in
        let c = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:100 in
        (* both carved out of the freed 500-word block *)
        let top = a + 500 in
        Alcotest.(check bool) "b inside" true (b >= a - 2 && b < top);
        Alcotest.(check bool) "c inside" true (c >= a - 2 && c < top));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"allocations never overlap (qcheck)" ~count:50
         QCheck.(list_of_size (Gen.int_range 1 60) (int_range 1 80))
         (fun sizes ->
           let heap = mk_heap ~capacity:(1 lsl 18) () in
           let alloc = Pmalloc.Heap.allocator heap in
           let blocks =
             List.map
               (fun w -> (Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:w, w))
               sizes
           in
           (* extents [header, header+capacity) must be pairwise disjoint *)
           let extents =
             List.map
               (fun (body, _) ->
                 let h = Pmalloc.Block.header_of_body body in
                 (h, h + Pmalloc.Allocator.capacity_of alloc body))
               blocks
           in
           let sorted = List.sort compare extents in
           let rec disjoint = function
             | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && disjoint rest
             | _ -> true
           in
           disjoint sorted));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"free/alloc churn preserves contents (qcheck)"
         ~count:30
         QCheck.(small_list (int_range 1 40))
         (fun sizes ->
           let heap = mk_heap ~capacity:(1 lsl 18) () in
           (* write a signature into each block, free every other one,
              re-allocate, and confirm survivors are intact *)
           let blocks =
             List.mapi
               (fun i w ->
                 let b = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:w in
                 Pmalloc.Heap.store heap b (Pmem.Word.of_int (i + 1000));
                 (i, b, w))
               sizes
           in
           List.iter
             (fun (i, b, _) -> if i mod 2 = 0 then Pmalloc.Heap.free heap b)
             blocks;
           List.for_all
             (fun (i, b, _) ->
               i mod 2 = 0
               || Pmem.Word.to_int (Pmalloc.Heap.load heap b) = i + 1000)
             blocks));
  ]

(* Regression (allocator dealloc order): freeing a body that is not live
   must raise -- and must raise *before* any header decode can poison the
   accounting.  The old dealloc decoded the header word first, so a stale
   body whose block had been freed, re-split and overwritten subtracted a
   garbage capacity from [live_words] before the double-free check fired. *)
let dealloc_order_tests =
  [
    Alcotest.test_case "stale free leaves accounting intact" `Quick (fun () ->
        let heap = mk_heap () in
        let alloc = Pmalloc.Heap.allocator heap in
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:40 in
        Pmalloc.Heap.free heap a;
        (* recycle the extent as two smaller blocks: [a]'s old header word
           now holds a different block's metadata (or plain payload) *)
        let b = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:12 in
        let c = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:12 in
        List.iter
          (fun off -> Pmalloc.Heap.store heap off (Pmem.Word.of_int 0x5A5A))
          [ b; c ];
        let live = Pmalloc.Allocator.live_words alloc in
        let free = Pmalloc.Allocator.free_words alloc in
        Alcotest.(check bool)
          "stale free raises" true
          (try
             Pmalloc.Heap.free heap a;
             false
           with Invalid_argument _ -> true);
        Alcotest.(check int) "live words untouched" live
          (Pmalloc.Allocator.live_words alloc);
        Alcotest.(check int) "free words untouched" free
          (Pmalloc.Allocator.free_words alloc);
        (* the two live blocks are still sound *)
        Alcotest.(check int) "b intact" 0x5A5A
          (Pmem.Word.to_int (Pmalloc.Heap.load heap b));
        Alcotest.(check int) "b used" 12 (Pmalloc.Allocator.used_of alloc b));
    Alcotest.test_case "free of a never-allocated body raises" `Quick
      (fun () ->
        let heap = mk_heap () in
        let alloc = Pmalloc.Heap.allocator heap in
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:16 in
        let live = Pmalloc.Allocator.live_words alloc in
        Alcotest.(check bool)
          "interior offset raises" true
          (try
             Pmalloc.Heap.free heap (a + 3);
             false
           with Invalid_argument _ -> true);
        Alcotest.(check int) "accounting intact" live
          (Pmalloc.Allocator.live_words alloc));
  ]

(* Coalescing (freelist fragmentation): a freed split tail must re-fuse
   with its physical neighbors so the original extent is allocatable
   again, instead of fragmenting into ever-smaller shards. *)
let coalescing_tests =
  [
    Alcotest.test_case "split tails re-fuse on free" `Quick (fun () ->
        let heap = mk_heap () in
        let alloc = Pmalloc.Heap.allocator heap in
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:500 in
        Pmalloc.Heap.free heap a;
        (* split the 500-word extent: the allocation takes the head, the
           tail goes back to a coarse bin *)
        let b = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:100 in
        Alcotest.(check int) "head of the freed extent" a b;
        let frontier = Pmalloc.Allocator.frontier alloc in
        let before = Pmalloc.Allocator.coalesces alloc in
        Pmalloc.Heap.free heap b;
        Alcotest.(check bool)
          "neighbor merge happened" true
          (Pmalloc.Allocator.coalesces alloc > before);
        (* the re-fused extent serves a near-full-size allocation without
           touching the frontier *)
        let c = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:480 in
        Alcotest.(check int) "same extent again" a c;
        Alcotest.(check int) "no frontier growth" frontier
          (Pmalloc.Allocator.frontier alloc));
    Alcotest.test_case "fragmentation gauge drops on merge" `Quick (fun () ->
        let heap = mk_heap () in
        let alloc = Pmalloc.Heap.allocator heap in
        (* three adjacent large blocks; freeing them out of order must
           collapse the freelist back to one entry *)
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:200 in
        let b = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:200 in
        let c = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:200 in
        Pmalloc.Heap.free heap a;
        Pmalloc.Heap.free heap c;
        Alcotest.(check int) "two disjoint extents" 2
          (Pmalloc.Allocator.freelist_entries alloc);
        Pmalloc.Heap.free heap b;
        (* b bridges a and c: both probes fire *)
        Alcotest.(check int) "one fused extent" 1
          (Pmalloc.Allocator.freelist_entries alloc));
  ]

(* Conservation (arenas + freelist + deferral + padding): every word
   between heap start and the frontier is in exactly one ledger for any
   crash-free alloc/release/fence history. *)
let conservation_test =
  let conserved alloc =
    Pmalloc.Allocator.live_words alloc
    + Pmalloc.Allocator.free_words alloc
    + Pmalloc.Allocator.deferred_words alloc
    + Pmalloc.Allocator.pad_words alloc
    = Pmalloc.Allocator.frontier alloc - Pmalloc.Allocator.heap_start alloc
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"live+free+deferred+pad covers the heap (qcheck)" ~count:60
         QCheck.(list_of_size (Gen.int_range 1 120) (int_range 0 1023))
         (fun ops ->
           let heap = mk_heap ~capacity:(1 lsl 18) () in
           let alloc = Pmalloc.Heap.allocator heap in
           let live = ref [] in
           let ok = ref true in
           List.iter
             (fun n ->
               (match n mod 10 with
               | 0 | 1 | 2 | 3 | 4 ->
                   (* arena classes and freelist sizes both in range *)
                   let words = 1 + (n mod 80) in
                   let b =
                     Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words
                   in
                   live := b :: !live
               | 5 | 6 | 7 -> (
                   match !live with
                   | [] -> ()
                   | l ->
                       let i = n mod List.length l in
                       let b = List.nth l i in
                       live := List.filteri (fun j _ -> j <> i) l;
                       (* epoch-deferred reclamation path *)
                       Pmalloc.Heap.release heap b)
               | 8 -> (
                   match !live with
                   | [] -> ()
                   | b :: rest ->
                       live := rest;
                       (* immediate-free path *)
                       Pmalloc.Heap.free heap b)
               | _ -> Pmalloc.Heap.sfence heap);
               if not (conserved alloc) then ok := false)
             ops;
           (* drain the deferral pipeline and re-check the identity *)
           Pmalloc.Heap.sfence heap;
           Pmalloc.Heap.sfence heap;
           !ok && conserved alloc
           && Pmalloc.Allocator.deferred_words alloc = 0));
  ]

let rc_tests =
  [
    Alcotest.test_case "retain/release lifecycle" `Quick (fun () ->
        let heap = mk_heap () in
        let alloc = Pmalloc.Heap.allocator heap in
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:2 in
        Alcotest.(check int) "initial rc" 1 (Pmalloc.Allocator.rc_get alloc a);
        Pmalloc.Heap.retain heap a;
        Alcotest.(check int) "after retain" 2 (Pmalloc.Allocator.rc_get alloc a);
        Pmalloc.Heap.release heap a;
        Alcotest.(check bool)
          "still allocated" true
          (Pmalloc.Allocator.is_allocated alloc a);
        Pmalloc.Heap.release heap a;
        Alcotest.(check bool)
          "freed at zero" false
          (Pmalloc.Allocator.is_allocated alloc a));
    Alcotest.test_case "release cascades through children" `Quick (fun () ->
        let heap = mk_heap () in
        let alloc = Pmalloc.Heap.allocator heap in
        let child = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:1 in
        Pmalloc.Heap.store heap child (Pmem.Word.of_int 5);
        let parent = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:1 in
        Pmalloc.Heap.store heap parent (Pmem.Word.of_ptr child);
        Pmalloc.Heap.release heap parent;
        Alcotest.(check bool)
          "child freed too" false
          (Pmalloc.Allocator.is_allocated alloc child));
    Alcotest.test_case "shared child survives one parent" `Quick (fun () ->
        let heap = mk_heap () in
        let alloc = Pmalloc.Heap.allocator heap in
        let child = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:1 in
        Pmalloc.Heap.store heap child (Pmem.Word.of_int 5);
        let mk_parent () =
          let p = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:1 in
          Pmalloc.Heap.store heap p (Pmem.Word.of_ptr child);
          p
        in
        let p1 = mk_parent () in
        Pmalloc.Heap.retain heap child;
        (* second parent shares *)
        let p2 = mk_parent () in
        Pmalloc.Heap.release heap p1;
        Alcotest.(check bool)
          "child alive" true
          (Pmalloc.Allocator.is_allocated alloc child);
        Pmalloc.Heap.release heap p2;
        Alcotest.(check bool)
          "child freed" false
          (Pmalloc.Allocator.is_allocated alloc child));
    Alcotest.test_case "raw children are freed, not scanned" `Quick (fun () ->
        let heap = mk_heap () in
        let alloc = Pmalloc.Heap.allocator heap in
        let blob = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:3 in
        (* raw payload that would decode as a pointer if misread *)
        Pmalloc.Heap.store heap blob (Pmem.Word.raw 12345);
        let parent = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:1 in
        Pmalloc.Heap.store heap parent (Pmem.Word.of_ptr blob);
        Pmalloc.Heap.release heap parent;
        Alcotest.(check bool)
          "blob freed" false
          (Pmalloc.Allocator.is_allocated alloc blob));
  ]

let freelist_tests =
  [
    Alcotest.test_case "exact bins roundtrip" `Quick (fun () ->
        let fl = Pmalloc.Freelist.create () in
        Pmalloc.Freelist.insert fl ~body:100 ~capacity:8;
        Pmalloc.Freelist.insert fl ~body:200 ~capacity:8;
        Alcotest.(check int) "free words" 16 (Pmalloc.Freelist.free_words fl);
        (match Pmalloc.Freelist.take_exact fl 8 with
        | Some e -> Alcotest.(check int) "capacity" 8 e.Pmalloc.Freelist.capacity
        | None -> Alcotest.fail "expected a block");
        Alcotest.(check int) "free words after" 8
          (Pmalloc.Freelist.free_words fl));
    Alcotest.test_case "first-fit from coarse buckets" `Quick (fun () ->
        let fl = Pmalloc.Freelist.create () in
        Pmalloc.Freelist.insert fl ~body:100 ~capacity:100;
        Pmalloc.Freelist.insert fl ~body:300 ~capacity:400;
        (match Pmalloc.Freelist.take_at_least fl 150 with
        | Some e ->
            Alcotest.(check bool) "big enough" true (e.Pmalloc.Freelist.capacity >= 150)
        | None -> Alcotest.fail "expected a block");
        (* the 100-word block must still be available *)
        match Pmalloc.Freelist.take_at_least fl 80 with
        | Some e -> Alcotest.(check int) "remaining block" 100 e.Pmalloc.Freelist.capacity
        | None -> Alcotest.fail "expected the small block");
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"free words invariant (qcheck)" ~count:100
         QCheck.(small_list (int_range 4 500))
         (fun caps ->
           let fl = Pmalloc.Freelist.create () in
           List.iteri
             (fun i c -> Pmalloc.Freelist.insert fl ~body:(i * 1000) ~capacity:c)
             caps;
           let total = List.fold_left ( + ) 0 caps in
           let rec drain acc =
             match Pmalloc.Freelist.take_at_least fl 4 with
             | Some e -> drain (acc + e.Pmalloc.Freelist.capacity)
             | None -> acc
           in
           let drained = drain 0 in
           drained = total && Pmalloc.Freelist.free_words fl = 0));
  ]

(* The refcount table against a [Hashtbl] model of body -> count over
   random traces of alloc, retain, release, free, fence, [reset_fresh]
   and a recovery rebuild.  After every step each body ever handed out
   (and its two neighbours, which share its table slot) must agree with
   the model on [is_allocated] and [rc_get]: nothing allocated before a
   reset survives it.  Word conservation holds across recoveries too:
   gaps below a block's minimum are ledgered as pad. *)
let rc_model_test =
  let module A = Pmalloc.Allocator in
  let heap_start = 64 in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"refcounts agree with a Hashtbl model (qcheck)"
         ~count:200
         QCheck.(list_of_size (Gen.int_range 1 150) (int_range 0 4095))
         (fun ops ->
           let region = Pmem.Region.create ~capacity_words:(1 lsl 14) () in
           let alloc = A.create region ~heap_start in
           let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
           let seen = Hashtbl.create 64 in
           let live () =
             List.sort compare (List.of_seq (Hashtbl.to_seq_keys model))
           in
           let pick n =
             match live () with
             | [] -> None
             | l -> Some (List.nth l (n mod List.length l))
           in
           let raises f =
             match f () with _ -> false | exception Invalid_argument _ -> true
           in
           (* Rebuild the volatile state from the model's live blocks, as
              the recovery walk does from reachability: marked in either
              address order, then swept between the extreme bodies. *)
           let recover n =
             let blocks = live () in
             A.recovery_begin alloc;
             List.iter
               (fun b ->
                 let rc = 1 + ((n + b) mod 3) in
                 assert (not (A.recovery_ref alloc b));
                 A.recovery_visit alloc b;
                 for _ = 2 to rc do
                   assert (A.recovery_ref alloc b)
                 done;
                 Hashtbl.replace model b rc)
               (if n mod 2 = 0 then blocks else List.rev blocks);
             let lo = List.fold_left min max_int blocks in
             let hi = List.fold_left max (-1) blocks in
             let _, reclaimed = A.recovery_sweep alloc ~lo ~hi in
             assert (reclaimed = A.free_words alloc);
             assert (
               A.frontier alloc
               = List.fold_left
                   (fun acc b -> max acc (b - 1 + A.capacity_of alloc b))
                   heap_start blocks)
           in
           let step n =
             let arg = n / 16 in
             match n mod 16 with
             | 0 | 1 | 2 | 3 | 4 ->
                 (* odd sizes above the arena classes leave the frontier
                    misaligned, so segments open after a pad sliver *)
                 let words =
                   if arg mod 5 = 0 then 72 + (arg mod 37) else 1 + (arg mod 40)
                 in
                 let b = A.alloc alloc ~kind:Pmalloc.Block.Raw ~words in
                 Hashtbl.replace model b 1;
                 Hashtbl.replace seen b ()
             | 5 | 6 | 7 ->
                 Option.iter
                   (fun b ->
                     A.retain alloc b;
                     Hashtbl.replace model b (Hashtbl.find model b + 1))
                   (pick arg)
             | 8 | 9 | 10 ->
                 Option.iter
                   (fun b ->
                     A.release alloc b;
                     let rc = Hashtbl.find model b - 1 in
                     if rc = 0 then Hashtbl.remove model b
                     else Hashtbl.replace model b rc)
                   (pick arg)
             | 11 when arg mod 2 = 0 ->
                 Option.iter
                   (fun b ->
                     A.free alloc b;
                     Hashtbl.remove model b)
                   (pick arg)
             | 11 ->
                 (* a stale body: every path must refuse it *)
                 Hashtbl.iter
                   (fun b () ->
                     if not (Hashtbl.mem model b) then begin
                       assert (raises (fun () -> A.free alloc b));
                       assert (raises (fun () -> A.release alloc b));
                       assert (raises (fun () -> A.rc_decr alloc b))
                     end)
                   seen
             | 12 | 13 -> A.epoch_flush alloc
             | 14 ->
                 A.reset_fresh alloc;
                 Hashtbl.reset model
             | _ -> recover arg
           in
           let agrees () =
             let ok = ref true in
             Hashtbl.iter
               (fun b () ->
                 List.iter
                   (fun x ->
                     let rc = Option.value ~default:0 (Hashtbl.find_opt model x) in
                     if
                       A.is_allocated alloc x <> Hashtbl.mem model x
                       || A.rc_get alloc x <> rc
                     then ok := false)
                   [ b - 1; b; b + 1 ])
               seen;
             !ok
             && A.live_words alloc + A.free_words alloc + A.deferred_words alloc
                + A.pad_words alloc
                = A.frontier alloc - A.heap_start alloc
           in
           List.for_all
             (fun n ->
               step n;
               agrees ())
             ops));
  ]

let root_tests =
  [
    Alcotest.test_case "root slots start null" `Quick (fun () ->
        let heap = mk_heap () in
        for slot = 0 to Pmalloc.Heap.root_slots - 1 do
          Alcotest.(check bool)
            "null" true
            (Pmem.Word.is_null (Pmalloc.Heap.root_get heap slot))
        done);
    Alcotest.test_case "root set/get" `Quick (fun () ->
        let heap = mk_heap () in
        Pmalloc.Heap.root_set heap 3 (Pmem.Word.of_ptr 100);
        Alcotest.(check int) "roundtrip" 100
          (Pmem.Word.to_ptr (Pmalloc.Heap.root_get heap 3)));
    Alcotest.test_case "slot bounds checked" `Quick (fun () ->
        let heap = mk_heap () in
        Alcotest.(check bool)
          "raises" true
          (try
             ignore (Pmalloc.Heap.root_get heap 64);
             false
           with Invalid_argument _ -> true));
  ]

(* Build a small linked structure, commit it properly (flush+fence+root),
   then crash and check the recovery GC. *)
(* Reference for the recovery walk: the same loads in the same order,
   tracked with a Hashtbl of reachable bodies, a Stack of tuples and a
   sorted tuple list instead of the refcount table and flat buffers.  It
   leaves the allocator alone and returns what recovery must rebuild. *)
module Reference_gc = struct
  type t = {
    report : Pmalloc.Recovery_gc.report;
    indeg : (int * int) list;  (** (body, in-degree), by address *)
    extents : (int * int) list;
        (** (body, capacity) of the free extents, adjacent gaps merged as
            the free lists coalesce them *)
    pad : int;  (** words in gaps too narrow for a block *)
    excess : int;
        (** live words outside [[heap_start, frontier)] or already
            covered by another live block's extent (a pointer into the
            directory, or into a block's payload) *)
  }

  let recover heap =
    let module H = Pmalloc.Heap in
    let module B = Pmalloc.Block in
    let region = H.region heap in
    H.invalidate_root_cache heap;
    H.clear_backup_runtime heap;
    let roots, via_summary = H.read_directory heap in
    let scrub = Pmem.Region.media_fault_count region > 0 in
    let reachable : (int, int * int * int) Hashtbl.t = Hashtbl.create 4096 in
    let pending = Stack.create () in
    let visit body =
      match Hashtbl.find_opt reachable body with
      | Some (header, capacity, indeg) ->
          Hashtbl.replace reachable body (header, capacity, indeg + 1)
      | None ->
          let header = B.header_of_body body in
          let hw = Pmem.Region.load region header in
          let capacity, kind, _allocated = B.decode_info hw in
          let used = B.decode_used hw in
          Hashtbl.replace reachable body (header, capacity, 1);
          Stack.push (body, used, kind) pending
    in
    let scan (body, used, kind) =
      match kind with
      | B.Raw ->
          if scrub then
            for i = 0 to used - 1 do
              ignore (Pmem.Region.load region (body + i) : Pmem.Word.t)
            done
      | B.Scanned ->
          for i = 0 to used - 1 do
            let w = Pmem.Region.load region (body + i) in
            if Pmem.Word.is_ptr w && not (Pmem.Word.is_null w) then
              visit (Pmem.Word.to_ptr w)
          done
    in
    List.iter
      (fun (_, w) ->
        if Pmem.Word.is_ptr w && not (Pmem.Word.is_null w) then
          visit (Pmem.Word.to_ptr w))
      roots;
    while not (Stack.is_empty pending) do
      scan (Stack.pop pending)
    done;
    let blocks =
      Hashtbl.fold
        (fun body (header, cap, indeg) acc -> (header, cap, body, indeg) :: acc)
        reachable []
      |> List.sort compare
    in
    (* the refcount table refuses two bodies in one slot *)
    let slots = Hashtbl.create 64 in
    List.iter
      (fun (_, _, body, _) ->
        let i = body / B.min_capacity in
        if Hashtbl.mem slots i then invalid_arg "overlapping blocks";
        Hashtbl.add slots i ())
      blocks;
    let frontier =
      List.fold_left (fun acc (h, cap, _, _) -> max acc (h + cap))
        H.heap_start_words blocks
    in
    let gaps = ref 0 and reclaimed = ref 0 in
    let extents = ref [] and pad = ref 0 in
    let cursor = ref H.heap_start_words and covered = ref 0 in
    List.iter
      (fun (header, cap, _, _) ->
        covered := !covered + max 0 (header + cap - max !cursor header);
        let size = header - !cursor in
        if size >= B.min_capacity then begin
          incr gaps;
          reclaimed := !reclaimed + size;
          (* a zero-capacity block (an unpersisted header) separates two
             gaps that the free lists fuse *)
          match !extents with
          | (b, c) :: rest when B.header_of_body b + c = !cursor ->
              extents := (b, c + size) :: rest
          | l -> extents := (B.body_of_header !cursor, size) :: l
        end
        else if size > 0 then pad := !pad + size;
        cursor := max !cursor (header + cap))
      blocks;
    let live_words =
      List.fold_left (fun acc (_, c, _, _) -> acc + c) 0 blocks
    in
    {
      report =
        {
          Pmalloc.Recovery_gc.live_blocks = List.length blocks;
          live_words;
          reclaimed_extents = !gaps;
          reclaimed_words = !reclaimed;
          frontier;
          root_slots_read = List.length roots;
          via_summary;
        };
      indeg = List.map (fun (_, _, body, d) -> (body, d)) blocks;
      extents = List.rev !extents;
      pad = !pad;
      excess = live_words - !covered;
    }
end

(* A random crashed heap: blocks of random kind and size whose pointer
   words reference other blocks (shared subgraphs, and cycles through
   later overwrites), flushed or not, fences and root swings, then a
   seeded crash of any mode, torn or not, and sometimes an armed media
   fault.  A few pointers miss every block.  One kind lands below the
   heap start, on a body whose header is the spare fourth word of a
   root record's copy-1 cell: zero, or a small scalar planted there, so
   a block of up to 15 words inside the directory.  The other lands
   inside an earlier Raw block, whose payload word before it decodes
   as a header, small or large.  Each stray body has a refcount slot of
   its own.  The same seed builds the same heap, bit for bit. *)
let random_crashed_heap seed =
  let module H = Pmalloc.Heap in
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let heap = H.create ~capacity_words:(1 lsl 14) () in
  let spare slot =
    match H.root_record_ranges slot with
    | [ _; (off, words) ] -> off + words
    | _ -> assert false
  in
  for _ = 1 to int 4 do
    H.store heap (spare (int H.root_slots)) (Pmem.Word.of_int (int 64))
  done;
  let n = 1 + int 40 in
  let blocks = Array.make n 0 in
  let raw_words = Array.make n 0 (* a Raw block's payload words *) in
  let target i =
    let j = int i in
    match int 12 with
    | 0 -> spare (int H.root_slots) + 1
    | 1 when raw_words.(j) >= 7 ->
        (* at least 3 words past the body and 4 before the end *)
        blocks.(j) + (3 * (1 + int ((raw_words.(j) - 4) / 3)))
    | _ -> blocks.(j)
  in
  let scanned = ref [] in
  for i = 0 to n - 1 do
    let raw = int 5 = 0 in
    let words = if int 10 = 0 then 60 + int 60 else 1 + int 10 in
    let kind = if raw then Pmalloc.Block.Raw else Pmalloc.Block.Scanned in
    let b = H.alloc heap ~kind ~words in
    for j = 0 to words - 1 do
      H.store heap (b + j)
        (if raw || i = 0 || int 3 = 0 then
           Pmem.Word.of_int (if int 4 = 0 then int 64 else int 1_000_000)
         else if int 5 = 0 then Pmem.Word.null
         else Pmem.Word.of_ptr (target i))
    done;
    blocks.(i) <- b;
    if raw then raw_words.(i) <- words;
    if not raw then scanned := b :: !scanned;
    (* now and then an older node points forward at the new one *)
    (match !scanned with
    | _ :: older when older <> [] && int 6 = 0 ->
        let target = List.nth older (int (List.length older)) in
        H.store heap target (Pmem.Word.of_ptr b)
    | _ -> ());
    if int 4 > 0 then H.flush_block heap b;
    if int 4 = 0 then H.sfence heap;
    if int 3 = 0 then H.root_set heap (int 6) (Pmem.Word.of_ptr b);
    if int 5 = 0 then H.sfence heap
  done;
  let mode =
    match int 3 with
    | 0 -> Pmem.Region.Drop_inflight
    | 1 -> Pmem.Region.Keep_inflight
    | _ -> Pmem.Region.Randomize
  in
  H.crash ~mode ~seed ~torn:(int 4 = 0) heap;
  if int 5 = 0 then begin
    let region = H.region heap in
    let line_of w = w / Pmem.Config.words_per_line in
    let first = line_of H.heap_start_words in
    let last = line_of (Pmalloc.Allocator.frontier (H.allocator heap)) in
    Pmem.Region.arm_media_fault region
      ~line:(first + int (max 1 (last - first)))
  end;
  heap

let reference_tests =
  let module A = Pmalloc.Allocator in
  let outcome f heap =
    match f heap with
    | r -> Ok r
    | exception Invalid_argument _ -> Error "invalid"
    | exception Pmem.Region.Media_fault _ -> Error "media"
    | exception Pmalloc.Heap.Torn_root _ -> Error "torn"
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"recovery matches the Hashtbl walk (qcheck)"
         ~count:150 QCheck.small_nat (fun seed ->
           let ha = random_crashed_heap seed in
           let hb = random_crashed_heap seed in
           match
             ( outcome Reference_gc.recover ha,
               outcome Pmalloc.Recovery_gc.recover hb )
           with
           | Error a, Error b -> a = b
           | Ok _, Error _ | Error _, Ok _ -> false
           | Ok expected, Ok report ->
               let alloc = Pmalloc.Heap.allocator hb in
               let sa = Pmalloc.Heap.stats ha and sb = Pmalloc.Heap.stats hb in
               let extents = ref [] in
               A.iter_free alloc (fun ~body ~capacity ->
                   extents := (body, capacity) :: !extents);
               report = expected.Reference_gc.report
               && Int64.bits_of_float sa.Pmem.Stats.now_ns
                  = Int64.bits_of_float sb.Pmem.Stats.now_ns
               && sa.Pmem.Stats.loads = sb.Pmem.Stats.loads
               && sa.Pmem.Stats.l1_misses = sb.Pmem.Stats.l1_misses
               && List.for_all
                    (fun (body, d) -> A.rc_get alloc body = d)
                    expected.Reference_gc.indeg
               && List.sort compare !extents = expected.Reference_gc.extents
               && A.free_words alloc
                  = report.Pmalloc.Recovery_gc.reclaimed_words
               && A.pad_words alloc = expected.Reference_gc.pad
               && A.live_words alloc + A.free_words alloc
                  + A.deferred_words alloc + A.pad_words alloc
                  = A.frontier alloc - A.heap_start alloc
                    + expected.Reference_gc.excess));
  ]

(* The two passes of [Allocator.recovery_sweep] over one walk's marks:
   the table pass reads the refcount slots between the lowest and the
   highest visited body, the marked-block pass sorts the walk's short
   list of them.  Each must leave what the other leaves: the free-list
   entries in their order, the pad, the frontier, the live words and the
   (extents, words) report.  [bounds] are the lowest and highest body
   the walk visits, which the table pass needs. *)
let sweep_paths heap ~bounds:(lo, hi) =
  let module A = Pmalloc.Allocator in
  let alloc = Pmalloc.Heap.allocator heap in
  let state (extents, words) =
    let entries = ref [] in
    A.iter_free alloc (fun ~body ~capacity ->
        entries := (body, capacity) :: !entries);
    ( List.rev !entries,
      (A.pad_words alloc, A.frontier alloc, A.live_words alloc),
      (extents, words) )
  in
  let report = Pmalloc.Recovery_gc.recover heap in
  let chosen =
    state
      ( report.Pmalloc.Recovery_gc.reclaimed_extents,
        report.Pmalloc.Recovery_gc.reclaimed_words )
  in
  let marked = state (A.recovery_sweep_marked alloc) in
  let table = state (A.recovery_sweep_table alloc ~lo ~hi) in
  (report, chosen, marked, table)

(* Three 100-word blocks under a 3,440-word frontier, one at the heap
   start and two below the frontier, with an unreachable filler between:
   few blocks over a wide span of refcount slots. *)
let sparse_heap () =
  let module H = Pmalloc.Heap in
  let heap = H.create ~capacity_words:(1 lsl 14) () in
  let node () =
    let b = H.alloc heap ~kind:Pmalloc.Block.Scanned ~words:100 in
    for i = 0 to 99 do
      H.store heap (b + i) (Pmem.Word.of_int i)
    done;
    b
  in
  let a = node () in
  let filler =
    3_440 - (2 * 101) - Pmalloc.Allocator.frontier (H.allocator heap)
  in
  ignore (H.alloc heap ~kind:Pmalloc.Block.Raw ~words:(filler - 1) : int);
  let b = node () in
  let c = node () in
  (* a -> c -> b: the walk meets them out of address order *)
  H.store heap a (Pmem.Word.of_ptr c);
  H.store heap c (Pmem.Word.of_ptr b);
  List.iter (H.flush_block heap) [ a; b; c ];
  H.sfence heap;
  H.root_set heap 0 (Pmem.Word.of_ptr a);
  H.sfence heap;
  H.crash heap;
  (heap, (a, c))

let sweep_path_tests =
  [
    Alcotest.test_case "3 blocks under a 3,440-word frontier: both passes"
      `Quick (fun () ->
        let heap, bounds = sparse_heap () in
        let report, chosen, marked, table = sweep_paths heap ~bounds in
        Alcotest.(check int) "live blocks" 3
          report.Pmalloc.Recovery_gc.live_blocks;
        Alcotest.(check int) "frontier" 3_440
          report.Pmalloc.Recovery_gc.frontier;
        Alcotest.(check bool) "marked = table" true (marked = table);
        Alcotest.(check bool) "recovery = table" true (chosen = table));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"marked-block and table passes leave one state (qcheck)"
         ~count:150 QCheck.small_nat (fun seed ->
           (* a twin heap gives the walk's bounds *)
           match Reference_gc.recover (random_crashed_heap seed) with
           | exception
               ( Invalid_argument _ | Pmem.Region.Media_fault _
               | Pmalloc.Heap.Torn_root _ ) ->
               QCheck.assume_fail ()
           | { Reference_gc.indeg = []; _ } -> QCheck.assume_fail ()
           | { Reference_gc.indeg = (lo, _) :: _ as indeg; _ } ->
               let hi = fst (List.nth indeg (List.length indeg - 1)) in
               (* the heaps of seeds 0-100 hold at most 52 blocks, so
                  the walk lists every one *)
               let _, chosen, marked, table =
                 sweep_paths (random_crashed_heap seed) ~bounds:(lo, hi)
               in
               marked = table && chosen = table));
  ]

let recovery_tests =
  [
    Alcotest.test_case "reachable data survives, leaks reclaimed" `Quick
      (fun () ->
        let heap = mk_heap () in
        let alloc = Pmalloc.Heap.allocator heap in
        (* leaked block from an interrupted FASE: flushed but unreachable;
           allocated first so it sits in a gap between live blocks *)
        let leak = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:8 in
        Pmalloc.Heap.store heap leak (Pmem.Word.of_int 99);
        Pmalloc.Heap.flush_block heap leak;
        Pmalloc.Heap.sfence heap;
        (* committed chain: root -> a -> b *)
        let b = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:2 in
        Pmalloc.Heap.store heap b (Pmem.Word.of_int 22);
        Pmalloc.Heap.store heap (b + 1) Pmem.Word.null;
        Pmalloc.Heap.flush_block heap b;
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:2 in
        Pmalloc.Heap.store heap a (Pmem.Word.of_int 11);
        Pmalloc.Heap.store heap (a + 1) (Pmem.Word.of_ptr b);
        Pmalloc.Heap.flush_block heap a;
        Pmalloc.Heap.sfence heap;
        Pmalloc.Heap.root_set heap 0 (Pmem.Word.of_ptr a);
        Pmalloc.Heap.clwb heap 0;
        Pmalloc.Heap.sfence heap;
        Pmalloc.Heap.crash heap;
        let report = Pmalloc.Recovery_gc.recover heap in
        Alcotest.(check int) "two live blocks" 2
          report.Pmalloc.Recovery_gc.live_blocks;
        Alcotest.(check bool)
          "leak reclaimed" true
          (report.Pmalloc.Recovery_gc.reclaimed_words > 0);
        (* data is intact after recovery *)
        let a' = Pmem.Word.to_ptr (Pmalloc.Heap.root_get heap 0) in
        Alcotest.(check int) "a data" 11
          (Pmem.Word.to_int (Pmalloc.Heap.load heap a'));
        let b' = Pmem.Word.to_ptr (Pmalloc.Heap.load heap (a' + 1)) in
        Alcotest.(check int) "b data" 22
          (Pmem.Word.to_int (Pmalloc.Heap.load heap b'));
        (* reclaimed space is reusable *)
        let fresh = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:4 in
        Alcotest.(check bool)
          "allocator functional" true
          (Pmalloc.Allocator.is_allocated alloc fresh));
    Alcotest.test_case "recovery recomputes shared refcounts" `Quick (fun () ->
        let heap = mk_heap () in
        let alloc = Pmalloc.Heap.allocator heap in
        (* diamond: two parents share one child; both parents in roots *)
        let child = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:1 in
        Pmalloc.Heap.store heap child (Pmem.Word.of_int 7);
        Pmalloc.Heap.flush_block heap child;
        let mk_parent slot =
          let p = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:1 in
          Pmalloc.Heap.store heap p (Pmem.Word.of_ptr child);
          Pmalloc.Heap.flush_block heap p;
          Pmalloc.Heap.sfence heap;
          Pmalloc.Heap.root_set heap slot (Pmem.Word.of_ptr p);
          Pmalloc.Heap.clwb heap slot
        in
        mk_parent 0;
        mk_parent 1;
        Pmalloc.Heap.sfence heap;
        Pmalloc.Heap.crash heap;
        ignore (Pmalloc.Recovery_gc.recover heap);
        let child' =
          Pmem.Word.to_ptr
            (Pmalloc.Heap.load heap
               (Pmem.Word.to_ptr (Pmalloc.Heap.root_get heap 0)))
        in
        Alcotest.(check int) "in-degree 2" 2
          (Pmalloc.Allocator.rc_get alloc child'));
    (* The walk marks reachable bodies in the refcount table and the
       allocator sweeps it in address order: no per-block buffer, so a
       map of about 17k blocks recovers within the walk's small worklist
       (any buffer of its bodies would alone exceed the bound). *)
    Alcotest.test_case "a 50k-key map recovers in <4,096 major words" `Quick
      (fun () ->
        let module M = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int) in
        let heap = Pmalloc.Heap.create () in
        let map = M.open_or_create heap ~slot:0 in
        for i = 0 to 49_999 do
          M.insert map ((i * 7919) mod 100_003) i
        done;
        Pmalloc.Heap.crash heap;
        (* the counter moves only at a collection: without one first,
           the second reading would miss whatever the walk promoted *)
        let major () =
          Gc.minor ();
          (Gc.quick_stat ()).Gc.major_words
        in
        let before = major () in
        let report = Pmalloc.Recovery_gc.recover heap in
        let words = major () -. before in
        Alcotest.(check bool)
          "over 10k live blocks" true
          (report.Pmalloc.Recovery_gc.live_blocks > 10_000);
        if words >= 4096. then
          Alcotest.failf "recovering %d blocks allocated %.0f major words"
            report.Pmalloc.Recovery_gc.live_blocks words);
    Alcotest.test_case "empty heap recovers to empty" `Quick (fun () ->
        let heap = mk_heap () in
        Pmalloc.Heap.crash heap;
        let report = Pmalloc.Recovery_gc.recover heap in
        Alcotest.(check int) "no live blocks" 0
          report.Pmalloc.Recovery_gc.live_blocks);
    Alcotest.test_case "sub-minimum gaps are ledgered as pad" `Quick
      (fun () ->
        let heap = mk_heap () in
        let alloc = Pmalloc.Heap.allocator heap in
        let ledgers () =
          ( Pmalloc.Allocator.live_words alloc,
            Pmalloc.Allocator.free_words alloc
            + Pmalloc.Allocator.deferred_words alloc,
            Pmalloc.Allocator.pad_words alloc )
        in
        let span () =
          Pmalloc.Allocator.frontier alloc - Pmalloc.Allocator.heap_start alloc
        in
        (* the 101-word Raw block (capacity 102) leaves the frontier 6
           words into a line, so the node's segment opens after a 2-word
           pad *)
        let raw = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:101 in
        Pmalloc.Heap.flush_block heap raw;
        let node =
          Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words:2
        in
        Pmalloc.Heap.store heap node (Pmem.Word.of_ptr raw);
        Pmalloc.Heap.store heap (node + 1) Pmem.Word.null;
        Pmalloc.Heap.flush_block heap node;
        Pmalloc.Heap.sfence heap;
        Pmalloc.Heap.root_set heap 0 (Pmem.Word.of_ptr node);
        Pmalloc.Heap.sfence heap;
        let live, free, pad = ledgers () in
        Alcotest.(check int) "alignment pad" 2 pad;
        Alcotest.(check int)
          "ledgers cover the span" (span ()) (live + free + pad);
        Pmalloc.Heap.crash heap;
        ignore (Mod_core.Recovery.recover_exn heap);
        let live, free, pad = ledgers () in
        Alcotest.(check int) "live after recovery" 106 live;
        Alcotest.(check int) "gap kept as pad" 2 pad;
        Alcotest.(check int) "span" 108 (span ());
        Alcotest.(check int)
          "ledgers cover the span" (span ()) (live + free + pad));
  ]

(* -- the root summary ------------------------------------------------------ *)

let summary_tests =
  let module H = Pmalloc.Heap in
  (* one region for every case: a region's cache hierarchy is costly *)
  let region = Pmem.Region.create ~capacity_words:64 () in
  let lines = QCheck.(map (fun (hi, lo) -> (hi lsl 16) lor lo)
                        (pair (int_bound 0xFFFF) (int_bound 0xFFFF))) in
  let counts heap =
    let s = H.stats heap in
    Pmem.Stats.(s.stores, s.clwbs, s.fences)
  in
  let durable_lines heap =
    H.decode_summary
      (Pmem.Region.peek_durable (H.region heap) H.summary_off)
  in
  let chain heap slot =
    let b = H.alloc heap ~kind:Pmalloc.Block.Scanned ~words:2 in
    H.store heap b (Pmem.Word.of_int slot);
    H.store heap (b + 1) Pmem.Word.null;
    H.flush_block heap b;
    H.sfence heap;
    H.root_set heap slot (Pmem.Word.of_ptr b)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"summary word encoding (qcheck)" ~count:1000
         lines (fun lines ->
           Pmem.Region.store region 3 (H.encode_summary lines);
           Pmem.Region.corrupt_word region 3;
           H.decode_summary (H.encode_summary lines) = Some lines
           && H.decode_summary (Pmem.Region.peek_current region 3) = None
           && H.summary_slots lines
              = List.filter
                  (fun slot -> lines land H.summary_bit slot <> 0)
                  (List.init H.root_slots Fun.id)));
    Alcotest.test_case "encoding edge cases" `Quick (fun () ->
        List.iter
          (fun lines ->
            Alcotest.(check (option int)) "round trip" (Some lines)
              (H.decode_summary (H.encode_summary lines)))
          [ 0; 1; 0xFFFF_FFFF; 1 lsl 31 ];
        Alcotest.(check (option int)) "0 never validates" None
          (H.decode_summary Pmem.Word.zero);
        Alcotest.(check (list int)) "line 31 covers slots 62 and 63"
          [ 62; 63 ] (H.summary_slots (H.summary_bit 63)));
    Alcotest.test_case "recovery: bound slots, no stores"
      `Quick (fun () ->
        let heap = mk_heap () in
        Alcotest.(check (option int)) "fresh heap covers line 0"
          (Some (H.summary_bit 0)) (durable_lines heap);
        chain heap 0;
        chain heap 9;
        H.sfence heap;
        let recover () =
          let before = counts heap in
          let r = Pmalloc.Recovery_gc.recover heap in
          Alcotest.(check (triple int int int)) "no store, clwb or fence"
            before (counts heap);
          r
        in
        H.crash heap;
        let r = recover () in
        Alcotest.(check (pair int bool)) "summary: slots 0, 1, 8, 9"
          (4, true)
          (r.Pmalloc.Recovery_gc.root_slots_read, r.via_summary);
        H.crash heap;
        Pmem.Region.corrupt_word (H.region heap) H.summary_off;
        let r' = recover () in
        Alcotest.(check (pair int bool)) "corrupt summary: full scan"
          (H.root_slots, false)
          (r'.Pmalloc.Recovery_gc.root_slots_read, r'.via_summary);
        Alcotest.(check int) "one fallback" 1 (H.summary_fallbacks heap);
        Alcotest.(check (list int)) "same live blocks and frontier"
          [ r.live_blocks; r.live_words; r.frontier ]
          [ r'.live_blocks; r'.live_words; r'.frontier ];
        (* the scan seeded slots 0 and 9 unstored: the next bind writes a
           summary that covers both again *)
        chain heap 20;
        Alcotest.(check (option int)) "healed summary"
          (Some (H.summary_bit 0 lor H.summary_bit 9 lor H.summary_bit 20))
          (durable_lines heap));
    Alcotest.test_case "direct swing binds and fences once"
      `Quick (fun () ->
        let heap = mk_heap () in
        let fences () = (H.stats heap).Pmem.Stats.fences in
        let f0 = fences () in
        H.root_set heap 5 (Pmem.Word.of_int 1);
        Alcotest.(check int) "first swing of a fresh slot: one fence" 1
          (fences () - f0);
        H.root_set heap 5 (Pmem.Word.of_int 2);
        H.root_set heap 4 (Pmem.Word.of_int 3);
        Alcotest.(check int) "bound line: no fence" 1 (fences () - f0);
        Alcotest.(check (option int)) "durable summary"
          (Some (H.summary_bit 0 lor H.summary_bit 5)) (durable_lines heap);
        H.bind heap 40;
        Alcotest.check_raises "bind after the commit fence"
          (Invalid_argument "Heap: slot 40 was bound after its commit fence")
          (fun () -> H.root_set heap 40 (Pmem.Word.of_int 4)));
  ]

let () =
  Alcotest.run "pmalloc"
    [
      ("allocator", alloc_tests);
      ("dealloc-order", dealloc_order_tests);
      ("coalescing", coalescing_tests);
      ("conservation", conservation_test);
      ("refcounts", rc_tests);
      ("rc-model", rc_model_test);
      ("freelist", freelist_tests);
      ("roots", root_tests);
      ("recovery", recovery_tests @ reference_tests @ sweep_path_tests);
      ("summary", summary_tests);
    ]
