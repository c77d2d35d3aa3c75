(* Tests for the MOD core library: Basic interface semantics, the paper's
   one-ordering-point-per-FASE property, the Composition interface
   (CommitSingle / CommitSiblings / CommitUnrelated), reclamation
   exactness, and the Section 5.4 consistency checker. *)

let w = Pmem.Word.of_int
let uw v = Pmem.Word.to_int v
let mk_heap ?(capacity = 1 lsl 18) ?(trace = false) () =
  Pmalloc.Heap.create ~capacity_words:capacity ~trace ()

module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)
module IntMap = Map.Make (Int)

(* Recompute every reachable block's in-degree from the root directory and
   compare with the allocator's reference counts; also confirm that the
   reachable footprint matches the allocator's live accounting (no leaks,
   no premature frees). *)
let check_heap_exact heap =
  let region = Pmalloc.Heap.region heap in
  let allocator = Pmalloc.Heap.allocator heap in
  let reach : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let rec visit body =
    match Hashtbl.find_opt reach body with
    | Some n -> Hashtbl.replace reach body (n + 1)
    | None ->
        Hashtbl.replace reach body 1;
        let header = Pmalloc.Block.header_of_body body in
        let _cap, kind, _ =
          Pmalloc.Block.decode_info (Pmem.Region.peek_current region header)
        in
        (match kind with
        | Pmalloc.Block.Raw -> ()
        | Pmalloc.Block.Scanned ->
            let used =
              Pmalloc.Block.decode_used
                (Pmem.Region.peek_current region header)
            in
            for i = 0 to used - 1 do
              let word = Pmem.Region.peek_current region (body + i) in
              if Pmem.Word.is_ptr word && not (Pmem.Word.is_null word) then
                visit (Pmem.Word.to_ptr word)
            done)
  in
  for slot = 0 to Pmalloc.Heap.root_slots - 1 do
    let word = Pmalloc.Heap.root_get heap slot in
    if Pmem.Word.is_ptr word && not (Pmem.Word.is_null word) then
      visit (Pmem.Word.to_ptr word)
  done;
  Hashtbl.iter
    (fun body indeg ->
      let rc = Pmalloc.Allocator.rc_get allocator body in
      if rc <> indeg then
        Alcotest.failf "block %d: rc %d but in-degree %d" body rc indeg)
    reach;
  let reach_words =
    Hashtbl.fold
      (fun body _ acc -> acc + Pmalloc.Allocator.capacity_of allocator body)
      reach 0
  in
  Alcotest.(check int)
    "live words == reachable words" reach_words
    (Pmalloc.Allocator.live_words allocator)

(* -- Basic interface vs models --------------------------------------------- *)

let basic_tests =
  [
    Alcotest.test_case "map basic ops" `Quick (fun () ->
        let heap = mk_heap () in
        let m = Imap.open_or_create heap ~slot:0 in
        Imap.insert m 1 10;
        Imap.insert m 2 20;
        Imap.insert m 1 11;
        Alcotest.(check (option int)) "k1" (Some 11) (Imap.find m 1);
        Alcotest.(check (option int)) "k2" (Some 20) (Imap.find m 2);
        Alcotest.(check int) "cardinal" 2 (Imap.cardinal m);
        Alcotest.(check bool) "remove" true (Imap.remove m 1);
        Alcotest.(check bool) "remove absent" false (Imap.remove m 1);
        Alcotest.(check int) "cardinal after" 1 (Imap.cardinal m);
        check_heap_exact heap);
    Alcotest.test_case "map random ops match model + exact heap" `Quick
      (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let m = Imap.open_or_create heap ~slot:0 in
        let model = ref IntMap.empty in
        let rng = Random.State.make [| 5 |] in
        for _ = 1 to 2000 do
          let k = Random.State.int rng 100 in
          match Random.State.int rng 3 with
          | 0 | 1 ->
              let v = Random.State.int rng 1000 in
              Imap.insert m k v;
              model := IntMap.add k v !model
          | _ ->
              let removed = Imap.remove m k in
              Alcotest.(check bool) "remove agrees" (IntMap.mem k !model)
                removed;
              model := IntMap.remove k !model
        done;
        Alcotest.(check int) "cardinal" (IntMap.cardinal !model)
          (Imap.cardinal m);
        IntMap.iter
          (fun k v -> Alcotest.(check (option int)) "binding" (Some v)
              (Imap.find m k))
          !model;
        check_heap_exact heap);
    Alcotest.test_case "set basic ops" `Quick (fun () ->
        let module Iset = Mod_core.Dset.Make (Pfds.Kv.Int) in
        let heap = mk_heap () in
        let s = Iset.open_or_create heap ~slot:0 in
        Iset.add s 1;
        Iset.add s 2;
        Iset.add s 1;
        Alcotest.(check int) "cardinal" 2 (Iset.cardinal s);
        Alcotest.(check bool) "mem" true (Iset.mem s 1);
        Alcotest.(check bool) "removed" true (Iset.remove s 1);
        Alcotest.(check bool) "gone" false (Iset.mem s 1);
        check_heap_exact heap);
    Alcotest.test_case "stack basic ops" `Quick (fun () ->
        let heap = mk_heap () in
        let s = Mod_core.Dstack.open_or_create heap ~slot:0 in
        Mod_core.Dstack.push s (w 1);
        Mod_core.Dstack.push s (w 2);
        Alcotest.(check (option int)) "peek" (Some 2)
          (Option.map uw (Mod_core.Dstack.peek s));
        Alcotest.(check (option int)) "pop" (Some 2)
          (Option.map uw (Mod_core.Dstack.pop s));
        Alcotest.(check (option int)) "pop" (Some 1)
          (Option.map uw (Mod_core.Dstack.pop s));
        Alcotest.(check bool) "empty" true (Mod_core.Dstack.is_empty s);
        Alcotest.(check bool) "pop empty" true (Mod_core.Dstack.pop s = None);
        check_heap_exact heap);
    Alcotest.test_case "queue basic ops + churn stays leak-free" `Quick
      (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let q = Mod_core.Dqueue.open_or_create heap ~slot:0 in
        let model = Queue.create () in
        let rng = Random.State.make [| 9 |] in
        for i = 1 to 2000 do
          if Random.State.bool rng || Mod_core.Dqueue.is_empty q then begin
            Mod_core.Dqueue.enqueue q (w i);
            Queue.push i model
          end
          else
            let v = Mod_core.Dqueue.dequeue q in
            Alcotest.(check (option int)) "fifo" (Some (Queue.pop model))
              (Option.map uw v)
        done;
        Alcotest.(check int) "length" (Queue.length model)
          (Mod_core.Dqueue.length q);
        check_heap_exact heap);
    Alcotest.test_case "vector basic ops incl. swap" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let v = Mod_core.Dvec.open_or_create heap ~slot:0 in
        for i = 0 to 99 do
          Mod_core.Dvec.push_back v (w i)
        done;
        Mod_core.Dvec.set v 10 (w 1000);
        Alcotest.(check int) "set" 1000 (uw (Mod_core.Dvec.get v 10));
        Mod_core.Dvec.swap v 0 99;
        Alcotest.(check int) "swap lo" 99 (uw (Mod_core.Dvec.get v 0));
        Alcotest.(check int) "swap hi" 0 (uw (Mod_core.Dvec.get v 99));
        Alcotest.(check int) "pop" 0 (uw (Mod_core.Dvec.pop_back v));
        Alcotest.(check int) "size" 99 (Mod_core.Dvec.size v);
        check_heap_exact heap);
    Alcotest.test_case "update churn does not grow live memory" `Quick
      (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let m = Imap.open_or_create heap ~slot:0 in
        for k = 0 to 199 do
          Imap.insert m k k
        done;
        let allocator = Pmalloc.Heap.allocator heap in
        let live_before = Pmalloc.Allocator.live_words allocator in
        (* overwrite the same keys many times: shadows must be reclaimed *)
        for round = 1 to 20 do
          for k = 0 to 199 do
            Imap.insert m k (k * round)
          done
        done;
        let live_after = Pmalloc.Allocator.live_words allocator in
        Alcotest.(check bool)
          (Printf.sprintf "live stable (%d -> %d)" live_before live_after)
          true
          (live_after <= live_before + 64));
  ]

(* -- the one-ordering-point property ---------------------------------------- *)

let fase_tests =
  [
    Alcotest.test_case "every Basic map/set/stack/queue/vector op: 1 fence"
      `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let m = Imap.open_or_create heap ~slot:0 in
        let s = Mod_core.Dstack.open_or_create heap ~slot:1 in
        let q = Mod_core.Dqueue.open_or_create heap ~slot:2 in
        let v = Mod_core.Dvec.open_or_create heap ~slot:3 in
        for i = 0 to 63 do
          Imap.insert m i i;
          Mod_core.Dstack.push s (w i);
          Mod_core.Dqueue.enqueue q (w i);
          Mod_core.Dvec.push_back v (w i)
        done;
        let check_one label f =
          let _, profile = Mod_core.Fase.run heap f in
          Alcotest.(check int) (label ^ ": one fence") 1
            profile.Mod_core.Fase.fences
        in
        check_one "map insert" (fun () -> Imap.insert m 7 70);
        check_one "map insert new" (fun () -> Imap.insert m 1000 1);
        check_one "map remove" (fun () -> ignore (Imap.remove m 3));
        check_one "stack push" (fun () -> Mod_core.Dstack.push s (w 9));
        check_one "stack pop" (fun () -> ignore (Mod_core.Dstack.pop s));
        check_one "queue enqueue" (fun () -> Mod_core.Dqueue.enqueue q (w 9));
        check_one "queue dequeue (incl. reversal)" (fun () ->
            ignore (Mod_core.Dqueue.dequeue q));
        check_one "vector set" (fun () -> Mod_core.Dvec.set v 5 (w 1));
        check_one "vector push" (fun () -> Mod_core.Dvec.push_back v (w 1));
        check_one "vector pop" (fun () -> ignore (Mod_core.Dvec.pop_back v));
        check_one "vector swap (multi-update FASE)" (fun () ->
            Mod_core.Dvec.swap v 1 2));
    Alcotest.test_case "lookups: zero fences, zero flushes" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let m = Imap.open_or_create heap ~slot:0 in
        for i = 0 to 99 do
          Imap.insert m i i
        done;
        let _, profile =
          Mod_core.Fase.run heap (fun () ->
              for i = 0 to 99 do
                ignore (Imap.find m i)
              done)
        in
        Alcotest.(check int) "fences" 0 profile.Mod_core.Fase.fences;
        Alcotest.(check int) "flushes" 0 profile.Mod_core.Fase.flushes);
    Alcotest.test_case "CommitSiblings: 1 fence" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        (* parent with two map fields *)
        let parent = Pfds.Node.alloc heap ~words:2 in
        Pfds.Node.set heap parent 0 (Imap.empty_version heap);
        Pfds.Node.set heap parent 1 (Imap.empty_version heap);
        Pfds.Node.finish heap parent;
        Mod_core.Commit.single heap ~slot:0 (Pmem.Word.of_ptr parent);
        let _, profile =
          Mod_core.Fase.run heap (fun () ->
              let p =
                Pmem.Word.to_ptr (Pmalloc.Heap.root_get heap 0)
              in
              let f0 = Imap.insert_pure heap (Pfds.Node.get heap p 0) 1 10 in
              let f1 = Imap.insert_pure heap (Pfds.Node.get heap p 1) 2 20 in
              Mod_core.Commit.siblings heap ~slot:0 [ (0, f0); (1, f1) ])
        in
        Alcotest.(check int) "one fence" 1 profile.Mod_core.Fase.fences);
    (* A fresh heap's root summary covers slots 0 and 1 only; the first
       commit to any other slot binds it before the fence it already
       issues. *)
    Alcotest.test_case "first FASE on a fresh slot: 1 fence" `Quick
      (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let check_one label slot f =
          let _, profile = Mod_core.Fase.run heap f in
          Alcotest.(check int) (label ^ ": one fence") 1
            profile.Mod_core.Fase.fences;
          match
            Pmalloc.Heap.decode_summary
              (Pmem.Region.peek_durable (Pmalloc.Heap.region heap)
                 Pmalloc.Heap.summary_off)
          with
          | Some lines when lines land Pmalloc.Heap.summary_bit slot <> 0 -> ()
          | _ -> Alcotest.failf "%s: slot %d missing from the summary" label slot
        in
        let m = Imap.open_or_create heap ~slot:4 in
        check_one "single" 4 (fun () -> Imap.insert m 1 10);
        let parent = Pfds.Node.alloc heap ~words:1 in
        Pfds.Node.set heap parent 0 (Imap.empty_version heap);
        Pfds.Node.finish heap parent;
        check_one "siblings parent" 6 (fun () ->
            Mod_core.Commit.single heap ~slot:6 (Pmem.Word.of_ptr parent));
        check_one "siblings" 6 (fun () ->
            let f = Imap.insert_pure heap (Pfds.Node.get heap parent 0) 2 20 in
            Mod_core.Commit.siblings heap ~slot:6 [ (0, f) ]);
        check_one "batch" 8 (fun () ->
            let b = Mod_core.Batch.create heap in
            Mod_core.Batch.stage b ~slot:8 (fun v -> Imap.insert_pure heap v 3 30);
            Mod_core.Batch.stage b ~slot:8 (fun v -> Imap.insert_pure heap v 4 40);
            ignore (Mod_core.Batch.commit b : Mod_core.Batch.commit_point));
        check_one "commit_cas" 10 (fun () ->
            ignore
              (Mod_core.Commit.commit_cas heap ~slot:10 ~build:(fun v ->
                   Some (Imap.insert_pure heap v 5 50, []))
                : int)));
  ]

(* -- Composition interface --------------------------------------------------- *)

let composition_tests =
  [
    Alcotest.test_case "multi-update single ds (Figure 7b)" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let m = Imap.open_or_create heap ~slot:0 in
        Imap.insert m 1 10;
        Imap.insert m 2 20;
        (* swap the values of keys 1 and 2 failure-atomically *)
        let v0 = Mod_core.Handle.current m in
        let v1 = Option.get (Imap.find_in heap v0 1) in
        let v2 = Option.get (Imap.find_in heap v0 2) in
        let shadow = Imap.insert_pure heap v0 1 v2 in
        let shadow_shadow = Imap.insert_pure heap shadow 2 v1 in
        Mod_core.Handle.commit ~intermediates:[ shadow ] m shadow_shadow;
        Alcotest.(check (option int)) "k1 got v2" (Some 20) (Imap.find m 1);
        Alcotest.(check (option int)) "k2 got v1" (Some 10) (Imap.find m 2);
        check_heap_exact heap);
    Alcotest.test_case "CommitSiblings updates parent fields atomically"
      `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let parent = Pfds.Node.alloc heap ~words:3 in
        Pfds.Node.set heap parent 0 (Imap.empty_version heap);
        Pfds.Node.set heap parent 1 (Imap.empty_version heap);
        Pfds.Node.set heap parent 2 (w 12345) (* non-ds field is preserved *);
        Pfds.Node.finish heap parent;
        Mod_core.Commit.single heap ~slot:0 (Pmem.Word.of_ptr parent);
        let p () = Pmem.Word.to_ptr (Pmalloc.Heap.root_get heap 0) in
        let f0 = Imap.insert_pure heap (Pfds.Node.get heap (p ()) 0) 1 10 in
        let f1 = Imap.insert_pure heap (Pfds.Node.get heap (p ()) 1) 2 20 in
        Mod_core.Commit.siblings heap ~slot:0 [ (0, f0); (1, f1) ];
        let parent' = p () in
        Alcotest.(check bool) "parent replaced" true (parent' <> parent);
        Alcotest.(check (option int)) "field 0" (Some 10)
          (Imap.find_in heap (Pfds.Node.get heap parent' 0) 1);
        Alcotest.(check (option int)) "field 1" (Some 20)
          (Imap.find_in heap (Pfds.Node.get heap parent' 1) 2);
        Alcotest.(check int) "scalar field copied" 12345
          (uw (Pfds.Node.get heap parent' 2));
        check_heap_exact heap);
    Alcotest.test_case "CommitUnrelated updates two roots atomically" `Quick
      (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let tx = Pmstm.Tx.create heap ~version:Pmstm.Tx.V1_5 in
        let m1 = Imap.open_or_create heap ~slot:0 in
        let m2 = Imap.open_or_create heap ~slot:1 in
        Imap.insert m1 1 100;
        (* move key 1 from m1 to m2 in one FASE *)
        let v1 = Mod_core.Handle.current m1 in
        let v2 = Mod_core.Handle.current m2 in
        let value = Option.get (Imap.find_in heap v1 1) in
        let v1', removed = Imap.remove_pure heap v1 1 in
        Alcotest.(check bool) "removed" true removed;
        let v2' = Imap.insert_pure heap v2 1 value in
        Mod_core.Commit.unrelated heap tx [ (0, v1'); (1, v2') ];
        Alcotest.(check (option int)) "gone from m1" None (Imap.find m1 1);
        Alcotest.(check (option int)) "moved to m2" (Some 100) (Imap.find m2 1));
    Alcotest.test_case "queue-to-map move in one FASE (unrelated)" `Quick
      (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let tx = Pmstm.Tx.create heap ~version:Pmstm.Tx.V1_5 in
        let q = Mod_core.Dqueue.open_or_create heap ~slot:0 in
        let m = Imap.open_or_create heap ~slot:1 in
        Mod_core.Dqueue.enqueue q (w 7);
        let qv = Mod_core.Handle.current q in
        (match Mod_core.Dqueue.dequeue_pure heap qv with
        | Some (v, qv') ->
            let mv =
              Imap.insert_pure heap (Mod_core.Handle.current m) (uw v) 1
            in
            Mod_core.Commit.unrelated heap tx [ (0, qv'); (1, mv) ]
        | None -> Alcotest.fail "queue should not be empty");
        Alcotest.(check bool) "queue empty" true (Mod_core.Dqueue.is_empty q);
        Alcotest.(check (option int)) "map has it" (Some 1) (Imap.find m 7));
  ]

(* -- recovery ----------------------------------------------------------------- *)

let recovery_tests =
  [
    Alcotest.test_case "recover a committed map after a crash" `Quick
      (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let m = Imap.open_or_create heap ~slot:0 in
        for k = 0 to 99 do
          Imap.insert m k (k * 2)
        done;
        (* close the last epoch: the final root write's flush is ordered by
           the next fence (Section 5.1) *)
        Pmalloc.Heap.sfence heap;
        let report = Mod_core.Recovery.crash_and_recover_exn heap in
        Alcotest.(check bool)
          "live blocks found" true
          (report.Mod_core.Recovery.gc.Pmalloc.Recovery_gc.live_blocks > 0);
        let m' = Imap.open_or_create heap ~slot:0 in
        Alcotest.(check int) "cardinal preserved" 100 (Imap.cardinal m');
        for k = 0 to 99 do
          Alcotest.(check (option int)) "binding" (Some (k * 2))
            (Imap.find m' k)
        done;
        check_heap_exact heap);
    Alcotest.test_case "interrupted FASE leaks are reclaimed" `Quick
      (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let m = Imap.open_or_create heap ~slot:0 in
        for k = 0 to 49 do
          Imap.insert m k k
        done;
        (* start an update but crash before Commit: shadow leaks *)
        let shadow =
          Imap.insert_pure heap (Mod_core.Handle.current m) 1000 1
        in
        ignore (shadow : Pmem.Word.t);
        let report =
          Mod_core.Recovery.crash_and_recover_exn
            ~mode:Pmem.Region.Keep_inflight heap
        in
        Alcotest.(check bool)
          "leak reclaimed" true
          (report.Mod_core.Recovery.gc.Pmalloc.Recovery_gc.reclaimed_words > 0);
        let m' = Imap.open_or_create heap ~slot:0 in
        Alcotest.(check (option int)) "uncommitted key absent" None
          (Imap.find m' 1000);
        Alcotest.(check int) "old state intact" 50 (Imap.cardinal m');
        check_heap_exact heap);
  ]

(* -- Section 5.4 consistency checker ------------------------------------------ *)

let consistency_tests =
  [
    Alcotest.test_case "MOD workload trace passes" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) ~trace:true () in
        let m = Imap.open_or_create heap ~slot:0 in
        for k = 0 to 199 do
          Imap.insert m k k
        done;
        for k = 0 to 99 do
          ignore (Imap.remove m k)
        done;
        let report = Mod_core.Consistency.check (Pmalloc.Heap.trace heap) in
        if not (Mod_core.Consistency.ok report) then
          Alcotest.failf "checker found: %a" Mod_core.Consistency.pp_report
            report);
    Alcotest.test_case "stack/queue/vector traces pass" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) ~trace:true () in
        let s = Mod_core.Dstack.open_or_create heap ~slot:0 in
        let q = Mod_core.Dqueue.open_or_create heap ~slot:1 in
        let v = Mod_core.Dvec.open_or_create heap ~slot:2 in
        for i = 0 to 99 do
          Mod_core.Dstack.push s (w i);
          Mod_core.Dqueue.enqueue q (w i);
          Mod_core.Dvec.push_back v (w i)
        done;
        for _ = 0 to 49 do
          ignore (Mod_core.Dstack.pop s);
          ignore (Mod_core.Dqueue.dequeue q)
        done;
        Mod_core.Dvec.swap v 1 2;
        let report = Mod_core.Consistency.check (Pmalloc.Heap.trace heap) in
        if not (Mod_core.Consistency.ok report) then
          Alcotest.failf "checker found: %a" Mod_core.Consistency.pp_report
            report);
    Alcotest.test_case "in-place write is caught (negative control)" `Quick
      (fun () ->
        let heap = mk_heap ~trace:true () in
        (* a committed cell... *)
        let cell = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:1 in
        Pmalloc.Heap.store heap cell (w 1);
        Pmalloc.Heap.flush_block heap cell;
        Mod_core.Commit.single heap ~slot:0 (Pmem.Word.of_ptr cell);
        (* ...then a buggy in-place overwrite outside any commit *)
        Pmalloc.Heap.store heap cell (w 2);
        Pmalloc.Heap.clwb heap cell;
        Pmalloc.Heap.sfence heap;
        let report = Mod_core.Consistency.check (Pmalloc.Heap.trace heap) in
        Alcotest.(check bool) "caught" false (Mod_core.Consistency.ok report);
        match report.Mod_core.Consistency.violations with
        | Mod_core.Consistency.In_place_write { off; _ } :: _ ->
            Alcotest.(check int) "right offset" cell off
        | _ -> Alcotest.fail "expected an in-place write violation");
    Alcotest.test_case "missing flush is caught (negative control)" `Quick
      (fun () ->
        let heap = mk_heap ~trace:true () in
        let cell = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:1 in
        Pmalloc.Heap.store heap cell (w 1);
        (* forgot flush_block here *)
        Pmalloc.Heap.sfence heap;
        let report = Mod_core.Consistency.check (Pmalloc.Heap.trace heap) in
        Alcotest.(check bool) "caught" false (Mod_core.Consistency.ok report);
        match report.Mod_core.Consistency.violations with
        | Mod_core.Consistency.Unflushed_write _ :: _ -> ()
        | _ -> Alcotest.fail "expected an unflushed write violation");
    Alcotest.test_case "PMDK-style tx fails invariant 1 by design" `Quick
      (fun () ->
        let heap = mk_heap ~trace:true () in
        let tx = Pmstm.Tx.create heap ~version:Pmstm.Tx.V1_5 in
        let cell = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:1 in
        Pmalloc.Heap.store heap cell (w 1);
        Pmalloc.Heap.flush_block heap cell;
        Pmalloc.Heap.sfence heap;
        Pmem.Trace.clear (Pmalloc.Heap.trace heap);
        Pmstm.Tx.run tx (fun () ->
            Pmstm.Tx.add tx ~off:cell ~words:1;
            Pmstm.Tx.store tx cell (w 2));
        let report = Mod_core.Consistency.check (Pmalloc.Heap.trace heap) in
        Alcotest.(check bool)
          "in-place transactions violate the MOD discipline" false
          (Mod_core.Consistency.ok report));
  ]

(* -- the recipe-made sixth datastructure -------------------------------------- *)

let dpqueue_tests =
  [
    Alcotest.test_case "priority queue basic ops" `Quick (fun () ->
        let heap = mk_heap () in
        let pq = Mod_core.Dpqueue.open_or_create heap ~slot:0 in
        List.iter (Mod_core.Dpqueue.insert pq) [ 5; 1; 4; 1; 3 ];
        Alcotest.(check int) "cardinal" 5 (Mod_core.Dpqueue.cardinal pq);
        Alcotest.(check (option int)) "min" (Some 1) (Mod_core.Dpqueue.find_min pq);
        let drained = List.init 5 (fun _ -> Mod_core.Dpqueue.delete_min pq) in
        Alcotest.(check (list (option int)))
          "sorted drain"
          [ Some 1; Some 1; Some 3; Some 4; Some 5 ]
          drained;
        Alcotest.(check bool) "empty" true (Mod_core.Dpqueue.is_empty pq);
        Alcotest.(check (option int)) "delete on empty" None
          (Mod_core.Dpqueue.delete_min pq);
        check_heap_exact heap);
    Alcotest.test_case "priority queue: one fence per op" `Quick (fun () ->
        let heap = mk_heap () in
        let pq = Mod_core.Dpqueue.open_or_create heap ~slot:0 in
        for i = 0 to 63 do
          Mod_core.Dpqueue.insert pq (63 - i)
        done;
        let _, p1 = Mod_core.Fase.run heap (fun () -> Mod_core.Dpqueue.insert pq 7) in
        Alcotest.(check int) "insert fences" 1 p1.Mod_core.Fase.fences;
        let _, p2 =
          Mod_core.Fase.run heap (fun () -> ignore (Mod_core.Dpqueue.delete_min pq))
        in
        Alcotest.(check int) "delete fences" 1 p2.Mod_core.Fase.fences);
    Alcotest.test_case "priority queue survives crashes" `Quick (fun () ->
        let heap = mk_heap () in
        let pq = Mod_core.Dpqueue.open_or_create heap ~slot:0 in
        for i = 0 to 49 do
          Mod_core.Dpqueue.insert pq (i * 3 mod 17)
        done;
        Pmalloc.Heap.sfence heap;
        ignore (Mod_core.Recovery.crash_and_recover_exn heap);
        let pq = Mod_core.Dpqueue.open_or_create heap ~slot:0 in
        Alcotest.(check int) "all 50 survive" 50 (Mod_core.Dpqueue.cardinal pq);
        Alcotest.(check (option int)) "min correct" (Some 0)
          (Mod_core.Dpqueue.find_min pq);
        check_heap_exact heap);
    Alcotest.test_case "priority queue trace passes the checker" `Quick
      (fun () ->
        let heap = mk_heap ~trace:true () in
        let pq = Mod_core.Dpqueue.open_or_create heap ~slot:0 in
        for i = 0 to 99 do
          Mod_core.Dpqueue.insert pq (i * 7 mod 31)
        done;
        for _ = 0 to 49 do
          ignore (Mod_core.Dpqueue.delete_min pq)
        done;
        let report = Mod_core.Consistency.check (Pmalloc.Heap.trace heap) in
        if not (Mod_core.Consistency.ok report) then
          Alcotest.failf "checker found: %a" Mod_core.Consistency.pp_report
            report);
  ]

(* -- durable RRB sequence ------------------------------------------------------ *)

let dseq_tests =
  [
    Alcotest.test_case "append and restrict are one-fence FASEs" `Quick
      (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let a = Mod_core.Dseq.open_or_create heap ~slot:0 in
        let b = Mod_core.Dseq.open_or_create heap ~slot:1 in
        for i = 0 to 199 do
          Mod_core.Dseq.push_back a (w i)
        done;
        for i = 0 to 99 do
          Mod_core.Dseq.push_back b (w (1000 + i))
        done;
        let _, p1 = Mod_core.Fase.run heap (fun () -> Mod_core.Dseq.append a b) in
        Alcotest.(check int) "append: one fence" 1 p1.Mod_core.Fase.fences;
        Alcotest.(check int) "appended size" 300 (Mod_core.Dseq.size a);
        Alcotest.(check int) "b untouched" 100 (Mod_core.Dseq.size b);
        Alcotest.(check int) "seam value" 1000
          (uw (Mod_core.Dseq.get a 200));
        let _, p2 =
          Mod_core.Fase.run heap (fun () ->
              Mod_core.Dseq.restrict a ~pos:150 ~len:100)
        in
        Alcotest.(check int) "restrict: one fence" 1 p2.Mod_core.Fase.fences;
        Alcotest.(check int) "restricted size" 100 (Mod_core.Dseq.size a);
        Alcotest.(check int) "first kept" 150 (uw (Mod_core.Dseq.get a 0));
        check_heap_exact heap);
    Alcotest.test_case "sequence survives crash after append" `Quick
      (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let a = Mod_core.Dseq.open_or_create heap ~slot:0 in
        let b = Mod_core.Dseq.open_or_create heap ~slot:1 in
        for i = 0 to 63 do
          Mod_core.Dseq.push_back a (w i);
          Mod_core.Dseq.push_back b (w (100 + i))
        done;
        Mod_core.Dseq.append a b;
        Pmalloc.Heap.sfence heap;
        ignore (Mod_core.Recovery.crash_and_recover_exn heap);
        let a = Mod_core.Dseq.open_or_create heap ~slot:0 in
        Alcotest.(check int) "size preserved" 128 (Mod_core.Dseq.size a);
        Alcotest.(check int) "content" 100 (uw (Mod_core.Dseq.get a 64));
        check_heap_exact heap);
    Alcotest.test_case "dseq trace passes the checker" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) ~trace:true () in
        let a = Mod_core.Dseq.open_or_create heap ~slot:0 in
        for i = 0 to 99 do
          Mod_core.Dseq.push_back a (w i)
        done;
        Mod_core.Dseq.restrict a ~pos:10 ~len:50;
        Mod_core.Dseq.set a 5 (w (-1));
        let report = Mod_core.Consistency.check (Pmalloc.Heap.trace heap) in
        if not (Mod_core.Consistency.ok report) then
          Alcotest.failf "checker found: %a" Mod_core.Consistency.pp_report
            report);
  ]

let () =
  Alcotest.run "mod_core"
    [
      ("basic", basic_tests);
      ("fase", fase_tests);
      ("composition", composition_tests);
      ("recovery", recovery_tests);
      ("consistency", consistency_tests);
      ("dpqueue", dpqueue_tests);
      ("dseq", dseq_tests);
    ]
