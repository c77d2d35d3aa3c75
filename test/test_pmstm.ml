(* Tests for the PMDK-style transaction baseline: log semantics, abort and
   crash rollback, fence profiles, and the transactional datastructures. *)

let w = Pmem.Word.of_int
let uw v = Pmem.Word.to_int v

let mk ?(version = Pmstm.Tx.V1_5) () =
  let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 18) () in
  let tx = Pmstm.Tx.create heap ~version in
  (heap, tx)

(* A committed cell to mutate transactionally. *)
let mk_cell heap v =
  let cell = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:1 in
  Pmalloc.Heap.store heap cell (w v);
  Pmalloc.Heap.flush_block heap cell;
  Pmalloc.Heap.sfence heap;
  Pmalloc.Heap.root_set heap 0 (Pmem.Word.of_ptr cell);
  Pmalloc.Heap.sfence heap;
  cell

let tx_tests =
  [
    Alcotest.test_case "commit applies in-place writes durably" `Quick
      (fun () ->
        let heap, tx = mk () in
        let cell = mk_cell heap 1 in
        Pmstm.Tx.run tx (fun () ->
            Pmstm.Tx.add tx ~off:cell ~words:1;
            Pmstm.Tx.store tx cell (w 2));
        Alcotest.(check int) "visible" 2 (uw (Pmalloc.Heap.load heap cell));
        Alcotest.(check int) "durable" 2
          (uw (Pmem.Region.peek_durable (Pmalloc.Heap.region heap) cell)));
    Alcotest.test_case "abort rolls back in-place writes" `Quick (fun () ->
        let heap, tx = mk () in
        let cell = mk_cell heap 1 in
        (try
           Pmstm.Tx.run tx (fun () ->
               Pmstm.Tx.add tx ~off:cell ~words:1;
               Pmstm.Tx.store tx cell (w 99);
               failwith "deliberate")
         with Failure _ -> ());
        Alcotest.(check int) "rolled back" 1 (uw (Pmalloc.Heap.load heap cell)));
    Alcotest.test_case "abort frees tx allocations" `Quick (fun () ->
        let heap, tx = mk () in
        let alloc = Pmalloc.Heap.allocator heap in
        let leaked = ref 0 in
        (try
           Pmstm.Tx.run tx (fun () ->
               leaked := Pmstm.Tx.alloc tx ~kind:Pmalloc.Block.Raw ~words:4;
               failwith "deliberate")
         with Failure _ -> ());
        Alcotest.(check bool)
          "freed" false
          (Pmalloc.Allocator.is_allocated alloc !leaked));
    Alcotest.test_case "store without add is rejected" `Quick (fun () ->
        let heap, tx = mk () in
        let cell = mk_cell heap 1 in
        Alcotest.(check bool)
          "raises" true
          (try
             Pmstm.Tx.run tx (fun () -> Pmstm.Tx.store tx cell (w 2));
             false
           with Failure _ -> true);
        Alcotest.(check int) "unchanged" 1 (uw (Pmalloc.Heap.load heap cell)));
    Alcotest.test_case "crash mid-tx rolls back from durable log" `Quick
      (fun () ->
        let heap, tx = mk ~version:Pmstm.Tx.V1_4 () in
        let cell = mk_cell heap 1 in
        (* start a tx, snapshot, overwrite, flush the data... then crash
           before commit invalidates the log *)
        Pmstm.Tx.begin_ tx;
        Pmstm.Tx.add tx ~off:cell ~words:1;
        Pmstm.Tx.store tx cell (w 99);
        Pmalloc.Heap.clwb heap cell;
        Pmalloc.Heap.sfence heap;
        Pmalloc.Heap.crash ~mode:Pmem.Region.Keep_inflight heap;
        let rolled = Pmstm.Tx.recover heap in
        Alcotest.(check bool) "log replayed" true rolled;
        Alcotest.(check int) "old value restored" 1
          (uw (Pmalloc.Heap.load heap cell)));
    Alcotest.test_case "crash after commit preserves new value" `Quick
      (fun () ->
        let heap, tx = mk ~version:Pmstm.Tx.V1_4 () in
        let cell = mk_cell heap 1 in
        Pmstm.Tx.run tx (fun () ->
            Pmstm.Tx.add tx ~off:cell ~words:1;
            Pmstm.Tx.store tx cell (w 2));
        Pmalloc.Heap.crash heap;
        let rolled = Pmstm.Tx.recover heap in
        Alcotest.(check bool) "nothing to replay" false rolled;
        Alcotest.(check int) "committed value" 2
          (uw (Pmalloc.Heap.load heap cell)));
    Alcotest.test_case "nested transactions flatten" `Quick (fun () ->
        let heap, tx = mk () in
        let cell = mk_cell heap 1 in
        Pmstm.Tx.run tx (fun () ->
            Pmstm.Tx.add tx ~off:cell ~words:1;
            Pmstm.Tx.store tx cell (w 2);
            Pmstm.Tx.begin_ tx;
            Pmstm.Tx.store tx cell (w 3);
            Pmstm.Tx.commit tx;
            Alcotest.(check bool) "still in tx" true (Pmstm.Tx.in_tx tx));
        Alcotest.(check bool) "outer committed" false (Pmstm.Tx.in_tx tx);
        Alcotest.(check int) "final value" 3 (uw (Pmalloc.Heap.load heap cell)));
    Alcotest.test_case "v1.4 fences more than v1.5" `Quick (fun () ->
        let count version =
          let heap, tx = mk ~version () in
          let cells = Array.init 2 (fun i -> mk_cell heap i) in
          let stats = Pmalloc.Heap.stats heap in
          let before = stats.Pmem.Stats.fences in
          Pmstm.Tx.run tx (fun () ->
              Array.iter
                (fun c ->
                  Pmstm.Tx.add tx ~off:c ~words:1;
                  Pmstm.Tx.store tx c (w 9))
                cells);
          stats.Pmem.Stats.fences - before
        in
        let f14 = count Pmstm.Tx.V1_4 in
        let f15 = count Pmstm.Tx.V1_5 in
        Alcotest.(check bool)
          (Printf.sprintf "v1.4 (%d) > v1.5 (%d)" f14 f15)
          true (f14 > f15);
        (* paper Section 3: typical PMDK transactions show 5-11 fences
           (undo logging can reach 50 on large transactions) *)
        List.iter
          (fun (v, n) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s in 5-11 range (%d)" v n)
              true
              (n >= 5 && n <= 11))
          [ ("v1.4", f14); ("v1.5", f15) ]);
  ]

(* -- transactional hashmap vs model ---------------------------------------- *)

module Pm_map = Pmstm.Pm_hashmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)
module IntMap = Map.Make (Int)

let hashmap_tests =
  [
    Alcotest.test_case "insert/find/remove" `Quick (fun () ->
        let heap, tx = mk () in
        let desc =
          Pmstm.Tx.run tx (fun () -> Pm_map.create tx ~nbuckets:64)
        in
        Pmstm.Tx.run tx (fun () ->
            Alcotest.(check bool) "added" true (Pm_map.insert tx desc 1 10));
        Pmstm.Tx.run tx (fun () ->
            Alcotest.(check bool) "updated" false (Pm_map.insert tx desc 1 20));
        Alcotest.(check (option int)) "find" (Some 20) (Pm_map.find heap desc 1);
        Alcotest.(check int) "cardinal" 1 (Pm_map.cardinal heap desc);
        Pmstm.Tx.run tx (fun () ->
            Alcotest.(check bool) "removed" true (Pm_map.remove tx desc 1));
        Alcotest.(check (option int)) "gone" None (Pm_map.find heap desc 1));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"hashmap agrees with Map (qcheck)" ~count:50
         QCheck.(
           list_of_size (Gen.int_range 0 150)
             (pair (int_range 0 40) (int_range 0 1000)))
         (fun ops ->
           let heap, tx = mk () in
           let desc =
             Pmstm.Tx.run tx (fun () -> Pm_map.create tx ~nbuckets:16)
           in
           let model = ref IntMap.empty in
           List.iter
             (fun (k, v) ->
               if v mod 5 = 0 then begin
                 let removed =
                   Pmstm.Tx.run tx (fun () -> Pm_map.remove tx desc k)
                 in
                 let removed_model = IntMap.mem k !model in
                 model := IntMap.remove k !model;
                 if removed <> removed_model then failwith "remove mismatch"
               end
               else begin
                 ignore
                   (Pmstm.Tx.run tx (fun () -> Pm_map.insert tx desc k v)
                     : bool);
                 model := IntMap.add k v !model
               end)
             ops;
           IntMap.for_all (fun k v -> Pm_map.find heap desc k = Some v) !model
           && Pm_map.cardinal heap desc = IntMap.cardinal !model));
    Alcotest.test_case "abort undoes inserts" `Quick (fun () ->
        let heap, tx = mk () in
        let desc =
          Pmstm.Tx.run tx (fun () -> Pm_map.create tx ~nbuckets:16)
        in
        Pmstm.Tx.run tx (fun () -> ignore (Pm_map.insert tx desc 1 10 : bool));
        (try
           Pmstm.Tx.run tx (fun () ->
               ignore (Pm_map.insert tx desc 2 20 : bool);
               failwith "deliberate")
         with Failure _ -> ());
        Alcotest.(check (option int)) "committed stays" (Some 10)
          (Pm_map.find heap desc 1);
        Alcotest.(check (option int)) "aborted gone" None
          (Pm_map.find heap desc 2);
        Alcotest.(check int) "count restored" 1 (Pm_map.cardinal heap desc));
  ]

(* -- transactional array, stack, queue -------------------------------------- *)

let array_tests =
  [
    Alcotest.test_case "push/set/get/swap" `Quick (fun () ->
        let heap, tx = mk () in
        let desc =
          Pmstm.Tx.run tx (fun () -> Pmstm.Pm_array.create tx ~capacity:8)
        in
        for i = 0 to 9 do
          Pmstm.Tx.run tx (fun () -> Pmstm.Pm_array.push_back tx desc (w i))
        done;
        (* pushed past capacity: growth happened inside a tx *)
        Alcotest.(check int) "size" 10 (Pmstm.Pm_array.size heap desc);
        for i = 0 to 9 do
          Alcotest.(check int) "get" i (uw (Pmstm.Pm_array.get heap desc i))
        done;
        Pmstm.Tx.run tx (fun () -> Pmstm.Pm_array.set tx desc 3 (w 33));
        Alcotest.(check int) "set" 33 (uw (Pmstm.Pm_array.get heap desc 3));
        Pmstm.Tx.run tx (fun () -> Pmstm.Pm_array.swap tx desc 0 9);
        Alcotest.(check int) "swap lo" 9 (uw (Pmstm.Pm_array.get heap desc 0));
        Alcotest.(check int) "swap hi" 0 (uw (Pmstm.Pm_array.get heap desc 9)));
    Alcotest.test_case "aborted swap leaves both elements" `Quick (fun () ->
        let heap, tx = mk () in
        let desc =
          Pmstm.Tx.run tx (fun () -> Pmstm.Pm_array.create tx ~capacity:4)
        in
        Pmstm.Tx.run tx (fun () ->
            Pmstm.Pm_array.push_back tx desc (w 1);
            Pmstm.Pm_array.push_back tx desc (w 2));
        (try
           Pmstm.Tx.run tx (fun () ->
               Pmstm.Pm_array.swap tx desc 0 1;
               failwith "deliberate")
         with Failure _ -> ());
        Alcotest.(check int) "elem0" 1 (uw (Pmstm.Pm_array.get heap desc 0));
        Alcotest.(check int) "elem1" 2 (uw (Pmstm.Pm_array.get heap desc 1)));
  ]

let stack_queue_tests =
  [
    Alcotest.test_case "stack lifo" `Quick (fun () ->
        let heap, tx = mk () in
        let desc = Pmstm.Tx.run tx (fun () -> Pmstm.Pm_stack.create tx) in
        for i = 0 to 9 do
          Pmstm.Tx.run tx (fun () -> Pmstm.Pm_stack.push tx desc (w i))
        done;
        Alcotest.(check int) "length" 10 (Pmstm.Pm_stack.length heap desc);
        for i = 9 downto 0 do
          let v = Pmstm.Tx.run tx (fun () -> Pmstm.Pm_stack.pop tx desc) in
          Alcotest.(check (option int)) "pop" (Some i) (Option.map uw v)
        done;
        Alcotest.(check bool) "empty" true (Pmstm.Pm_stack.is_empty heap desc));
    Alcotest.test_case "queue fifo" `Quick (fun () ->
        let heap, tx = mk () in
        let desc = Pmstm.Tx.run tx (fun () -> Pmstm.Pm_queue.create tx) in
        for i = 0 to 9 do
          Pmstm.Tx.run tx (fun () -> Pmstm.Pm_queue.enqueue tx desc (w i))
        done;
        for i = 0 to 9 do
          let v = Pmstm.Tx.run tx (fun () -> Pmstm.Pm_queue.dequeue tx desc) in
          Alcotest.(check (option int)) "dequeue" (Some i) (Option.map uw v)
        done;
        Alcotest.(check bool) "empty" true (Pmstm.Pm_queue.is_empty heap desc);
        (* refill after emptying: head/tail reset correctly *)
        Pmstm.Tx.run tx (fun () -> Pmstm.Pm_queue.enqueue tx desc (w 42));
        let v = Pmstm.Tx.run tx (fun () -> Pmstm.Pm_queue.dequeue tx desc) in
        Alcotest.(check (option int)) "after refill" (Some 42) (Option.map uw v));
    Alcotest.test_case "pop on empty stack/queue" `Quick (fun () ->
        let _heap, tx = mk () in
        let sdesc = Pmstm.Tx.run tx (fun () -> Pmstm.Pm_stack.create tx) in
        let qdesc = Pmstm.Tx.run tx (fun () -> Pmstm.Pm_queue.create tx) in
        Alcotest.(check bool)
          "stack none" true
          (Pmstm.Tx.run tx (fun () -> Pmstm.Pm_stack.pop tx sdesc) = None);
        Alcotest.(check bool)
          "queue none" true
          (Pmstm.Tx.run tx (fun () -> Pmstm.Pm_queue.dequeue tx qdesc) = None));
  ]

let edge_tests =
  [
    Alcotest.test_case "log overflow grows the log and retries" `Quick
      (fun () ->
        let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 18) () in
        let tx =
          Pmstm.Tx.create ~log_capacity_words:64 heap ~version:Pmstm.Tx.V1_5
        in
        (* a committed 50-word block: snapshotting it word by word needs
           150 log words, overflowing the 64-word log -- the transaction
           must abort through the undo path, grow the log and retry, not
           die in the middle of the FASE *)
        let blk = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:50 in
        for i = 0 to 49 do
          Pmalloc.Heap.store heap (blk + i) (w i)
        done;
        Pmalloc.Heap.flush_block heap blk;
        Pmalloc.Heap.sfence heap;
        Pmstm.Tx.run tx (fun () ->
            for i = 0 to 49 do
              Pmstm.Tx.add tx ~off:(blk + i) ~words:1;
              Pmstm.Tx.store tx (blk + i) (w (100 + i))
            done);
        for i = 0 to 49 do
          Alcotest.(check int)
            (Printf.sprintf "word %d updated" i)
            (100 + i)
            (uw (Pmalloc.Heap.load heap (blk + i)))
        done;
        Alcotest.(check bool)
          "log grew" true
          (Pmstm.Tx.log_capacity tx > 64);
        (* the grown log is installed durably: recovery after a crash
           still finds exactly one valid (empty) log *)
        Pmalloc.Heap.crash heap;
        Alcotest.(check bool) "no rollback needed" false (Pmstm.Tx.recover heap));
    Alcotest.test_case "unsatisfiable log demand is a typed Log_full" `Quick
      (fun () ->
        let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 20) () in
        let tx =
          Pmstm.Tx.create ~log_capacity_words:8 heap ~version:Pmstm.Tx.V1_5
        in
        let blk =
          Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:4096
        in
        Pmalloc.Heap.flush_block heap blk;
        Pmalloc.Heap.sfence heap;
        (* one 4096-word snapshot never fits 8 * 2^6 = 512 words: after
           the growth retries are exhausted the typed Log_full surfaces
           and the transaction is aborted, leaving the heap recoverable *)
        Alcotest.(check bool)
          "raises Log_full" true
          (try
             Pmstm.Tx.run tx (fun () ->
                 Pmstm.Tx.add tx ~off:blk ~words:4096);
             false
           with Pmstm.Tx.Log_full -> true);
        Alcotest.(check bool) "tx aborted" false (Pmstm.Tx.in_tx tx);
        Alcotest.(check bool)
          "recovery clean" true
          (match Mod_core.Recovery.recover ~stm:true heap with
          | Ok _ -> true
          | Error _ -> false));
    Alcotest.test_case "store_fresh rejects non-fresh targets" `Quick
      (fun () ->
        let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 18) () in
        let tx = Pmstm.Tx.create heap ~version:Pmstm.Tx.V1_5 in
        let cell = mk_cell heap 0 in
        Alcotest.(check bool)
          "raises" true
          (try
             Pmstm.Tx.run tx (fun () ->
                 Pmstm.Tx.store_fresh tx cell (w 1));
             false
           with Failure _ -> true);
        ignore cell);
    Alcotest.test_case "ops outside a transaction are rejected" `Quick
      (fun () ->
        let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 18) () in
        let tx = Pmstm.Tx.create heap ~version:Pmstm.Tx.V1_5 in
        let checks =
          [
            (fun () -> Pmstm.Tx.add tx ~off:100 ~words:1);
            (fun () -> Pmstm.Tx.store tx 100 (w 1));
            (fun () ->
              ignore (Pmstm.Tx.alloc tx ~kind:Pmalloc.Block.Raw ~words:2));
            (fun () -> Pmstm.Tx.commit tx);
            (fun () -> Pmstm.Tx.abort tx);
          ]
        in
        List.iter
          (fun f ->
            Alcotest.(check bool)
              "raises" true
              (try
                 f ();
                 false
               with Invalid_argument _ -> true))
          checks);
    Alcotest.test_case "double-range add is deduplicated" `Quick (fun () ->
        let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 18) () in
        let tx = Pmstm.Tx.create heap ~version:Pmstm.Tx.V1_4 in
        let cell = mk_cell heap 0 in
        let stats = Pmalloc.Heap.stats heap in
        Pmstm.Tx.run tx (fun () ->
            Pmstm.Tx.add tx ~off:cell ~words:1;
            let fences = stats.Pmem.Stats.fences in
            (* a second add of the same covered range must be free *)
            Pmstm.Tx.add tx ~off:cell ~words:1;
            Alcotest.(check int) "no extra fences" fences
              stats.Pmem.Stats.fences;
            Pmstm.Tx.store tx cell (w 3));
        Alcotest.(check int) "value" 3 (uw (Pmalloc.Heap.load heap cell)));
  ]

(* -- transactional crit-bit tree (WHISPER's ctree) vs model ----------------- *)

let ctree_tests =
  [
    Alcotest.test_case "insert/find/remove" `Quick (fun () ->
        let heap, tx = mk () in
        let desc = Pmstm.Tx.run tx (fun () -> Pmstm.Pm_ctree.create tx) in
        Pmstm.Tx.run tx (fun () ->
            Alcotest.(check bool) "added" true
              (Pmstm.Pm_ctree.insert tx desc 5 (w 50)));
        Pmstm.Tx.run tx (fun () ->
            Alcotest.(check bool) "updated" false
              (Pmstm.Pm_ctree.insert tx desc 5 (w 55)));
        Alcotest.(check (option int)) "find" (Some 55)
          (Option.map uw (Pmstm.Pm_ctree.find heap desc 5));
        Alcotest.(check (option int)) "absent" None
          (Option.map uw (Pmstm.Pm_ctree.find heap desc 4));
        Pmstm.Tx.run tx (fun () ->
            Alcotest.(check bool) "removed" true (Pmstm.Pm_ctree.remove tx desc 5));
        Alcotest.(check int) "empty" 0 (Pmstm.Pm_ctree.cardinal heap desc));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"ctree agrees with Map (qcheck)" ~count:50
         QCheck.(
           list_of_size (Gen.int_range 0 150)
             (pair (int_range 0 60) (int_range 0 1000)))
         (fun ops ->
           let heap, tx = mk () in
           let desc = Pmstm.Tx.run tx (fun () -> Pmstm.Pm_ctree.create tx) in
           let model = ref IntMap.empty in
           List.iter
             (fun (k, v) ->
               if v mod 4 = 0 then begin
                 let removed =
                   Pmstm.Tx.run tx (fun () -> Pmstm.Pm_ctree.remove tx desc k)
                 in
                 if removed <> IntMap.mem k !model then failwith "remove";
                 model := IntMap.remove k !model
               end
               else begin
                 let added =
                   Pmstm.Tx.run tx (fun () ->
                       Pmstm.Pm_ctree.insert tx desc k (w v))
                 in
                 if added = IntMap.mem k !model then failwith "insert";
                 model := IntMap.add k v !model
               end)
             ops;
           IntMap.for_all
             (fun k v ->
               Option.map uw (Pmstm.Pm_ctree.find heap desc k) = Some v)
             !model
           && Pmstm.Pm_ctree.cardinal heap desc = IntMap.cardinal !model));
    Alcotest.test_case "abort rolls back a splice" `Quick (fun () ->
        let heap, tx = mk () in
        let desc = Pmstm.Tx.run tx (fun () -> Pmstm.Pm_ctree.create tx) in
        Pmstm.Tx.run tx (fun () ->
            ignore (Pmstm.Pm_ctree.insert tx desc 1 (w 1) : bool));
        (try
           Pmstm.Tx.run tx (fun () ->
               ignore (Pmstm.Pm_ctree.insert tx desc 3 (w 3) : bool);
               failwith "deliberate")
         with Failure _ -> ());
        Alcotest.(check (option int)) "old key intact" (Some 1)
          (Option.map uw (Pmstm.Pm_ctree.find heap desc 1));
        Alcotest.(check (option int)) "aborted key gone" None
          (Option.map uw (Pmstm.Pm_ctree.find heap desc 3));
        Alcotest.(check int) "count restored" 1
          (Pmstm.Pm_ctree.cardinal heap desc));
    Alcotest.test_case "iter visits all keys" `Quick (fun () ->
        let heap, tx = mk () in
        let desc = Pmstm.Tx.run tx (fun () -> Pmstm.Pm_ctree.create tx) in
        for k = 0 to 63 do
          Pmstm.Tx.run tx (fun () ->
              ignore (Pmstm.Pm_ctree.insert tx desc (k * 17 mod 101) (w k) : bool))
        done;
        let seen = Hashtbl.create 64 in
        Pmstm.Pm_ctree.iter heap desc (fun k _ -> Hashtbl.replace seen k ());
        Alcotest.(check int) "all distinct keys" 64 (Hashtbl.length seen));
  ]

(* Stale undo entries.  Two committed 4-word ranges [a] and [b] (plus
   [c], to overflow a log) and a 16-word undo log, which holds two
   4-word entries.  [stale_setup ~reuse] leaves an earlier log's entries
   for [a] and [b] at the cursors the next transaction appends to: in
   the same log (an earlier transaction), or, with [reuse], in a block
   freed by a log overflow and handed to a log created after a restart.
   [set] then runs the transaction under test, writing [base + 10k + i]
   to word [i] of the [k]-th range. *)
let set tx ranges base =
  Pmstm.Tx.run tx (fun () ->
      List.iteri
        (fun k r ->
          Pmstm.Tx.add tx ~off:r ~words:4;
          for i = 0 to 3 do
            Pmstm.Tx.store tx (r + i) (w (base + (10 * k) + i))
          done)
        ranges)

let stale_setup ~reuse () =
  let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 16) () in
  let range base =
    let r = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:4 in
    for i = 0 to 3 do
      Pmalloc.Heap.store heap (r + i) (w (base + i))
    done;
    Pmalloc.Heap.flush_block heap r;
    r
  in
  let a = range 0 and b = range 10 and c = range 20 in
  Pmalloc.Heap.sfence heap;
  let log_slot = Pmalloc.Heap.root_slots - 1 in
  let mk () =
    Pmstm.Tx.create ~log_capacity_words:16 heap ~version:Pmstm.Tx.V1_4
  in
  let tx = mk () in
  if not reuse then begin
    set tx [ a; b ] 100;
    (heap, tx, a, b)
  end
  else begin
    let first = Pmalloc.Heap.root_get heap log_slot in
    (* the third entry overflows: abort, grow into a new block, free
       this one, retry *)
    set tx [ a; b; c ] 100;
    Alcotest.(check bool) "the log grew" true (Pmstm.Tx.log_capacity tx > 16);
    Pmalloc.Heap.crash heap;
    Alcotest.(check bool) "nothing to roll back" false (Pmstm.Tx.recover heap);
    let tx = mk () in
    Alcotest.(check int) "the new log reuses the freed block"
      (Pmem.Word.bits first)
      (Pmem.Word.bits (Pmalloc.Heap.root_get heap log_slot));
    (heap, tx, a, b)
  end

(* Crash the transaction under test after every PM event, recover each
   crash under 16 Randomize outcomes, and require [a] and [b] to hold
   both ranges' old or both ranges' new values.  A stale entry that
   validates rolls [b] back to a value it held before the old one. *)
let no_stale_rollback ~reuse () =
  let range base = List.init 4 (fun i -> base + i) in
  let read heap r =
    List.init 4 (fun i -> Pmem.Word.to_int (Pmalloc.Heap.load heap (r + i)))
  in
  let rec go budget =
    let heap, tx, a, b = stale_setup ~reuse () in
    let region = Pmalloc.Heap.region heap in
    Pmem.Region.set_crash_after region budget;
    match set tx [ a; b ] 200 with
    | () -> Alcotest.(check bool) "crash points tested" true (budget > 20)
    | exception Pmem.Region.Crash_point ->
        let at_crash = Pmem.Region.snapshot region in
        for seed = 0 to 15 do
          Pmalloc.Heap.crash ~mode:Pmem.Region.Randomize ~seed heap;
          ignore (Pmstm.Tx.recover heap : bool);
          let got = (read heap a, read heap b) in
          if
            got <> (range 100, range 110) && got <> (range 200, range 210)
          then
            Alcotest.failf "crash %d, seed %d: a = [%s], b = [%s]" budget seed
              (String.concat ";" (List.map string_of_int (fst got)))
              (String.concat ";" (List.map string_of_int (snd got)));
          Pmem.Region.restore region at_crash
        done;
        go (budget + 1)
  in
  go 1

let undo_log_tests =
  [
    Alcotest.test_case
      "an earlier transaction's entry never rolls back a later one" `Quick
      (no_stale_rollback ~reuse:false);
    Alcotest.test_case "a reused log block's old entries never validate"
      `Quick (no_stale_rollback ~reuse:true);
  ]

let () =
  Alcotest.run "pmstm"
    [
      ("tx", tx_tests);
      ("hashmap", hashmap_tests);
      ("array", array_tests);
      ("stack-queue", stack_queue_tests);
      ("edges", edge_tests);
      ("undo-log", undo_log_tests);
      ("ctree", ctree_tests);
    ]
