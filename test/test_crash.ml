(* Crash-injection integration tests: power failures at arbitrary points,
   under every crash mode, must leave every MOD datastructure in exactly a
   pre- or post-FASE state (Section 5.2), with all leaks reclaimed and the
   heap ready for more work. *)

let w = Pmem.Word.of_int
let uw v = Pmem.Word.to_int v

module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)
module IntMap = Map.Make (Int)

let modes =
  [ Pmem.Region.Drop_inflight; Pmem.Region.Keep_inflight; Pmem.Region.Randomize ]

(* Read the full contents of the map into an IntMap. *)
let dump m = Imap.fold m IntMap.add IntMap.empty

(* Atomicity under repeated crashes: after each crash the recovered state
   must equal the model just before or just after the last FASE (the final
   root write may still be in flight; everything older is fenced). *)
let crash_recover_map_rounds ~seed ~rounds =
  let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 20) () in
  let rng = Random.State.make [| seed |] in
  let m = ref (Imap.open_or_create heap ~slot:0) in
  let model = ref IntMap.empty in
  let prev_model = ref IntMap.empty in
  for round = 1 to rounds do
    let batch = 1 + Random.State.int rng 15 in
    for _ = 1 to batch do
      let k = Random.State.int rng 40 in
      if Random.State.bool rng then begin
        let v = Random.State.int rng 1000 in
        Imap.insert !m k v;
        prev_model := !model;
        model := IntMap.add k v !model
      end
      else if Imap.remove !m k then begin
        (* only a committing operation advances the FASE history; a no-op
           remove never commits and cannot be "lost" by a crash *)
        prev_model := !model;
        model := IntMap.remove k !model
      end
    done;
    let mode = List.nth modes (Random.State.int rng 3) in
    ignore (Mod_core.Recovery.crash_and_recover_exn ~mode heap);
    let m' = Imap.open_or_create heap ~slot:0 in
    let actual = dump m' in
    let matches reference = IntMap.equal Int.equal actual reference in
    if not (matches !model || matches !prev_model) then
      Alcotest.failf "round %d: recovered state is neither pre- nor post-FASE"
        round;
    (* resume from whatever state actually survived *)
    model := actual;
    prev_model := actual;
    m := m'
  done

let map_crash_tests =
  [
    Alcotest.test_case "map survives 40 random crash/recover rounds" `Slow
      (fun () -> crash_recover_map_rounds ~seed:21 ~rounds:40);
    Alcotest.test_case "map crash rounds, second seed" `Slow (fun () ->
        crash_recover_map_rounds ~seed:77 ~rounds:40);
    Alcotest.test_case "crash mid-FASE never corrupts (all modes)" `Quick
      (fun () ->
        List.iter
          (fun mode ->
            let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 20) () in
            let m = Imap.open_or_create heap ~slot:0 in
            for k = 0 to 29 do
              Imap.insert m k k
            done;
            Pmalloc.Heap.sfence heap;
            (* shadow under construction, commit never reached *)
            let shadow =
              Imap.insert_pure heap (Mod_core.Handle.current m) 999 1
            in
            ignore (shadow : Pmem.Word.t);
            ignore (Mod_core.Recovery.crash_and_recover_exn ~mode heap);
            let m' = Imap.open_or_create heap ~slot:0 in
            Alcotest.(check int) "all 30 keys" 30 (Imap.cardinal m');
            Alcotest.(check (option int)) "no phantom key" None
              (Imap.find m' 999))
          modes);
    Alcotest.test_case "heap usable for new work after each crash" `Quick
      (fun () ->
        let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 20) () in
        for round = 1 to 5 do
          let m = Imap.open_or_create heap ~slot:0 in
          for k = 0 to 19 do
            Imap.insert m (round * 100 + k) k
          done;
          Pmalloc.Heap.sfence heap;
          ignore (Mod_core.Recovery.crash_and_recover_exn heap)
        done;
        let m = Imap.open_or_create heap ~slot:0 in
        Alcotest.(check int) "all rounds' keys survive" 100 (Imap.cardinal m));
  ]

(* -- queue: no element duplicated or lost except the in-flight FASE ------- *)

let queue_crash_tests =
  [
    Alcotest.test_case "queue state is a FASE-boundary prefix" `Quick
      (fun () ->
        List.iter
          (fun mode ->
            let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 20) () in
            let q = Mod_core.Dqueue.open_or_create heap ~slot:0 in
            for i = 1 to 50 do
              Mod_core.Dqueue.enqueue q (w i)
            done;
            for _ = 1 to 20 do
              ignore (Mod_core.Dqueue.dequeue q)
            done;
            (* state now: 21..50; last FASE (dequeue of 20) may be lost *)
            ignore (Mod_core.Recovery.crash_and_recover_exn ~mode heap);
            let q' = Mod_core.Dqueue.open_or_create heap ~slot:0 in
            let contents = List.map uw (Mod_core.Dqueue.to_list q') in
            let expect_post = List.init 30 (fun i -> i + 21) in
            let expect_pre = List.init 31 (fun i -> i + 20) in
            if contents <> expect_post && contents <> expect_pre then
              Alcotest.failf "queue recovered to an invalid state (%d elems)"
                (List.length contents))
          modes);
  ]

(* -- cross-datastructure atomicity ----------------------------------------- *)

let composition_crash_tests =
  [
    Alcotest.test_case
      "CommitUnrelated: element never duplicated or lost across crash" `Quick
      (fun () ->
        List.iter
          (fun mode ->
            let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 20) () in
            let tx = Pmstm.Tx.create heap ~version:Pmstm.Tx.V1_5 in
            let m1 = Imap.open_or_create heap ~slot:0 in
            let m2 = Imap.open_or_create heap ~slot:1 in
            for k = 0 to 19 do
              Imap.insert m1 k k
            done;
            (* move keys 0..9 one FASE at a time *)
            for k = 0 to 9 do
              let v1 = Mod_core.Handle.current m1 in
              let v2 = Mod_core.Handle.current m2 in
              let value = Option.get (Imap.find_in heap v1 k) in
              let v1', _ = Imap.remove_pure heap v1 k in
              let v2' = Imap.insert_pure heap v2 k value in
              Mod_core.Commit.unrelated heap tx [ (0, v1'); (1, v2') ]
            done;
            ignore (Mod_core.Recovery.crash_and_recover_exn ~stm:true ~mode heap);
            let m1' = Imap.open_or_create heap ~slot:0 in
            let m2' = Imap.open_or_create heap ~slot:1 in
            (* every key must exist in exactly one map *)
            for k = 0 to 19 do
              let in1 = Imap.mem m1' k and in2 = Imap.mem m2' k in
              if in1 && in2 then Alcotest.failf "key %d duplicated" k;
              if (not in1) && not in2 then Alcotest.failf "key %d lost" k
            done)
          modes);
    Alcotest.test_case
      "CommitSiblings: reservation invariant holds across crash" `Quick
      (fun () ->
        List.iter
          (fun mode ->
            let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 20) () in
            (* parent: field 0 = inventory map, field 1 = orders map *)
            let parent = Pfds.Node.alloc heap ~words:2 in
            Pfds.Node.set heap parent 0 (Imap.empty_version heap);
            Pfds.Node.set heap parent 1 (Imap.empty_version heap);
            Pfds.Node.finish heap parent;
            Mod_core.Commit.single heap ~slot:0 (Pmem.Word.of_ptr parent);
            let field f =
              let p = Pmem.Word.to_ptr (Pmalloc.Heap.root_get heap 0) in
              Pfds.Node.get heap p f
            in
            (* stock 10 units of item 1 *)
            let inv = Imap.insert_pure heap (field 0) 1 10 in
            Mod_core.Commit.siblings heap ~slot:0 [ (0, inv) ];
            (* 6 reservations: each moves one unit from inventory to orders *)
            for o = 1 to 6 do
              let stock = Option.get (Imap.find_in heap (field 0) 1) in
              let inv' = Imap.insert_pure heap (field 0) 1 (stock - 1) in
              let orders' = Imap.insert_pure heap (field 1) o 1 in
              Mod_core.Commit.siblings heap ~slot:0 [ (0, inv'); (1, orders') ]
            done;
            ignore (Mod_core.Recovery.crash_and_recover_exn ~mode heap);
            (* conservation: remaining stock + orders placed = 10, exactly,
               in every crash mode -- the two map updates of a reservation
               are atomic because they share one parent swap *)
            let stock = Option.get (Imap.find_in heap (field 0) 1) in
            let orders = Imap.card_of heap (field 1) in
            Alcotest.(check int)
              (Printf.sprintf "stock %d + orders %d = 10" stock orders)
              10 (stock + orders))
          modes);
  ]

(* -- deterministic boundary sweep ------------------------------------------- *)

(* For every k, run exactly k FASEs, crash in the worst mode, recover, and
   require the state to be exactly after k or k-1 operations (the last
   root write's flush may still be in flight). *)
let boundary_sweep_tests =
  [
    Alcotest.test_case "crash after every FASE boundary (map, worst case)"
      `Quick (fun () ->
        for k = 0 to 40 do
          let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 20) () in
          let m = Imap.open_or_create heap ~slot:0 in
          for i = 1 to k do
            Imap.insert m i (i * 10)
          done;
          ignore
            (Mod_core.Recovery.crash_and_recover_exn
               ~mode:Pmem.Region.Drop_inflight heap);
          let m' = Imap.open_or_create heap ~slot:0 in
          let n = Imap.cardinal m' in
          if not (n = k || n = k - 1) then
            Alcotest.failf "k=%d: recovered %d entries" k n;
          (* whatever survived is internally consistent *)
          for i = 1 to n do
            Alcotest.(check (option int))
              (Printf.sprintf "k=%d key %d" k i)
              (Some (i * 10))
              (Imap.find m' i)
          done
        done);
    Alcotest.test_case "crash after every FASE boundary (stack, best case)"
      `Quick (fun () ->
        for k = 0 to 40 do
          let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 20) () in
          let s = Mod_core.Dstack.open_or_create heap ~slot:0 in
          for i = 1 to k do
            Mod_core.Dstack.push s (w i)
          done;
          ignore
            (Mod_core.Recovery.crash_and_recover_exn
               ~mode:Pmem.Region.Keep_inflight heap);
          let s' = Mod_core.Dstack.open_or_create heap ~slot:0 in
          (* keep-inflight: the last root write's flush completes *)
          Alcotest.(check (list int))
            (Printf.sprintf "k=%d full stack" k)
            (List.init k (fun i -> k - i))
            (List.map uw (Mod_core.Dstack.to_list s'))
        done);
  ]

(* -- vector / set / priority queue / sequence -------------------------------- *)

(* The remaining MOD structures get the same coverage through the
   crash-point explorer: every PM event of a scripted run is interrupted
   under all three crash modes and the recovered state must sit inside
   the durable-linearizability window (plus the Section 5.4 trace check). *)
let explorer_crash_tests =
  List.map
    (fun name ->
      Alcotest.test_case
        (Printf.sprintf "%s: exhaustive crash sweep, all modes" name)
        `Quick
        (fun () ->
          let w = Crashtest.Workload.build name ~ops:6 in
          let cfg =
            { Crashtest.Explorer.default with randomize_samples = 2 }
          in
          let r = Crashtest.Explorer.explore ~cfg w in
          Alcotest.(check int) "every crash point tested" 0
            r.Crashtest.Explorer.points_skipped;
          (match r.Crashtest.Explorer.trace_report with
          | Some rep ->
              Alcotest.(check bool) "Section 5.4 trace clean" true
                (Mod_core.Consistency.ok rep)
          | None -> ());
          if not (Crashtest.Explorer.ok r) then
            Alcotest.failf "%s: %d oracle violation(s), first: %s" name
              (List.length r.Crashtest.Explorer.failures)
              (Format.asprintf "%a" Crashtest.Explorer.pp_failure
                 (List.hd r.Crashtest.Explorer.failures))))
    [
      "vec"; "set"; "pqueue"; "seq"; "stack"; "queue"; "batched"; "siblings";
      "unrelated";
    ]

(* Negative-control parity: under the exact explorer configuration the
   positive sweeps run with, the deliberately ordering-broken workloads
   must still trip the oracle -- otherwise a passing sweep proves
   nothing. *)
let negative_parity_tests =
  List.map
    (fun name ->
      Alcotest.test_case
        (Printf.sprintf "%s: oracle still catches it under sweep cfg" name)
        `Quick
        (fun () ->
          let w = Crashtest.Workload.build name ~ops:6 in
          let cfg =
            { Crashtest.Explorer.default with randomize_samples = 2 }
          in
          let r = Crashtest.Explorer.explore ~cfg w in
          Alcotest.(check bool) "workload is a negative control" true
            w.Crashtest.Workload.negative;
          if r.Crashtest.Explorer.failures = [] then
            Alcotest.failf
              "%s: negative control reported no oracle violations" name))
    Crashtest.Workload.negative_names

let () =
  Alcotest.run "crash"
    [
      ("map", map_crash_tests);
      ("queue", queue_crash_tests);
      ("composition", composition_crash_tests);
      ("boundary-sweep", boundary_sweep_tests);
      ("explorer", explorer_crash_tests);
      ("negative-parity", negative_parity_tests);
    ]
