(* Tests for the fault-injection and graceful-degradation layer: torn
   cacheline crashes, armed media faults, the checksummed dual-slot root
   records with secondary fallback, the typed-error recovery contract
   (nothing escapes [Mod_core.Recovery.recover] untyped), the dead-worker
   shard resweep, and the worklist-based deep-structure recovery. *)

let word = Pmem.Word.of_int

(* -- region-level fault model ---------------------------------------------- *)

let region_tests =
  [
    Alcotest.test_case "armed media line faults loads until cleared" `Quick
      (fun () ->
        let r = Pmem.Region.create ~capacity_words:256 ~seed:3 () in
        Pmem.Region.store r 40 (word 7);
        Pmem.Region.clwb r 40;
        Pmem.Region.sfence r;
        Pmem.Region.arm_media_fault r ~line:5;
        (match Pmem.Region.load r 40 with
        | _ -> Alcotest.fail "expected Media_fault"
        | exception Pmem.Region.Media_fault { off } ->
            Alcotest.(check int) "faulting offset" 40 off);
        (* neighbouring lines are unaffected *)
        Pmem.Region.store r 64 (word 1);
        Alcotest.(check int) "armed lines counted" 1
          (Pmem.Region.media_fault_count r);
        Pmem.Region.clear_media_faults r;
        Alcotest.(check int) "cleared" 0 (Pmem.Region.media_fault_count r);
        Alcotest.(check int) "load works again" 7
          (Pmem.Word.to_int (Pmem.Region.load r 40)));
    Alcotest.test_case "restore disarms media faults" `Quick (fun () ->
        let r = Pmem.Region.create ~capacity_words:256 ~seed:3 () in
        let snap = Pmem.Region.snapshot r in
        Pmem.Region.arm_media_fault r ~line:2;
        Pmem.Region.restore r snap;
        Alcotest.(check int) "restore clears the bad-line table" 0
          (Pmem.Region.media_fault_count r);
        ignore (Pmem.Region.load r 16 : Pmem.Word.t));
    Alcotest.test_case "torn crash persists a strict per-word subset" `Quick
      (fun () ->
        let r = Pmem.Region.create ~capacity_words:256 ~seed:3 () in
        (* one durable baseline line, then dirty every word of it *)
        for i = 0 to 7 do
          Pmem.Region.store r (64 + i) (word 100)
        done;
        Pmem.Region.clwb r 64;
        Pmem.Region.sfence r;
        for i = 0 to 7 do
          Pmem.Region.store r (64 + i) (word (200 + i))
        done;
        Pmem.Region.crash ~mode:Pmem.Region.Randomize ~seed:11 ~torn:true r;
        let image =
          List.init 8 (fun i ->
              Pmem.Word.to_int (Pmem.Region.load r (64 + i)))
        in
        List.iteri
          (fun i v ->
            if v <> 100 && v <> 200 + i then
              Alcotest.failf "word %d is neither old nor new: %d" i v)
          image;
        (* determinism: the same survival seed tears identically *)
        let r2 = Pmem.Region.create ~capacity_words:256 ~seed:3 () in
        for i = 0 to 7 do
          Pmem.Region.store r2 (64 + i) (word 100)
        done;
        Pmem.Region.clwb r2 64;
        Pmem.Region.sfence r2;
        for i = 0 to 7 do
          Pmem.Region.store r2 (64 + i) (word (200 + i))
        done;
        Pmem.Region.crash ~mode:Pmem.Region.Randomize ~seed:11 ~torn:true r2;
        let image2 =
          List.init 8 (fun i ->
              Pmem.Word.to_int (Pmem.Region.load r2 (64 + i)))
        in
        Alcotest.(check (list int)) "seeded tearing is deterministic" image
          image2);
  ]

(* -- checksummed dual-slot root records ------------------------------------- *)

let fresh_heap () = Pmalloc.Heap.create ~capacity_words:(1 lsl 14) ()

let corrupt_copy heap (off, words) =
  let region = Pmalloc.Heap.region heap in
  for w = off to off + words - 1 do
    Pmem.Region.corrupt_word region w
  done

let copy_range slot copy = List.nth (Pmalloc.Heap.root_record_ranges slot) copy

(* The record copy [root_get] currently serves ("primary") and the other
   one ("secondary", holding the previous committed value). *)
let active_range heap slot =
  copy_range slot (Pmalloc.Heap.active_root_copy heap slot)

let stale_range heap slot =
  copy_range slot (1 - Pmalloc.Heap.active_root_copy heap slot)

let root_record_tests =
  [
    Alcotest.test_case "corrupt primary copy falls back to secondary" `Quick
      (fun () ->
        let heap = fresh_heap () in
        let s = Mod_core.Dstack.open_or_create heap ~slot:0 in
        (* two commits: the ping-pong leaves [3;2;1] in the stale copy
           and [4;3;2;1] in the active one *)
        Mod_core.Dstack.push_many s [ word 1; word 2; word 3 ];
        Mod_core.Dstack.push s (word 4);
        corrupt_copy heap (active_range heap 0);
        Alcotest.(check (list int))
          "previous committed value read through the surviving copy"
          [ 3; 2; 1 ]
          (List.map Pmem.Word.to_int (Mod_core.Dstack.to_list s));
        Alcotest.(check bool) "fallback counted" true
          (Pmalloc.Heap.root_fallbacks heap > 0);
        Alcotest.(check bool) "tear detected" true
          (Pmalloc.Heap.root_torn_detected heap > 0);
        (* a full recovery also survives the torn copy *)
        (match Mod_core.Recovery.recover heap with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "recovery failed: %s" (Mod_core.Error.to_string e));
        let s = Mod_core.Dstack.open_or_create heap ~slot:0 in
        Alcotest.(check (list int)) "recovered state is the previous commit"
          [ 3; 2; 1 ]
          (List.map Pmem.Word.to_int (Mod_core.Dstack.to_list s)));
    Alcotest.test_case "successive commits alternate record copies" `Quick
      (fun () ->
        let heap = fresh_heap () in
        let s = Mod_core.Dstack.open_or_create heap ~slot:0 in
        Mod_core.Dstack.push s (word 1);
        let first = Pmalloc.Heap.active_root_copy heap 0 in
        Mod_core.Dstack.push s (word 2);
        Alcotest.(check int) "ping-pong" (1 - first)
          (Pmalloc.Heap.active_root_copy heap 0);
        (* corrupting the stale copy is invisible to reads *)
        corrupt_copy heap (stale_range heap 0);
        Alcotest.(check (list int)) "newest value intact" [ 2; 1 ]
          (List.map Pmem.Word.to_int (Mod_core.Dstack.to_list s)));
    Alcotest.test_case "both copies corrupt is a typed Torn_root" `Quick
      (fun () ->
        let heap = fresh_heap () in
        let s = Mod_core.Dstack.open_or_create heap ~slot:0 in
        Mod_core.Dstack.push s (word 9);
        corrupt_copy heap (copy_range 0 0);
        corrupt_copy heap (copy_range 0 1);
        (match Mod_core.Recovery.recover heap with
        | Ok _ -> Alcotest.fail "expected Torn_root, recovery succeeded"
        | Error (Mod_core.Error.Torn_root { slot; _ }) ->
            Alcotest.(check int) "slot named" 0 slot
        | Error e ->
            Alcotest.failf "wrong error: %s" (Mod_core.Error.to_string e));
        (* the typed open path reports the same condition *)
        match Mod_core.Dstack.open_result heap ~slot:0 with
        | Ok _ -> Alcotest.fail "open_result should refuse a torn root"
        | Error (Mod_core.Error.Torn_root _) -> ()
        | Error e ->
            Alcotest.failf "wrong open error: %s" (Mod_core.Error.to_string e));
    Alcotest.test_case "media-bad root lines are a typed Media_error" `Quick
      (fun () ->
        let heap = fresh_heap () in
        let s = Mod_core.Dstack.open_or_create heap ~slot:0 in
        Mod_core.Dstack.push s (word 5);
        let region = Pmalloc.Heap.region heap in
        List.iter
          (fun (off, _) ->
            Pmem.Region.arm_media_fault region
              ~line:(off lsr Pmem.Config.line_shift))
          (Pmalloc.Heap.root_record_ranges 0);
        match Mod_core.Recovery.recover heap with
        | Ok _ -> Alcotest.fail "expected Media_error, recovery succeeded"
        | Error (Mod_core.Error.Media_error _) -> ()
        | Error e ->
            Alcotest.failf "wrong error: %s" (Mod_core.Error.to_string e));
    Alcotest.test_case "root records survive torn crashes (all modes)" `Quick
      (fun () ->
        (* after a commit the record lines are the only dirty lines; a torn
           crash may persist any per-word subset, but each checksummed copy
           lives in one line, so validation always finds a whole copy *)
        List.iter
          (fun seed ->
            let heap = fresh_heap () in
            let s = Mod_core.Dstack.open_or_create heap ~slot:0 in
            Mod_core.Dstack.push_many s [ word 10; word 20 ];
            Mod_core.Dstack.push s (word 30);
            Pmalloc.Heap.crash ~mode:Pmem.Region.Randomize ~seed ~torn:true
              heap;
            match Mod_core.Recovery.recover heap with
            | Error e ->
                Alcotest.failf "seed %d: recovery failed: %s" seed
                  (Mod_core.Error.to_string e)
            | Ok _ ->
                let s = Mod_core.Dstack.open_or_create heap ~slot:0 in
                let got =
                  List.map Pmem.Word.to_int (Mod_core.Dstack.to_list s)
                in
                if got <> [ 30; 20; 10 ] && got <> [ 20; 10 ] then
                  Alcotest.failf
                    "seed %d: state is neither pre- nor post-push: [%s]" seed
                    (String.concat ";" (List.map string_of_int got)))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
  ]

(* -- qcheck: injected faults never escape recover untyped ------------------- *)

type fault_kind =
  | No_fault
  | Corrupt_primary
  | Corrupt_both
  | Media_roots
  | Media_heap_line

let fault_kind_name = function
  | No_fault -> "none"
  | Corrupt_primary -> "corrupt-primary"
  | Corrupt_both -> "corrupt-both"
  | Media_roots -> "media-roots"
  | Media_heap_line -> "media-heap-line"

let arm heap = function
  | No_fault -> ()
  | Corrupt_primary -> corrupt_copy heap (active_range heap 0)
  | Corrupt_both ->
      corrupt_copy heap (copy_range 0 0);
      corrupt_copy heap (copy_range 0 1)
  | Media_roots ->
      let region = Pmalloc.Heap.region heap in
      List.iter
        (fun (off, _) ->
          Pmem.Region.arm_media_fault region
            ~line:(off lsr Pmem.Config.line_shift))
        (Pmalloc.Heap.root_record_ranges 0)
  | Media_heap_line ->
      let region = Pmalloc.Heap.region heap in
      Pmem.Region.arm_media_fault region
        ~line:(Pmalloc.Heap.root_directory_words lsr Pmem.Config.line_shift)

let fault_gen =
  QCheck.Gen.(
    let kind =
      oneofl
        [ No_fault; Corrupt_primary; Corrupt_both; Media_roots; Media_heap_line ]
    in
    let name = oneofl Crashtest.Workload.basic_names in
    map
      (fun (((name, kind), prefix), seed) -> (name, kind, prefix, seed))
      (pair (pair (pair name kind) (int_range 0 10)) (int_range 1 1000)))

let print_fault (name, kind, prefix, seed) =
  Printf.sprintf "%s kind=%s prefix=%d seed=%d" name (fault_kind_name kind)
    prefix seed

let fault_sweep_qcheck =
  QCheck.Test.make
    ~name:"every injected fault recovers or fails typed (qcheck)" ~count:120
    (QCheck.make ~print:print_fault fault_gen)
    (fun (name, kind, prefix, seed) ->
      let w = Crashtest.Workload.build name ~ops:10 in
      let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 14) () in
      let inst = w.Crashtest.Workload.make heap in
      inst.Crashtest.Workload.init ();
      for i = 0 to min prefix (w.Crashtest.Workload.ops - 1) do
        inst.Crashtest.Workload.run_op i
      done;
      Pmalloc.Heap.crash ~mode:Pmem.Region.Randomize ~seed ~torn:true heap;
      arm heap kind;
      (* the contract under test: recover returns Ok or a typed Error and
         never lets an exception escape *)
      match Mod_core.Recovery.recover heap with Ok _ | Error _ -> true)

let fault_detection_qcheck =
  QCheck.Test.make ~name:"both-copies faults are always detected (qcheck)"
    ~count:60
    (QCheck.make
       ~print:(fun (name, seed) -> Printf.sprintf "%s seed=%d" name seed)
       QCheck.Gen.(
         pair (oneofl Crashtest.Workload.basic_names) (int_range 1 1000)))
    (fun (name, seed) ->
      let w = Crashtest.Workload.build name ~ops:6 in
      let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 14) () in
      let inst = w.Crashtest.Workload.make heap in
      inst.Crashtest.Workload.init ();
      for i = 0 to 3 do
        inst.Crashtest.Workload.run_op i
      done;
      Pmalloc.Heap.crash ~mode:Pmem.Region.Randomize ~seed ~torn:true heap;
      corrupt_copy heap (copy_range 0 0);
      corrupt_copy heap (copy_range 0 1);
      match Mod_core.Recovery.recover heap with
      | Ok _ -> false (* silent absorption of a double fault *)
      | Error (Mod_core.Error.Torn_root _) -> true
      | Error _ -> false)

(* -- corrupt policy words ---------------------------------------------------- *)

module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)

(* A policy word that is neither Full nor Backup used to read as Full:
   recovery succeeded, the open path accepted the Backup descriptor as a
   map root, and the first read raised an untyped exception. *)
let policy_tests =
  [
    Alcotest.test_case "corrupt policy word: Corrupt_root" `Quick
      (fun () ->
        let heap = fresh_heap () in
        let m = Imap.open_or_create ~persist:Pmalloc.Heap.Backup heap ~slot:0 in
        for k = 1 to 10 do
          Imap.insert m k k
        done;
        Pmalloc.Heap.sfence heap;
        Pmem.Region.corrupt_word (Pmalloc.Heap.region heap)
          (Pmalloc.Heap.policy_off 0);
        Pmalloc.Heap.crash ~mode:Pmem.Region.Drop_inflight heap;
        match Mod_core.Recovery.recover heap with
        | Error (Mod_core.Error.Corrupt_root { slot = 0; _ }) -> ()
        | Error e ->
            Alcotest.failf "wrong error: %s" (Mod_core.Error.to_string e)
        | Ok _ -> Alcotest.fail "recovery accepted a corrupt policy word");
  ]

(* -- explorer fault sweep and dead-worker resweep --------------------------- *)

let quick_faults_cfg =
  {
    Crashtest.Explorer.default with
    randomize_samples = 2;
    stride = 3;
    faults = true;
  }

let explorer_tests =
  [
    Alcotest.test_case "fault sweep over a basic workload is clean" `Quick
      (fun () ->
        let w = Crashtest.Workload.build "map" ~ops:5 in
        let r = Crashtest.Explorer.explore ~cfg:quick_faults_cfg w in
        Alcotest.(check bool) "no violations" true (Crashtest.Explorer.ok r);
        Alcotest.(check bool) "faults were sampled" true
          (r.Crashtest.Explorer.fault_samples > 0);
        Alcotest.(check int) "every sample recovered or degraded typed"
          r.Crashtest.Explorer.fault_samples
          (r.Crashtest.Explorer.fault_recovered
          + r.Crashtest.Explorer.fault_degraded);
        (* kinds 1 and 2 fault the summary's line, kind 4 corrupts its
           word: each scans every slot, and kind 4 (any degradation there
           is a failure) always recovers *)
        Alcotest.(check int) "three summary fallbacks per point"
          (3 * r.Crashtest.Explorer.points_tested)
          r.Crashtest.Explorer.fault_scans);
    Alcotest.test_case "dead worker's shard is re-swept sequentially" `Quick
      (fun () ->
        let w = Crashtest.Workload.build "queue" ~ops:5 in
        let reference =
          Crashtest.Explorer.explore ~cfg:quick_faults_cfg w
        in
        let killed =
          Crashtest.Explorer.explore
            ~cfg:
              {
                quick_faults_cfg with
                Crashtest.Explorer.jobs = 2;
                worker_kill = Some 0;
              }
            w
        in
        Alcotest.(check int) "one shard re-swept" 1
          killed.Crashtest.Explorer.shards_resequenced;
        (match killed.Crashtest.Explorer.failures with
        | [] -> ()
        | f :: _ as fs ->
            Alcotest.failf "killed sweep has %d failure(s), first: %s"
              (List.length fs) f.Crashtest.Explorer.detail);
        Alcotest.(check int) "same coverage as the sequential reference"
          reference.Crashtest.Explorer.points_tested
          killed.Crashtest.Explorer.points_tested;
        Alcotest.(check int) "same fault samples"
          reference.Crashtest.Explorer.fault_samples
          killed.Crashtest.Explorer.fault_samples);
    Alcotest.test_case "fault samples replay as the sweep judged them" `Quick
      (fun () ->
        (* every (point, kind) sample, replayed alone on a fresh heap,
           recovers or degrades exactly as often as in the sweep *)
        let module E = Crashtest.Explorer in
        let cfg = { E.default with seed = 7; faults = true } in
        let w = Crashtest.Workload.build "map" ~ops:8 in
        let r = E.explore ~cfg w in
        Alcotest.(check (list int)) "the sweep's points and split"
          [ 102; 306; 204 ]
          [ r.E.points_tested; r.E.fault_recovered; r.E.fault_degraded ];
        let recovered = ref 0 and degraded = ref 0 in
        for crash_index = 1 to r.E.points_tested do
          for k = 0 to E.fault_kinds - 1 do
            let seed = E.fault_seed cfg ~crash_index ~k in
            match
              Crashtest.Replay.replay_fault ~cfg (E.Seq w) ~crash_index ~k
                ~seed
            with
            | Some E.Recovered -> incr recovered
            | Some (E.Degraded _) -> incr degraded
            | Some (E.Broken d) ->
                Alcotest.failf "event %d, kind %d: %s" crash_index k d
            | None -> Alcotest.failf "event %d never crashed" crash_index
          done
        done;
        Alcotest.(check (pair int int)) "the replays' split"
          (r.E.fault_recovered, r.E.fault_degraded) (!recovered, !degraded));
    Alcotest.test_case "a fault failure replays as reported" `Quick (fun () ->
        let module E = Crashtest.Explorer in
        let cfg = { E.default with seed = 7; faults = true } in
        let w = Crashtest.Workload.build "map-nofence" ~ops:8 in
        let f =
          match
            List.filter
              (fun f -> f.E.fault <> None)
              (E.explore ~cfg w).E.failures
          with
          | f :: _ -> f
          | [] -> Alcotest.fail "no fault sample failed"
        in
        Alcotest.(check bool) "replay reproduces" true
          (Crashtest.Replay.reproduces ~cfg f);
        Alcotest.(check (option int)) "the kind is found from the seed"
          f.E.fault
          (E.fault_kind cfg ~crash_index:f.E.crash_index
             (Option.get f.E.survival_seed));
        let f' = Crashtest.Replay.minimize ~cfg f in
        Alcotest.(check bool) "shrunk repro still reproduces" true
          (f'.E.ops <= f.E.ops && Crashtest.Replay.reproduces ~cfg f'));
  ]

(* -- worklist recovery: deep structures ------------------------------------- *)

let deep_tests =
  [
    Alcotest.test_case "recovery walks a 150k-node structure" `Quick
      (fun () ->
        (* the old recursive mark phase overflowed the OCaml stack at this
           depth; the explicit worklist must not *)
        let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 21) () in
        let s = Mod_core.Dstack.open_or_create heap ~slot:0 in
        let n = 150_000 in
        Mod_core.Dstack.push_many s (List.init n (fun i -> word i));
        let report = Mod_core.Recovery.recover_exn heap in
        ignore (report : Mod_core.Recovery.report);
        let s = Mod_core.Dstack.open_or_create heap ~slot:0 in
        Alcotest.(check int) "all nodes survive recovery" n
          (Mod_core.Dstack.length s);
        Alcotest.(check (option int)) "top element intact" (Some (n - 1))
          (Option.map Pmem.Word.to_int (Mod_core.Dstack.peek s)));
  ]

let () =
  Alcotest.run "faults"
    [
      ("region", region_tests);
      ("root-records", root_record_tests);
      ("policy-word", policy_tests);
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest fault_sweep_qcheck;
          QCheck_alcotest.to_alcotest fault_detection_qcheck;
        ] );
      ("explorer", explorer_tests);
      ("deep-recovery", deep_tests);
    ]
