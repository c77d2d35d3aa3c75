(* Differential crash testing for the "don't persist all" Backup commit
   policy (paper Section 6): a structure committed with
   [~persist:Backup] flushes only its backup data -- a bounded op log
   hanging off a descriptor -- and recovery reconstructs the interior
   nodes by replaying the log.  The proof obligation is equivalence with
   the Full policy: for every structure, every operation prefix and
   every crash point, the Backup-policy recovery must dump a state the
   Full-policy structure reproduces exactly, and recovery must never
   raise.

   Also here: the Backup-specific fsck story (interior-absent images are
   Clean; a corrupted log line is Corrupt; --repair output reopens) and
   a real kill-9 slice under the Backup policy. *)

module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)

let temp_image () = Filename.temp_file "mod_test_persist" ".img"

let cleanup path =
  if Sys.file_exists path then Sys.remove path;
  let j = path ^ ".journal" in
  if Sys.file_exists j then Sys.remove j

(* -- differential property ------------------------------------------------ *)

let modes =
  [|
    Pmem.Region.Drop_inflight; Pmem.Region.Keep_inflight;
    Pmem.Region.Randomize;
  |]

let cfg = { Crashtest.Explorer.default with log = ignore }

(* Total PM events of a complete Backup-policy run, to scale crash
   points into range. *)
let backup_events ~name ~ops =
  let w = Crashtest.Workload.build ~persist:Pmalloc.Heap.Backup name ~ops in
  match Crashtest.Explorer.run_until cfg w ~budget:None with
  | `Completed (events, _heap) -> events
  | `Crashed _ -> Alcotest.fail "uncrashed run reported a crash"

(* The Full-policy structure's dump after exactly [k] operations of the
   shared script: the ground truth a Backup recovery must match. *)
let full_dump_after ~name ~ops k =
  let w = Crashtest.Workload.build name ~ops in
  let heap =
    Pmalloc.Heap.create ~capacity_words:Crashtest.Explorer.capacity_words
      ~seed:Crashtest.Explorer.heap_seed ()
  in
  let inst = w.Crashtest.Workload.make heap in
  inst.Crashtest.Workload.init ();
  for i = 0 to k - 1 do
    inst.Crashtest.Workload.run_op i
  done;
  inst.Crashtest.Workload.dump ()

let diff_gen =
  QCheck.Gen.(
    let* name = oneofl Crashtest.Workload.basic_names in
    let* ops = int_range 5 14 in
    let* frac = int_range 1 1000 in
    let* mode = int_range 0 2 in
    let* sseed = int_range 0 9999 in
    return (name, ops, frac, mode, sseed))

let print_diff_case (name, ops, frac, mode, sseed) =
  Printf.sprintf "%s ops=%d frac=%d/1000 mode=%s seed=%d" name ops frac
    (Crashtest.Explorer.mode_name modes.(mode))
    sseed

(* For (structure x prefix x crash point x crash mode): crash the
   Backup-policy run, recover, and require (1) recovery and dump never
   raise, (2) the oracle accepts the state, (3) the state is a model
   prefix, and (4) the Full-policy structure replayed to that prefix
   dumps the identical string. *)
let differential_property =
  QCheck.Test.make ~count:40
    ~name:"backup recovery dump == full-policy dump of the same prefix"
    (QCheck.make ~print:print_diff_case diff_gen)
    (fun (name, ops, frac, mode, sseed) ->
      let events = backup_events ~name ~ops in
      let budget = 1 + (frac * (events - 1) / 1000) in
      let w =
        Crashtest.Workload.build ~persist:Pmalloc.Heap.Backup name ~ops
      in
      match Crashtest.Explorer.run_until cfg w ~budget:(Some budget) with
      | `Completed (_, heap) ->
          (* budget past the last event: compare final states instead *)
          let inst = w.Crashtest.Workload.make heap in
          let s = inst.Crashtest.Workload.dump () in
          let full = full_dump_after ~name ~ops ops in
          if s <> full then
            QCheck.Test.fail_reportf
              "completed backup run dumps %s, full dumps %s" s full;
          true
      | `Crashed c ->
          let mode = modes.(mode) in
          let seed =
            match mode with
            | Pmem.Region.Randomize -> Some sseed
            | _ -> None
          in
          Pmalloc.Heap.crash ~mode ?seed c.Crashtest.Explorer.c_heap;
          (match Crashtest.Explorer.recover_and_check c with
          | Crashtest.Oracle.Consistent -> ()
          | Crashtest.Oracle.Violation d ->
              QCheck.Test.fail_reportf "oracle violation @ event %d: %s"
                budget d);
          let s =
            match c.Crashtest.Explorer.c_dump () with
            | s -> s
            | exception e ->
                QCheck.Test.fail_reportf "post-recovery dump raised: %s"
                  (Printexc.to_string e)
          in
          let k = ref None in
          Array.iteri
            (fun i m -> if !k = None && m = s then k := Some i)
            w.Crashtest.Workload.model;
          let k =
            match !k with
            | Some k -> k
            | None ->
                QCheck.Test.fail_reportf
                  "recovered state %s matches no model prefix" s
          in
          let full = full_dump_after ~name ~ops k in
          if s <> full then
            QCheck.Test.fail_reportf
              "backup recovery dumps %s, full-policy prefix %d dumps %s" s k
              full;
          true)

(* -- policy plumbing ------------------------------------------------------ *)

let policy_tests =
  [
    Alcotest.test_case "policy word survives close/reopen" `Quick (fun () ->
        let path = temp_image () in
        let heap =
          Pmalloc.Heap.create ~capacity_words:(1 lsl 14) ~file:path ()
        in
        let m =
          Imap.open_or_create ~persist:Pmalloc.Heap.Backup heap ~slot:0
        in
        Imap.insert m 1 10;
        Alcotest.(check bool) "policy is Backup" true
          (Pmalloc.Heap.get_policy heap 0 = Pmalloc.Heap.Backup);
        Pmalloc.Heap.close heap;
        (match Mod_core.Recovery.open_file ~path () with
        | Error e -> Alcotest.failf "reopen: %s" (Mod_core.Error.to_string e)
        | Ok o ->
            let heap = o.Mod_core.Recovery.heap in
            Alcotest.(check bool) "policy survives reopen" true
              (Pmalloc.Heap.get_policy heap 0 = Pmalloc.Heap.Backup);
            let m = Imap.open_or_create heap ~slot:0 in
            Alcotest.(check int) "replayed entry" 10
              (Option.get (Imap.find m 1));
            Pmalloc.Heap.close heap);
        cleanup path);
    Alcotest.test_case "full reopen of a Backup slot is rejected" `Quick
      (fun () ->
        let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 14) () in
        ignore (Imap.open_or_create ~persist:Pmalloc.Heap.Backup heap ~slot:0);
        match
          Imap.open_or_create ~persist:Pmalloc.Heap.Full heap ~slot:0
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "demotion to Full accepted silently");
    Alcotest.test_case "log overflow checkpoints and keeps going" `Quick
      (fun () ->
        let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 16) () in
        let m =
          Imap.open_or_create ~persist:Pmalloc.Heap.Backup heap ~slot:0
        in
        (* push well past the log capacity to force checkpoints *)
        let n = (3 * Pmalloc.Backup.log_capacity) + 5 in
        for k = 1 to n do
          Imap.insert m k (k * 2)
        done;
        Alcotest.(check int) "all entries live" n (Imap.cardinal m);
        (* recovery after the volatile state is dropped still replays *)
        ignore (Mod_core.Recovery.recover_exn heap);
        Imap.reconstruct heap ~slot:0;
        Alcotest.(check int) "all entries after recovery" n (Imap.cardinal m));
    Alcotest.test_case "multi-slot batch commit rejects Backup slots" `Quick
      (fun () ->
        let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 14) () in
        ignore (Imap.open_or_create ~persist:Pmalloc.Heap.Backup heap ~slot:0);
        ignore (Imap.open_or_create heap ~slot:1);
        let b = Mod_core.Batch.create heap in
        Mod_core.Batch.stage b ~slot:0 (fun v ->
            Imap.insert_pure heap v 1 1);
        Mod_core.Batch.stage b ~slot:1 (fun v ->
            Imap.insert_pure heap v 2 2);
        match Mod_core.Batch.commit b with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "CommitUnrelated over a Backup slot accepted");
  ]

(* -- fsck on Backup images ------------------------------------------------ *)

let fsck_tests =
  [
    Alcotest.test_case "interior-absent Backup image is Clean" `Quick
      (fun () ->
        let path = temp_image () in
        let heap =
          Pmalloc.Heap.create ~capacity_words:(1 lsl 14) ~file:path ()
        in
        let m =
          Imap.open_or_create ~persist:Pmalloc.Heap.Backup heap ~slot:0
        in
        for k = 1 to 20 do
          Imap.insert m k (k * 7)
        done;
        (* the live tree root: an interior node the Backup policy never
           flushed, so the image file must hold zeros at its address *)
        let root_body =
          Pmem.Word.to_ptr (Mod_core.Commit.current_of heap ~slot:0)
        in
        Pmalloc.Heap.close heap;
        Alcotest.(check int) "interior node absent from the image" 0
          (Pmem.Backing.peek_word ~path ~index:root_body);
        let r = Pmalloc.Fsck.check path in
        Alcotest.(check string) "fsck verdict" "clean"
          (Pmalloc.Fsck.verdict_name r.Pmalloc.Fsck.verdict);
        (* and the log replays the whole map back *)
        (match Mod_core.Recovery.open_file ~path () with
        | Error e -> Alcotest.failf "reopen: %s" (Mod_core.Error.to_string e)
        | Ok o ->
            let heap = o.Mod_core.Recovery.heap in
            let m = Imap.open_or_create heap ~slot:0 in
            Alcotest.(check int) "cardinal" 20 (Imap.cardinal m);
            Alcotest.(check int) "value" 70 (Option.get (Imap.find m 10));
            Pmalloc.Heap.close heap);
        cleanup path);
    Alcotest.test_case "corrupted backup log is Corrupt; repair reopens"
      `Quick (fun () ->
        let path = temp_image () in
        let heap =
          Pmalloc.Heap.create ~capacity_words:(1 lsl 14) ~file:path ()
        in
        let m =
          Imap.open_or_create ~persist:Pmalloc.Heap.Backup heap ~slot:0
        in
        for k = 1 to 8 do
          Imap.insert m k k
        done;
        (* the log block is backup data: it IS in the image, so tearing
           one of its words must trip the image checksum *)
        let log_body =
          match Pmalloc.Heap.backup_state heap 0 with
          | Some st -> st.Pmalloc.Heap.b_log
          | None -> Alcotest.fail "no backup state on a Backup slot"
        in
        Pmalloc.Heap.close heap;
        let index = Pmalloc.Backup.first_entry_off log_body in
        let v = Pmem.Backing.peek_word ~path ~index in
        Alcotest.(check bool) "log entry present in the image" true (v <> 0);
        Pmem.Backing.poke_word ~path ~index (v lxor 0x55AA);
        let r = Pmalloc.Fsck.check path in
        Alcotest.(check string) "fsck verdict" "corrupt"
          (Pmalloc.Fsck.verdict_name r.Pmalloc.Fsck.verdict);
        let r' = Pmalloc.Fsck.repair path in
        Alcotest.(check bool) "repair not corrupt" true
          (r'.Pmalloc.Fsck.verdict <> Pmalloc.Fsck.Corrupt);
        (match Mod_core.Recovery.open_file ~path () with
        | Ok o -> Pmalloc.Heap.close o.Mod_core.Recovery.heap
        | Error e ->
            Alcotest.failf "repaired image does not reopen: %s"
              (Mod_core.Error.to_string e));
        cleanup path);
  ]

(* -- fsck and reopen around the root summary ------------------------------ *)

module H = Pmalloc.Heap
module Dstack = Mod_core.Dstack

(* Rewrite one word of a closed image with a fresh image checksum, the
   way an image written by another build would carry it. *)
let rewrite_word path ~index f =
  let words = Array.copy (Pmem.Backing.inspect ~path).Pmem.Backing.i_words in
  words.(index) <- f words.(index);
  Pmem.Backing.rewrite ~path ~words

let verdict path = Pmalloc.Fsck.(verdict_name (check path).verdict)

let reopen path =
  match Mod_core.Recovery.open_file ~path () with
  | Ok o -> o
  | Error e -> Alcotest.failf "reopen: %s" (Mod_core.Error.to_string e)

(* A Full map on slot 0, a stack on slot 7 and a Backup map on slot 12. *)
let three_slot_image path =
  let heap = H.create ~capacity_words:(1 lsl 14) ~file:path () in
  let m = Imap.open_or_create heap ~slot:0 in
  let st = Dstack.open_or_create heap ~slot:7 in
  let b = Imap.open_or_create ~persist:H.Backup heap ~slot:12 in
  for k = 1 to 12 do
    Imap.insert m k (k * 3);
    Dstack.push st (Pmem.Word.of_int k);
    Imap.insert b k (k * 5)
  done;
  H.sfence heap;
  H.close heap

let check_three_slots heap =
  Alcotest.(check int) "map" 36 (Option.get (Imap.find (Imap.open_or_create heap ~slot:0) 12));
  Alcotest.(check int) "stack" 12
    (Pmem.Word.to_int (Option.get (Dstack.peek (Dstack.open_or_create heap ~slot:7))));
  Alcotest.(check int) "backup map" 12
    (Imap.cardinal (Imap.open_or_create ~persist:H.Backup heap ~slot:12))

let summary_fsck_tests =
  [
    Alcotest.test_case "summary 0: reopens, degraded"
      `Quick (fun () ->
        let path = temp_image () in
        three_slot_image path;
        rewrite_word path ~index:H.summary_off (fun _ -> 0);
        Alcotest.(check string) "fsck" "degraded" (verdict path);
        let o = reopen path in
        Alcotest.(check bool) "recovery scanned every slot" false
          o.Mod_core.Recovery.recovery.gc.Pmalloc.Recovery_gc.via_summary;
        check_three_slots o.heap;
        H.close o.heap;
        let r = Pmalloc.Fsck.repair path in
        Alcotest.(check (option (list int))) "repaired summary"
          (Some [ 0; 1; 6; 7; 12; 13 ]) r.Pmalloc.Fsck.summary;
        Alcotest.(check string) "after repair" "clean" (verdict path);
        let o = reopen path in
        Alcotest.(check bool) "recovery used the summary" true
          o.Mod_core.Recovery.recovery.gc.Pmalloc.Recovery_gc.via_summary;
        check_three_slots o.heap;
        H.close o.heap;
        cleanup path);
    Alcotest.test_case "summary omits a live slot"
      `Quick (fun () ->
        let path = temp_image () in
        three_slot_image path;
        rewrite_word path ~index:H.summary_off (fun _ ->
            Pmem.Word.bits
              (H.encode_summary (H.summary_bit 0 lor H.summary_bit 12)));
        Alcotest.(check string) "fsck" "corrupt" (verdict path);
        let r = Pmalloc.Fsck.repair path in
        Alcotest.(check (list int)) "nothing quarantined" []
          r.Pmalloc.Fsck.quarantined;
        Alcotest.(check string) "after repair" "clean" (verdict path);
        let o = reopen path in
        check_three_slots o.heap;
        H.close o.heap;
        cleanup path);
    Alcotest.test_case "corrupt policy word: repair" `Quick
      (fun () ->
        let path = temp_image () in
        three_slot_image path;
        rewrite_word path ~index:(H.policy_off 12) (fun w -> w lxor 0x55);
        Alcotest.(check string) "fsck" "corrupt" (verdict path);
        (match Mod_core.Recovery.open_file ~path () with
        | Error (Mod_core.Error.Corrupt_root { slot = 12; _ }) -> ()
        | Error e -> Alcotest.failf "reopen: %s" (Mod_core.Error.to_string e)
        | Ok _ -> Alcotest.fail "reopen accepted a corrupt policy word");
        let r = Pmalloc.Fsck.repair path in
        Alcotest.(check (list int)) "slot 12 quarantined" [ 12 ]
          r.Pmalloc.Fsck.quarantined;
        let o = reopen path in
        Alcotest.(check int) "map intact" 36
          (Option.get (Imap.find (Imap.open_or_create o.heap ~slot:0) 12));
        H.close o.heap;
        cleanup path);
  ]

(* -- flush accounting ----------------------------------------------------- *)

let flush_tests =
  [
    Alcotest.test_case "backup strictly reduces flushes/op" `Quick (fun () ->
        let flushes persist =
          let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 18) () in
          let m = Imap.open_or_create ?persist heap ~slot:0 in
          let stats = Pmalloc.Heap.stats heap in
          let before = stats.Pmem.Stats.clwbs in
          for k = 1 to 200 do
            Imap.insert m k k
          done;
          stats.Pmem.Stats.clwbs - before
        in
        let full = flushes None in
        let backup = flushes (Some Pmalloc.Heap.Backup) in
        Alcotest.(check bool)
          (Printf.sprintf "backup %d < full %d clwbs" backup full)
          true
          (backup < full));
  ]

(* -- real kill-9 under Backup --------------------------------------------- *)

let kill9_tests =
  [
    Alcotest.test_case "kill9: vec sweep under Backup has no violations"
      `Slow (fun () ->
        let r =
          Crashtest.Kill9.run ~ops:30 ~persist:Pmalloc.Heap.Backup
            ~workload:"vec" ~kills:6 ()
        in
        let n k = List.assoc k (Crashtest.Kill9.counters r) in
        Alcotest.(check int) "violations" 0 (n "violations");
        Alcotest.(check int) "escaped" 0 (n "escaped");
        Alcotest.(check int) "every point killed" 0 (n "unkilled");
        Alcotest.(check bool) "ok" true (Crashtest.Kill9.ok r));
  ]

let () =
  Alcotest.run "persist"
    [
      ("policy", policy_tests);
      ("fsck-backup", fsck_tests);
      ("fsck-summary", summary_fsck_tests);
      ("flushes", flush_tests);
      ( "differential",
        [ QCheck_alcotest.to_alcotest ~long:true differential_property ] );
      ("kill9-backup", kill9_tests);
    ]
