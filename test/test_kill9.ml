(* Tests for the file-backed persistence backend and the kill-9 story:
   the journaled atomic batch writeback ([Pmem.Backing]), typed
   [Bad_image] degradation for every way an image file can be unusable,
   heap state surviving a real fork + SIGKILL, the offline fsck
   classifier, and the qcheck property tying fsck's verdict to the
   durable-linearizability oracle. *)

let word = Pmem.Word.of_int

module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)

let temp_image () = Filename.temp_file "mod_test_kill9" ".img"

let cleanup path =
  if Sys.file_exists path then Sys.remove path;
  let j = path ^ ".journal" in
  if Sys.file_exists j then Sys.remove j

let line8 seed = Array.init 8 (fun i -> seed + i)

(* -- Backing: the journaled atomic batch ---------------------------------- *)

exception Abort_commit

(* A sync hook that aborts the [ordinal]-th commit at [phase]. *)
let abort_at ordinal phase p o =
  if o = ordinal && p = phase then raise Abort_commit

let backing_tests =
  [
    Alcotest.test_case "commit/close/open round-trips words and capacity"
      `Quick (fun () ->
        let path = temp_image () in
        let b = Pmem.Backing.create ~path ~capacity_words:64 () in
        Pmem.Backing.commit b ~capacity:64
          ~lines:[ (0, line8 100); (3, line8 900) ];
        Pmem.Backing.commit b ~capacity:64 ~lines:[ (3, line8 300) ];
        Pmem.Backing.close b;
        let b', words, status = Pmem.Backing.open_ ~path in
        Pmem.Backing.close b';
        Alcotest.(check bool) "no journal pending" true (status = `None);
        Alcotest.(check int) "capacity" 64 (Array.length words);
        Alcotest.(check int) "line 0 word 2" 102 words.(2);
        Alcotest.(check int) "line 3 overwritten" 305 words.(29);
        Alcotest.(check int) "untouched words zero" 0 words.(40);
        cleanup path);
    Alcotest.test_case "capacity growth is part of the atomic batch" `Quick
      (fun () ->
        let path = temp_image () in
        let b = Pmem.Backing.create ~path ~capacity_words:8 () in
        Pmem.Backing.commit b ~capacity:24 ~lines:[ (2, line8 70) ];
        Pmem.Backing.close b;
        let b', words, _ = Pmem.Backing.open_ ~path in
        Pmem.Backing.close b';
        Alcotest.(check int) "grown capacity" 24 (Array.length words);
        Alcotest.(check int) "grown line" 77 words.(23);
        cleanup path);
    Alcotest.test_case "torn journal (pre-marker kill) is discarded" `Quick
      (fun () ->
        let path = temp_image () in
        let b =
          Pmem.Backing.create ~path ~capacity_words:64
            ~sync_hook:(abort_at 2 Pmem.Backing.Journal_torn)
            ()
        in
        Pmem.Backing.commit b ~capacity:64 ~lines:[ (1, line8 10) ];
        (match
           Pmem.Backing.commit b ~capacity:64 ~lines:[ (1, line8 500) ]
         with
        | () -> Alcotest.fail "commit should have aborted"
        | exception Abort_commit -> ());
        Pmem.Backing.close b;
        let b', words, status = Pmem.Backing.open_ ~path in
        Pmem.Backing.close b';
        Alcotest.(check bool) "discarded" true (status = `Discarded);
        Alcotest.(check int) "pre-batch state" 10 words.(8);
        cleanup path);
    Alcotest.test_case "committed journal (post-marker kill) replays" `Quick
      (fun () ->
        let path = temp_image () in
        let b =
          Pmem.Backing.create ~path ~capacity_words:64
            ~sync_hook:(abort_at 2 Pmem.Backing.Journal_committed)
            ()
        in
        Pmem.Backing.commit b ~capacity:64 ~lines:[ (1, line8 10) ];
        (try
           Pmem.Backing.commit b ~capacity:64
             ~lines:[ (1, line8 500); (4, line8 40) ]
         with Abort_commit -> ());
        Pmem.Backing.close b;
        let b', words, status = Pmem.Backing.open_ ~path in
        Pmem.Backing.close b';
        Alcotest.(check bool) "replayed both lines" true
          (status = `Replayed 2);
        Alcotest.(check int) "post-batch line 1" 500 words.(8);
        Alcotest.(check int) "post-batch line 4" 47 words.(39);
        cleanup path);
    Alcotest.test_case "kill mid-apply still replays to the full batch"
      `Quick (fun () ->
        let path = temp_image () in
        let b =
          Pmem.Backing.create ~path ~capacity_words:64
            ~sync_hook:(abort_at 1 Pmem.Backing.Mid_apply)
            ()
        in
        (try
           Pmem.Backing.commit b ~capacity:64
             ~lines:[ (0, line8 1); (2, line8 2); (5, line8 3) ]
         with Abort_commit -> ());
        Pmem.Backing.close b;
        let b', words, status = Pmem.Backing.open_ ~path in
        Pmem.Backing.close b';
        Alcotest.(check bool) "replayed" true (status = `Replayed 3);
        Alcotest.(check int) "first line applied" 1 words.(0);
        Alcotest.(check int) "last line applied" 3 words.(40);
        cleanup path);
  ]

(* -- typed Bad_image degradation ------------------------------------------ *)

let expect_bad_image name path =
  match Mod_core.Recovery.open_file ~path () with
  | Ok _ -> Alcotest.failf "%s: unusable image opened" name
  | Error (Mod_core.Error.Bad_image _) -> ()
  | Error e ->
      Alcotest.failf "%s: expected Bad_image, got %s" name
        (Mod_core.Error.to_string e)

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let bad_image_tests =
  [
    Alcotest.test_case "missing file is a typed Bad_image" `Quick (fun () ->
        expect_bad_image "missing" "/nonexistent/mod_heap.img");
    Alcotest.test_case "empty and short files are typed Bad_image" `Quick
      (fun () ->
        let path = temp_image () in
        write_bytes path "";
        expect_bad_image "empty" path;
        write_bytes path "short";
        expect_bad_image "short" path;
        cleanup path);
    Alcotest.test_case "wrong magic is a typed Bad_image" `Quick (fun () ->
        let path = temp_image () in
        let b = Pmem.Backing.create ~path ~capacity_words:1024 () in
        Pmem.Backing.close b;
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
        ignore (Unix.write fd (Bytes.make 1 '\xFF') 0 1 : int);
        Unix.close fd;
        expect_bad_image "magic" path;
        cleanup path);
    Alcotest.test_case "undersized image (no root directory) is Bad_image"
      `Quick (fun () ->
        let path = temp_image () in
        let b = Pmem.Backing.create ~path ~capacity_words:64 () in
        Pmem.Backing.close b;
        expect_bad_image "undersized" path;
        cleanup path);
    Alcotest.test_case "out-of-band word corruption is caught by checksum"
      `Quick (fun () ->
        let path = temp_image () in
        let heap =
          Pmalloc.Heap.create ~capacity_words:(1 lsl 14) ~file:path ()
        in
        let m = Imap.open_or_create heap ~slot:0 in
        for k = 1 to 20 do
          Imap.insert m k k
        done;
        Pmalloc.Heap.close heap;
        let v = Pmem.Backing.peek_word ~path ~index:600 in
        Pmem.Backing.poke_word ~path ~index:600 (v lxor 0x5A5A);
        expect_bad_image "poked" path;
        (* and fsck agrees, then repair brings it back *)
        let r = Pmalloc.Fsck.check path in
        Alcotest.(check bool) "fsck corrupt" true
          (r.Pmalloc.Fsck.verdict = Pmalloc.Fsck.Corrupt);
        let r' = Pmalloc.Fsck.repair path in
        Alcotest.(check bool) "repair is not corrupt" true
          (r'.Pmalloc.Fsck.verdict <> Pmalloc.Fsck.Corrupt);
        (match Mod_core.Recovery.open_file ~path () with
        | Ok o -> Pmalloc.Heap.close o.Mod_core.Recovery.heap
        | Error e ->
            Alcotest.failf "repaired image does not reopen: %s"
              (Mod_core.Error.to_string e));
        cleanup path);
  ]

(* -- heap round-trip and real SIGKILL survival ---------------------------- *)

let count r k = List.assoc k (Crashtest.Kill9.counters r)

(* The kill points of a workload's run, recorded in-process in the order
   they happen: each file commit's phases through the sync hook, each
   op's ack after the op. *)
let run_events ~workload ~ops =
  let path = temp_image () in
  let events = ref [] in
  let heap =
    Pmalloc.Heap.create ~capacity_words:(1 lsl 16) ~file:path
      ~sync_hook:(fun phase commit ->
        events := Crashtest.Kill9.At_sync { commit; phase } :: !events)
      ()
  in
  let inst = (Crashtest.Workload.build workload ~ops).make heap in
  inst.Crashtest.Workload.init ();
  for i = 1 to ops do
    inst.Crashtest.Workload.run_op (i - 1);
    events := Crashtest.Kill9.After_ack i :: !events
  done;
  Pmalloc.Heap.sfence heap;
  Pmalloc.Heap.close heap;
  cleanup path;
  List.rev !events

(* One stride-1 sweep, shared by the tests that read it. *)
let map_sweep =
  lazy (Crashtest.Kill9.run ~ops:12 ~workload:"map" ~kills:1000 ())

let roundtrip_tests =
  [
    Alcotest.test_case "map survives close + typed reopen" `Quick (fun () ->
        let path = temp_image () in
        let heap =
          Pmalloc.Heap.create ~capacity_words:(1 lsl 14) ~file:path ()
        in
        let m = Imap.open_or_create heap ~slot:0 in
        for k = 1 to 64 do
          Imap.insert m k (k * k)
        done;
        Pmalloc.Heap.close heap;
        (match Mod_core.Recovery.open_file ~path () with
        | Error e -> Alcotest.failf "reopen: %s" (Mod_core.Error.to_string e)
        | Ok o ->
            let heap = o.Mod_core.Recovery.heap in
            Alcotest.(check bool) "clean journal" true
              (o.Mod_core.Recovery.journal = `None);
            Alcotest.(check bool) "reopen latency measured" true
              (o.Mod_core.Recovery.reopen_ns > 0.0);
            let m = Imap.open_or_create heap ~slot:0 in
            Alcotest.(check int) "cardinal" 64 (Imap.cardinal m);
            Alcotest.(check int) "value" 49 (Option.get (Imap.find m 7));
            Pmalloc.Heap.close heap);
        let r = Pmalloc.Fsck.check path in
        Alcotest.(check bool) "fsck clean" true
          (r.Pmalloc.Fsck.verdict = Pmalloc.Fsck.Clean);
        cleanup path);
    Alcotest.test_case "heap state survives a real SIGKILL" `Quick (fun () ->
        let path = temp_image () in
        let rfd, wfd = Unix.pipe () in
        (match Unix.fork () with
        | 0 ->
            Unix.close rfd;
            (try
               let heap =
                 Pmalloc.Heap.create ~capacity_words:(1 lsl 14) ~file:path ()
               in
               let m = Imap.open_or_create heap ~slot:0 in
               for k = 1 to 50 do
                 Imap.insert m k (k * 3)
               done;
               Pmalloc.Heap.sfence heap;
               ignore (Unix.write wfd (Bytes.of_string "k") 0 1 : int)
             with _ -> ());
            (* hold the heap hostage until the parent shoots *)
            let rec spin () =
              Unix.sleepf 0.05;
              spin ()
            in
            spin ()
        | pid ->
            Unix.close wfd;
            ignore (Unix.read rfd (Bytes.create 1) 0 1 : int);
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            Unix.close rfd;
            (match Mod_core.Recovery.open_file ~path () with
            | Error e ->
                Alcotest.failf "post-kill reopen: %s"
                  (Mod_core.Error.to_string e)
            | Ok o ->
                let heap = o.Mod_core.Recovery.heap in
                let m = Imap.open_or_create heap ~slot:0 in
                Alcotest.(check int) "all 50 entries survive the kill" 50
                  (Imap.cardinal m);
                Alcotest.(check int) "17 -> 51" 51
                  (Option.get (Imap.find m 17));
                Pmalloc.Heap.close heap));
        cleanup path);
    Alcotest.test_case "kill9 harness: map sweep has no violations" `Slow
      (fun () ->
        let r = Crashtest.Kill9.run ~ops:30 ~workload:"map" ~kills:6 () in
        Alcotest.(check bool) "ok" true (Crashtest.Kill9.ok r);
        Alcotest.(check int) "violations" 0 (count r "violations");
        Alcotest.(check int) "escaped" 0 (count r "escaped");
        List.iter
          (fun t ->
            if t.Crashtest.Kill9.t_acked >= 0 then
              match t.Crashtest.Kill9.t_outcome with
              | Crashtest.Kill9.Consistent _ -> ()
              | _ -> Alcotest.fail "formatted image must recover consistent")
          r.Crashtest.Kill9.trials);
    Alcotest.test_case "kill9 harness: stride 1 tests every point in order"
      `Quick (fun () ->
        let r = Lazy.force map_sweep in
        Alcotest.(check int) "stride" 1 r.Crashtest.Kill9.stride;
        let expected = run_events ~workload:"map" ~ops:12 in
        let tested =
          List.filter_map (fun t -> t.Crashtest.Kill9.t_point) r.trials
        in
        Alcotest.(check (list string)) "the run's phases and acks, in order"
          (List.map Crashtest.Kill9.point_name expected)
          (List.map Crashtest.Kill9.point_name tested);
        Alcotest.(check int) "points" (List.length expected)
          r.Crashtest.Kill9.points;
        Alcotest.(check bool) "ok" true (Crashtest.Kill9.ok r);
        List.iter
          (fun t ->
            Alcotest.(check bool)
              (Printf.sprintf "trial %d completes only as the calibration"
                 t.Crashtest.Kill9.t_index)
              (t.Crashtest.Kill9.t_point = None) t.Crashtest.Kill9.t_completed)
          r.Crashtest.Kill9.trials);
    Alcotest.test_case "kill9 harness: two sweeps give the same verdicts"
      `Quick (fun () ->
        let verdicts () =
          let r = Crashtest.Kill9.run ~ops:10 ~workload:"queue" ~kills:25 () in
          List.map
            (fun t ->
              Crashtest.Kill9.
                ( Option.map point_name t.t_point,
                  t.t_acked,
                  t.t_completed,
                  t.t_journal,
                  t.t_fsck,
                  t.t_outcome ))
            r.Crashtest.Kill9.trials
        in
        let a = verdicts () in
        Alcotest.(check bool) "a strided sweep" true (List.length a > 2);
        Alcotest.(check bool) "identical (point, acked, outcome) lists" true
          (a = verdicts ()));
    Alcotest.test_case
      "kill9 harness: a formatting-commit kill is typed or empty"
      `Quick (fun () ->
        let r = Lazy.force map_sweep in
        let model = (Crashtest.Workload.build "map" ~ops:12).model in
        let format =
          List.filter
            (fun t ->
              match t.Crashtest.Kill9.t_point with
              | Some (Crashtest.Kill9.At_sync { commit = 1; _ }) -> true
              | _ -> false)
            r.Crashtest.Kill9.trials
        in
        Alcotest.(check int) "four phases" 4 (List.length format);
        List.iter
          (fun t ->
            Alcotest.(check int) "killed before the first ack" (-1)
              t.Crashtest.Kill9.t_acked;
            match t.Crashtest.Kill9.t_outcome with
            | Crashtest.Kill9.Typed_error _ -> ()
            | Crashtest.Kill9.Consistent (Some i) ->
                Alcotest.(check string) "the empty state" model.(0) model.(i)
            | _ -> Alcotest.fail "a formatting-commit kill escaped or broke")
          format;
        Alcotest.(check bool) "the torn journal leaves a typed error" true
          (List.exists
             (fun t ->
               match t.Crashtest.Kill9.t_outcome with
               | Crashtest.Kill9.Typed_error _ -> true
               | _ -> false)
             format));
    (* A shard target commits only on its own requests, far fewer than
       the script's length: the points come from the calibration run's
       own commits and acks, so every one of them kills. *)
    Alcotest.test_case
      "kill9 harness: --keep keeps the raw image of an apply-phase point"
      `Quick (fun () ->
        let module K = Crashtest.Kill9 in
        let dir = Filename.temp_dir "mod_test_kill9" "" in
        let r = K.run ~dir ~keep:true ~ops:8 ~workload:"map" ~kills:1000 () in
        Alcotest.(check bool) "ok" true (K.ok r);
        (* the last apply-phase point past the formatting commit *)
        let t =
          List.find
            (fun t ->
              match t.K.t_point with
              | Some (K.At_sync { commit; phase = Pmem.Backing.Mid_apply }) ->
                  commit > 1
              | _ -> false)
            (List.rev r.K.trials)
        in
        let commit =
          match t.K.t_point with
          | Some (K.At_sync { commit; _ }) -> commit
          | _ -> assert false
        in
        let kept = K.image_path ~dir ~workload:"map" t.K.t_index in
        (* what [modpm serve --kill-commit C --kill-phase apply] leaves *)
        let fresh = temp_image () in
        cleanup fresh;
        (match Unix.fork () with
        | 0 ->
            (try
               K.serve ~kill:(K.At_sync { commit; phase = Pmem.Backing.Mid_apply })
                 ~path:fresh ~workload:"map" ~ops:8
                 ~ack_fd:(Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0)
                 ()
             with _ -> ());
            Unix._exit 3
        | pid -> (
            match Unix.waitpid [] pid with
            | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
            | _ -> Alcotest.fail "the worker did not kill itself"));
        let raw = Pmalloc.Fsck.check kept and rerun = Pmalloc.Fsck.check fresh in
        let journal r = Format.asprintf "%a" Pmalloc.Fsck.pp_report r in
        Alcotest.(check bool) "a committed journal is kept" true
          (match raw.Pmalloc.Fsck.journal with
          | Pmem.Backing.Jcommitted _ -> true
          | _ -> false);
        Alcotest.(check string) "kept = rerun" (journal rerun) (journal raw);
        Alcotest.(check bool) "the reopened copy is gone" false
          (Sys.file_exists (kept ^ ".reopened"));
        cleanup fresh;
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir);
    Alcotest.test_case
      "kill9 harness: shard target, every ack and sync point kills"
      `Quick (fun () ->
        let r = Crashtest.Kill9.run ~ops:60 ~workload:"shard1of3" ~kills:8 () in
        Alcotest.(check bool) "ok" true (Crashtest.Kill9.ok r);
        Alcotest.(check int) "every point killed" 0 (count r "unkilled");
        Alcotest.(check bool) "a strided sweep" true
          (r.Crashtest.Kill9.stride > 1 && List.length r.trials > 2));
  ]

(* -- fsck vs the oracle (qcheck) ------------------------------------------ *)

(* Build a post-kill image in-process: run a workload prefix against a
   file-backed heap and abort (exception, not SIGKILL -- same file
   state) inside the [kill]-th writeback batch at the given phase; batch
   1 is the formatting commit inside [Heap.create].  Returns the
   workload and how many ops completed (-1: none, not even init). *)
let build_image ~path ~workload ~ops ~kill ~phase =
  let w = Crashtest.Workload.build workload ~ops in
  let completed = ref (-1) in
  (try
     let heap =
       Pmalloc.Heap.create ~capacity_words:(1 lsl 14) ~file:path
         ~sync_hook:(abort_at kill phase) ()
     in
     let inst = w.Crashtest.Workload.make heap in
     inst.Crashtest.Workload.init ();
     completed := 0;
     for i = 0 to ops - 1 do
       inst.Crashtest.Workload.run_op i;
       completed := i + 1
     done;
     Pmalloc.Heap.sfence heap;
     Pmalloc.Heap.close heap
   with Abort_commit -> ());
  (w, !completed)

let phases =
  [|
    Pmem.Backing.Journal_torn; Pmem.Backing.Journal_committed;
    Pmem.Backing.Mid_apply; Pmem.Backing.Applied;
  |]

let fsck_case_gen =
  QCheck.Gen.(
    let* workload = oneofl [ "map"; "queue"; "stack"; "vec" ] in
    let* ops = int_range 4 16 in
    let* kill = int_range 1 14 in
    let* phase = int_range 0 3 in
    let* corrupt = opt (int_range 0 ((1 lsl 14) - 1)) in
    return (workload, ops, kill, phase, corrupt))

let print_fsck_case (w, ops, kill, phase, corrupt) =
  Printf.sprintf "%s ops=%d kill=%d phase=%s corrupt=%s" w ops kill
    (Pmem.Backing.phase_name phases.(phase))
    (match corrupt with None -> "none" | Some i -> string_of_int i)

(* For any image produced by (workload prefix x kill point x optional
   out-of-band word corruption): fsck classifies it without crashing;
   a Clean verdict implies the image reopens AND recovers to an
   oracle-acceptable state; and the repaired image always reopens. *)
let fsck_property =
  QCheck.Test.make ~count:30 ~name:"fsck never blesses an oracle-rejected image"
    (QCheck.make ~print:print_fsck_case fsck_case_gen)
    (fun (workload, ops, kill, phase, corrupt) ->
      let path = temp_image () in
      let w, completed =
        build_image ~path ~workload ~ops ~kill ~phase:phases.(phase)
      in
      (match corrupt with
      | None -> ()
      | Some index ->
          let v = Pmem.Backing.peek_word ~path ~index in
          Pmem.Backing.poke_word ~path ~index (v lxor 0xBEEF));
      let report = Pmalloc.Fsck.check path in
      (* fsck must never crash; an out-of-band corruption must never be
         blessed (the incremental image checksum catches it) *)
      if corrupt <> None && report.Pmalloc.Fsck.verdict = Pmalloc.Fsck.Clean
      then QCheck.Test.fail_report "corrupted image reported Clean";
      (match Mod_core.Recovery.open_file ~path () with
      | Ok o ->
          let heap = o.Mod_core.Recovery.heap in
          let recovered =
            match
              let inst = w.Crashtest.Workload.make heap in
              inst.Crashtest.Workload.dump ()
            with
            | s -> Ok s
            | exception e -> Error e
          in
          Pmalloc.Heap.close heap;
          (* the completed prefix, newest first *)
          let history =
            let a = max 0 completed in
            List.init (a + 1) (fun i -> w.Crashtest.Workload.model.(a - i))
          in
          let oracle =
            Crashtest.Oracle.check ~history ~pending:None ~recovered
          in
          if
            report.Pmalloc.Fsck.verdict = Pmalloc.Fsck.Clean
            && oracle <> Crashtest.Oracle.Consistent
          then
            QCheck.Test.fail_report
              "fsck Clean but recovered state fails the oracle"
      | Error _ ->
          if report.Pmalloc.Fsck.verdict = Pmalloc.Fsck.Clean then
            QCheck.Test.fail_report "fsck Clean but image does not reopen");
      (* --repair output always reopens *)
      let repaired = Pmalloc.Fsck.repair path in
      ignore (repaired.Pmalloc.Fsck.verdict : Pmalloc.Fsck.verdict);
      (match Mod_core.Recovery.open_file ~path () with
      | Ok o -> Pmalloc.Heap.close o.Mod_core.Recovery.heap
      | Error e ->
          QCheck.Test.fail_reportf "repaired image does not reopen: %s"
            (Mod_core.Error.to_string e));
      cleanup path;
      true)

let () =
  ignore (word : int -> Pmem.Word.t);
  Alcotest.run "kill9"
    [
      ("backing", backing_tests);
      ("bad-image", bad_image_tests);
      ("roundtrip", roundtrip_tests);
      ("fsck-oracle", [ QCheck_alcotest.to_alcotest ~long:true fsck_property ]);
    ]
