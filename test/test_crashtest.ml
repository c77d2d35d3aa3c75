(* Tests for the exhaustive crash-point exploration engine: the PM-event
   crash scheduler, snapshot/restore, epoch-deferred reclamation, the
   durable-linearizability oracle, exhaustive sweeps over every workload,
   negative controls, and minimal-repro replay. *)

let mk_region () = Pmem.Region.create ~capacity_words:256 ~trace:true ~seed:7 ()

(* -- crash scheduler -------------------------------------------------------- *)

let scheduler_tests =
  [
    Alcotest.test_case "pm_events counts stores, clwbs and fences" `Quick
      (fun () ->
        let r = mk_region () in
        let base = Pmem.Region.pm_events r in
        Pmem.Region.store r 10 (Pmem.Word.of_int 1);
        Pmem.Region.store r 11 (Pmem.Word.of_int 2);
        Pmem.Region.clwb r 10;
        Pmem.Region.sfence r;
        Alcotest.(check int) "four events" 4 (Pmem.Region.pm_events r - base));
    Alcotest.test_case "crash fires after exactly the Nth event" `Quick
      (fun () ->
        let r = mk_region () in
        Pmem.Region.set_crash_after r 3;
        Pmem.Region.store r 10 (Pmem.Word.of_int 1);
        Pmem.Region.store r 11 (Pmem.Word.of_int 2);
        (match Pmem.Region.store r 12 (Pmem.Word.of_int 3) with
        | () -> Alcotest.fail "expected Crash_point on the third event"
        | exception Pmem.Region.Crash_point -> ());
        (* the dead machine runs nothing until the crash is injected:
           every access raises again and leaves the event count alone *)
        let events = Pmem.Region.pm_events r in
        List.iter
          (fun (what, access) ->
            match access () with
            | () -> Alcotest.failf "%s ran after the power failed" what
            | exception Pmem.Region.Crash_point -> ())
          [
            ("store", fun () -> Pmem.Region.store r 13 (Pmem.Word.of_int 4));
            ("clwb", fun () -> Pmem.Region.clwb r 10);
            ("sfence", fun () -> Pmem.Region.sfence r);
            ("load", fun () -> ignore (Pmem.Region.load r 10));
          ];
        Alcotest.(check int) "no event after the failure" events
          (Pmem.Region.pm_events r);
        (* the budget disarmed itself: after the crash events run normally *)
        Pmem.Region.crash ~mode:Pmem.Region.Drop_inflight r;
        Pmem.Region.store r 13 (Pmem.Word.of_int 4));
    Alcotest.test_case "set_crash_after rejects non-positive budgets" `Quick
      (fun () ->
        let r = mk_region () in
        Alcotest.check_raises "zero budget"
          (Invalid_argument "Region.set_crash_after: budget must be positive")
          (fun () -> Pmem.Region.set_crash_after r 0));
    Alcotest.test_case "clear_crash_point disarms a pending budget" `Quick
      (fun () ->
        let r = mk_region () in
        Pmem.Region.set_crash_after r 1;
        Pmem.Region.clear_crash_point r;
        Pmem.Region.store r 10 (Pmem.Word.of_int 1));
    Alcotest.test_case "snapshot/restore round-trips the memory image" `Quick
      (fun () ->
        let r = mk_region () in
        Pmem.Region.store r 10 (Pmem.Word.of_int 41);
        Pmem.Region.clwb r 10;
        Pmem.Region.sfence r;
        let snap = Pmem.Region.snapshot r in
        Pmem.Region.store r 10 (Pmem.Word.of_int 99);
        Pmem.Region.store r 20 (Pmem.Word.of_int 7);
        Pmem.Region.restore r snap;
        Alcotest.(check int) "current word restored" 41
          (Pmem.Word.to_int (Pmem.Region.load r 10));
        Alcotest.(check int) "untouched word restored" 0
          (Pmem.Word.to_int (Pmem.Region.load r 20)));
    Alcotest.test_case "same survival seed yields the same crash image" `Quick
      (fun () ->
        let r = mk_region () in
        for i = 0 to 15 do
          Pmem.Region.store r (64 + i) (Pmem.Word.of_int i)
        done;
        Pmem.Region.clwb_range r 64 8;
        (* half flushed (in flight), half dirty: both survive by coin flip *)
        let snap = Pmem.Region.snapshot r in
        let image () =
          List.init 16 (fun i ->
              Pmem.Word.to_int (Pmem.Region.load r (64 + i)))
        in
        Pmem.Region.crash ~mode:Pmem.Region.Randomize ~seed:5 r;
        let first = image () in
        Pmem.Region.restore r snap;
        Pmem.Region.crash ~mode:Pmem.Region.Randomize ~seed:5 r;
        Alcotest.(check (list int)) "deterministic replay" first (image ());
        Alcotest.(check (option int)) "seed recorded" (Some 5)
          (Pmem.Region.last_crash_seed r));
  ]

(* -- epoch-deferred reclamation --------------------------------------------- *)

let deferral_tests =
  [
    Alcotest.test_case "released blocks wait for two fences" `Quick
      (fun () ->
        let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 12) () in
        let alloc = Pmalloc.Heap.allocator heap in
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:4 in
        let free_before = Pmalloc.Allocator.free_words alloc in
        Pmalloc.Heap.release heap a;
        Alcotest.(check bool) "left the live set" false
          (Pmalloc.Allocator.is_allocated alloc a);
        Alcotest.(check bool) "parked on the deferral pipeline" true
          (Pmalloc.Allocator.deferred_words alloc > 0);
        Alcotest.(check int) "not yet allocatable" free_before
          (Pmalloc.Allocator.free_words alloc);
        (* first fence: the root write that unlinked the block drains,
           but the stale ping-pong record copy may still reference it *)
        Pmalloc.Heap.sfence heap;
        Alcotest.(check bool) "still deferred after one fence" true
          (Pmalloc.Allocator.deferred_words alloc > 0);
        Alcotest.(check int) "still not allocatable" free_before
          (Pmalloc.Allocator.free_words alloc);
        (* second fence: the stale copy is retired too *)
        Pmalloc.Heap.sfence heap;
        Alcotest.(check int) "deferral pipeline drained" 0
          (Pmalloc.Allocator.deferred_words alloc);
        Alcotest.(check bool) "allocatable after two fences" true
          (Pmalloc.Allocator.free_words alloc > free_before));
    Alcotest.test_case "plain free stays immediate" `Quick (fun () ->
        let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 12) () in
        let alloc = Pmalloc.Heap.allocator heap in
        let a = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:4 in
        let free_before = Pmalloc.Allocator.free_words alloc in
        Pmalloc.Heap.free heap a;
        Alcotest.(check int) "nothing deferred" 0
          (Pmalloc.Allocator.deferred_words alloc);
        Alcotest.(check bool) "immediately allocatable" true
          (Pmalloc.Allocator.free_words alloc > free_before));
  ]

(* -- durable-linearizability oracle ----------------------------------------- *)

let verdict = Alcotest.testable (fun ppf -> function
    | Crashtest.Oracle.Consistent -> Format.fprintf ppf "consistent"
    | Crashtest.Oracle.Violation d -> Format.fprintf ppf "violation: %s" d)
    (fun a b ->
      match (a, b) with
      | Crashtest.Oracle.Consistent, Crashtest.Oracle.Consistent -> true
      | Crashtest.Oracle.Violation _, Crashtest.Oracle.Violation _ -> true
      | _ -> false)

let oracle_tests =
  let history = [ "c"; "b"; "a" ] (* distinct committed states, newest first *)
  and pending = Some "d" in
  let check recovered =
    Crashtest.Oracle.check ~history ~pending ~recovered
  in
  [
    Alcotest.test_case "latest, previous and pending states pass" `Quick
      (fun () ->
        List.iter
          (fun s ->
            Alcotest.check verdict s Crashtest.Oracle.Consistent
              (check (Ok s)))
          [ "d"; "c"; "b" ]);
    Alcotest.test_case "older committed states are violations" `Quick
      (fun () ->
        (* "a" was committed two FASEs back: its root write was drained by a
           later fence, so recovery may never fall back that far *)
        Alcotest.check verdict "stale state"
          (Crashtest.Oracle.Violation "") (check (Ok "a"));
        Alcotest.check verdict "torn state"
          (Crashtest.Oracle.Violation "") (check (Ok "garbage")));
    Alcotest.test_case "a raising dump is a violation" `Quick (fun () ->
        Alcotest.check verdict "exception"
          (Crashtest.Oracle.Violation "")
          (check (Error (Failure "segfault"))));
    Alcotest.test_case "no pending op narrows the window" `Quick (fun () ->
        let chk recovered =
          Crashtest.Oracle.check ~history ~pending:None ~recovered
        in
        Alcotest.check verdict "latest ok" Crashtest.Oracle.Consistent
          (chk (Ok "c"));
        Alcotest.check verdict "pending-only state now stale"
          (Crashtest.Oracle.Violation "") (chk (Ok "d")));
    Alcotest.test_case "a repeated state keeps the previous one" `Quick
      (fun () ->
        (* a read appends the unchanged state: the window is the newest
           state and the newest one that differs from it *)
        let chk recovered =
          Crashtest.Oracle.check ~history:[ "c"; "c"; "b"; "a" ]
            ~pending:None ~recovered
        in
        Alcotest.check verdict "previous distinct state"
          Crashtest.Oracle.Consistent (chk (Ok "b"));
        Alcotest.check verdict "older state" (Crashtest.Oracle.Violation "")
          (chk (Ok "a")));
    Alcotest.test_case "a judge keeps the window of its moment" `Quick
      (fun () ->
        (* the explorer fixes one judge per crash point and samples the
           point after the run has gone on *)
        let module O = Crashtest.Oracle in
        let tr = O.tracker ~writers:1 ~init:"a" in
        O.track_commit tr ~writer:0 "b";
        let judge = O.judge tr in
        O.track_commit tr ~writer:0 "c";
        O.track_pending tr ~writer:0 "d";
        List.iter
          (fun (s, expect) ->
            Alcotest.check verdict ("fixed " ^ s) expect
              (judge ~recovered:(Ok s));
            Alcotest.check verdict ("fixed again " ^ s) expect
              (judge ~recovered:(Ok s)))
          [ ("b", O.Consistent); ("a", O.Consistent);
            ("c", O.Violation ""); ("d", O.Violation "") ];
        List.iter
          (fun (s, expect) ->
            Alcotest.check verdict ("live " ^ s) expect
              (O.judge tr ~recovered:(Ok s)))
          [ ("d", O.Consistent); ("c", O.Consistent); ("b", O.Consistent);
            ("a", O.Violation "") ]);
  ]

(* -- the canonical renderings ------------------------------------------------ *)

(* The models and the dumps render through the same two functions, so a
   wrong digit that renders two states alike would pass the oracle
   unnoticed: each integer must read as [string_of_int] prints it. *)
let render_tests =
  let module W = Crashtest.Workload in
  let ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
  let pairs l =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> string_of_int k ^ ":" ^ string_of_int v) l)
    ^ "}"
  in
  let edges =
    [ 0; 1; -1; 9; -9; 10; -10; 11; -11; 99; -99; 100; -100; max_int;
      max_int - 1; min_int; min_int + 1 ]
  in
  let any = QCheck.(oneof [ int; small_signed_int ]) in
  [
    Alcotest.test_case "0, the +-9/+-10 boundaries, max_int and min_int"
      `Quick (fun () ->
        List.iter
          (fun i ->
            Alcotest.(check string) (string_of_int i) (ints [ i ])
              (W.render_ints [ i ]))
          edges;
        Alcotest.(check string) "empty list" "[]" (W.render_ints []);
        Alcotest.(check string) "every edge" (ints edges) (W.render_ints edges);
        let edge_pairs = List.combine edges (List.rev edges) in
        Alcotest.(check string) "empty map" "{}" (W.render_pairs []);
        Alcotest.(check string) "edge pairs" (pairs edge_pairs)
          (W.render_pairs edge_pairs));
    Alcotest.test_case "a key folded twice dumps once" `Quick (fun () ->
        (* cmap-nofence's unfenced swings leave a map whose CHAMP fold
           meets key 0 twice here; the dump keeps one binding, as a
           fold into a Map did *)
        let cw = W.cbuild "cmap-nofence" ~writers:3 ~ops:6 in
        match
          Crashtest.Explorer.run Crashtest.Explorer.default
            (Crashtest.Explorer.Conc (cw, Crashtest.Interleave.Round_robin 1))
            ~budget:(Some 233)
        with
        | `Completed _ -> Alcotest.fail "the run should crash"
        | `Crashed c ->
            Pmalloc.Heap.crash ~mode:Pmem.Region.Randomize ~seed:7
              c.Crashtest.Explorer.c_heap;
            c.Crashtest.Explorer.c_recover ();
            Alcotest.(check string) "dump" "{0:0,4:954,7:6,10:131}"
              (c.Crashtest.Explorer.c_dump ()));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2000 ~name:"random ints render as string_of_int"
         (QCheck.list any) (fun l -> W.render_ints l = ints l));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2000
         ~name:"random pair lists render as string_of_int"
         (QCheck.list (QCheck.pair any any))
         (fun l -> W.render_pairs l = pairs l));
  ]

(* -- one judge agrees with the two it replaced ------------------------------- *)

(* The sequential judge as it stood before {!Crashtest.Oracle.judge}: the
   newest state, the newest one that differs from it, and the pending
   one. *)
let reference_check ~history ~pending ~recovered =
  let ok =
    let committed =
      match history with
      | [] -> []
      | latest :: older -> (
          match List.find_opt (fun s -> s <> latest) older with
          | Some previous -> [ latest; previous ]
          | None -> [ latest ])
    in
    match pending with None -> committed | Some s -> s :: committed
  in
  match recovered with
  | Error exn ->
      Crashtest.Oracle.Violation
        (Printf.sprintf "reading the recovered structure raised %s"
           (Printexc.to_string exn))
  | Ok state ->
      if List.mem state ok then Crashtest.Oracle.Consistent
      else
        Crashtest.Oracle.Violation
          (Printf.sprintf
             "recovered state %s is not at a FASE boundary (acceptable: %s)"
             state
             (String.concat " | " ok))

(* The concurrent judge as it stood before: the recovered state at any
   cut depth with at most one commit per writer above it (every depth
   searched), or any writer's pending state.  [commits] is newest
   first. *)
let reference_concurrent ~init ~commits ~pendings state =
  let ncommits = List.length commits in
  let state_at d = if d = ncommits then init else snd (List.nth commits d) in
  let cut_consistent d =
    let counts = Hashtbl.create 4 in
    List.for_all
      (fun (writer, _) ->
        let seen = Option.value (Hashtbl.find_opt counts writer) ~default:0 in
        Hashtbl.replace counts writer (seen + 1);
        seen < 1)
      (List.filteri (fun i _ -> i < d) commits)
  in
  let rec cut_ok d =
    d <= ncommits
    && ((state_at d = state && cut_consistent d) || cut_ok (d + 1))
  in
  cut_ok 0 || Array.exists (( = ) (Some state)) pendings

let values = QCheck.Gen.oneofl [ "a"; "b"; "c"; "d" ]

let recovered_gen =
  QCheck.Gen.(
    frequency
      [ (9, map Result.ok values); (1, return (Error (Failure "torn read"))) ])

let show_recovered = function
  | Ok s -> s
  | Error e -> "raises " ^ Printexc.to_string e

let show_verdict = function
  | Crashtest.Oracle.Consistent -> "consistent"
  | Crashtest.Oracle.Violation d -> "violation: " ^ d

let agreement_tests =
  let sequential =
    QCheck.Test.make ~count:2000
      ~name:"one-writer check = the newest-distinct-state window, text too"
      (QCheck.make
         ~print:(fun (history, pending, recovered) ->
           Printf.sprintf "history [%s], pending %s, recovered %s"
             (String.concat "; " history)
             (Option.value pending ~default:"-")
             (show_recovered recovered))
         QCheck.Gen.(
           triple
             (list_size (int_range 1 8) values)
             (opt values) recovered_gen))
      (fun (history, pending, recovered) ->
        let got = Crashtest.Oracle.check ~history ~pending ~recovered in
        let want = reference_check ~history ~pending ~recovered in
        got = want
        || QCheck.Test.fail_reportf "check says %s, the reference %s"
             (show_verdict got) (show_verdict want))
  in
  (* random trackers: up to 4 writers, up to 10 commits, each event a
     commit or a pending state of one writer *)
  let events_gen =
    QCheck.Gen.(
      let* writers = int_range 1 4 in
      let* events =
        list_size (int_range 0 14)
          (triple (int_range 0 (writers - 1)) bool values)
      in
      let* recovered = recovered_gen in
      return (writers, events, recovered))
  in
  let concurrent =
    QCheck.Test.make ~count:2000
      ~name:"judge's bounded window = the full cut search"
      (QCheck.make
         ~print:(fun (writers, events, recovered) ->
           Printf.sprintf "%d writers, events [%s], recovered %s" writers
             (String.concat "; "
                (List.map
                   (fun (w, commit, s) ->
                     Printf.sprintf "%s %d %s"
                       (if commit then "commit" else "pending")
                       w s)
                   events))
             (show_recovered recovered))
         events_gen)
      (fun (writers, events, recovered) ->
        (* the initial state may recur as a commit *)
        let init = "a" in
        let tr = Crashtest.Oracle.tracker ~writers ~init in
        let commits = ref [] and pendings = Array.make writers None in
        List.iter
          (fun (writer, commit, s) ->
            if commit && List.length !commits < 10 then begin
              Crashtest.Oracle.track_commit tr ~writer s;
              commits := (writer, s) :: !commits;
              pendings.(writer) <- None
            end
            else begin
              Crashtest.Oracle.track_pending tr ~writer s;
              pendings.(writer) <- Some s
            end)
          events;
        let got =
          Crashtest.Oracle.is_consistent (Crashtest.Oracle.judge tr ~recovered)
        in
        let want =
          match recovered with
          | Error _ -> false
          | Ok state ->
              reference_concurrent ~init ~commits:!commits ~pendings state
        in
        got = want
        || QCheck.Test.fail_reportf "judge says %b, the cut search %b" got
             want)
  in
  List.map QCheck_alcotest.to_alcotest [ sequential; concurrent ]

(* -- Section 5.4 checker: deterministic violation order --------------------- *)

let consistency_tests =
  [
    Alcotest.test_case "unflushed-write violations are sorted by line" `Quick
      (fun () ->
        let r = mk_region () in
        (* dirty three lines high-to-low, never flush, then fence *)
        Pmem.Region.store r 40 (Pmem.Word.of_int 1);
        Pmem.Region.store r 24 (Pmem.Word.of_int 2);
        Pmem.Region.store r 8 (Pmem.Word.of_int 3);
        Pmem.Region.sfence r;
        let report = Mod_core.Consistency.check (Pmem.Region.trace r) in
        let lines =
          List.filter_map
            (function
              | Mod_core.Consistency.Unflushed_write { line; _ } -> Some line
              | _ -> None)
            report.Mod_core.Consistency.violations
        in
        Alcotest.(check (list int))
          "ascending line order regardless of write order"
          [ 1; 3; 5 ] lines);
  ]

(* -- exhaustive sweeps -------------------------------------------------------- *)

let quick_cfg =
  { Crashtest.Explorer.default with randomize_samples = 2 }

let sweep_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ ": every crash point is consistent") `Quick
        (fun () ->
          let w = Crashtest.Workload.build name ~ops:5 in
          let r = Crashtest.Explorer.explore ~cfg:quick_cfg w in
          Alcotest.(check int) "exhaustive (no skips)" 0
            r.Crashtest.Explorer.points_skipped;
          Alcotest.(check bool) "every point sampled" true
            (r.Crashtest.Explorer.points_tested
            = r.Crashtest.Explorer.total_events);
          if not (Crashtest.Explorer.ok r) then
            Alcotest.failf "%d oracle violation(s), first: %s"
              (List.length r.Crashtest.Explorer.failures)
              (Format.asprintf "%a" Crashtest.Explorer.pp_failure
                 (List.hd r.Crashtest.Explorer.failures))))
    (Crashtest.Workload.mod_names @ Crashtest.Workload.stm_names)
  @ [
      (* the uncrashed run must end in the newest committed model state:
         a model whose last state is wrong fails at crash index -1, and
         that failure replays *)
      Alcotest.test_case "a sequential sweep checks its uncrashed run" `Quick
        (fun () ->
          let w = Crashtest.Workload.build "vec" ~ops:4 in
          let model = Array.copy w.model in
          model.(w.ops) <- model.(w.ops) ^ "?";
          let w = { w with Crashtest.Workload.model } in
          let r = Crashtest.Explorer.explore ~cfg:quick_cfg w in
          match r.Crashtest.Explorer.failures with
          | ({ crash_index = -1; _ } as f) :: _ -> (
              match
                Crashtest.Replay.replay ~cfg:quick_cfg (Seq w) ~crash_index:(-1)
                  ~mode:f.mode ()
              with
              | Some (Crashtest.Oracle.Violation d) ->
                  Alcotest.(check string) "the replay reproduces it" f.detail d;
                  Alcotest.(check string) "the command parses"
                    "modpm crashtest --workload vec --ops 4 --replay=-1 --mode \
                     keep"
                    (Crashtest.Replay.command f)
              | Some Crashtest.Oracle.Consistent | None ->
                  Alcotest.fail "the replay passes the final state")
          | _ -> Alcotest.fail "no final-state failure at crash index -1");
    ]

(* -- negative controls and minimal-repro replay ------------------------------- *)

let negative_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ ": caught, replayable and shrinkable") `Quick
        (fun () ->
          let w = Crashtest.Workload.build name ~ops:6 in
          let r = Crashtest.Explorer.explore ~cfg:quick_cfg w in
          let f =
            match r.Crashtest.Explorer.failures with
            | f :: _ -> f
            | [] -> Alcotest.fail "negative control produced no violation"
          in
          (* the printed triple (workload, crash index, seed) must reproduce
             the violation bit-for-bit, twice *)
          Alcotest.(check bool) "replay reproduces" true
            (Crashtest.Replay.reproduces ~cfg:quick_cfg f);
          Alcotest.(check bool) "replay is deterministic" true
            (Crashtest.Replay.reproduces ~cfg:quick_cfg f);
          let cmd = Crashtest.Replay.command f in
          let contains s sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "command names the crash index" true
            (contains cmd "--replay");
          let f' = Crashtest.Replay.minimize ~cfg:quick_cfg f in
          Alcotest.(check bool) "shrunk repro is no larger" true
            (f'.Crashtest.Explorer.ops <= f.Crashtest.Explorer.ops);
          Alcotest.(check bool) "shrunk repro still reproduces" true
            (Crashtest.Replay.reproduces ~cfg:quick_cfg f')))
    Crashtest.Workload.negative_names

(* -- journaled + parallel sweeps match re-execution ------------------------- *)

let failure_key (f : Crashtest.Explorer.failure) =
  Printf.sprintf "%d:%s:%s:%s" f.crash_index
    (Crashtest.Explorer.mode_name f.mode)
    (match f.survival_seed with Some s -> string_of_int s | None -> "-")
    f.detail

(* [w] run to [budget] on a fresh heap rewound once to its pristine
   snapshot -- the start state of a sweep's scratch heap, caches
   invalidated, so every sample's simulated clock matches the sweep's to
   the bit.  Returns the crashed heap, the instance, and the oracle over
   the states committed when the power failed. *)
let run_rewound (w : Crashtest.Workload.t) ~budget =
  let heap = Crashtest.Explorer.fresh_heap () in
  Pmalloc.Heap.reset_fresh heap ~pristine:(Pmalloc.Heap.pristine_snapshot heap);
  let inst = w.make heap in
  let history = ref [ w.model.(0) ] and pending = ref None in
  Pmem.Region.set_crash_after (Pmalloc.Heap.region heap) budget;
  match
    inst.init ();
    for i = 0 to w.ops - 1 do
      pending := Some w.model.(i + 1);
      inst.run_op i;
      pending := None;
      history := w.model.(i + 1) :: !history
    done
  with
  | () -> Alcotest.failf "budget %d never fired" budget
  | exception Pmem.Region.Crash_point ->
      (heap, inst, Crashtest.Oracle.check ~history:!history ~pending:!pending)

(* {!Crashtest.Replay.replay} -- the path behind a printed replay
   command -- must reach [expected] at this sample of [subject]. *)
let replay_agrees ~cfg subject ~crash_index ~mode ?seed expected =
  match Crashtest.Replay.replay ~cfg subject ~crash_index ~mode ?seed () with
  | Some v when v = expected -> ()
  | got ->
      let show = function
        | Some Crashtest.Oracle.Consistent -> "consistent"
        | Some (Crashtest.Oracle.Violation d) -> "violation: " ^ d
        | None -> "no crash"
      in
      Alcotest.failf "crash %d, %s, seed %s: replay says %s, the sweep %s"
        crash_index
        (Crashtest.Explorer.mode_name mode)
        (match seed with Some s -> string_of_int s | None -> "-")
        (show got) (show (Some expected))

(* The differential reference: every sample re-executed to its crash
   point on a fresh heap -- no capture, no shared scratch heap, no
   snapshot -- crashed and recovered: (points, samples, failure keys).
   Every sample's verdict is also checked against {!replay_agrees} on
   [plain], [w] without the test's recovery wrappers. *)
let reexec_sweep (cfg : Crashtest.Explorer.config) ~plain w =
  let module E = Crashtest.Explorer in
  let total =
    match E.run_until cfg w ~budget:None with
    | `Completed (events, _) -> events
    | `Crashed _ -> assert false
  in
  let points = ref 0 and samples = ref 0 and failures = ref [] in
  let budget = ref 1 in
  while
    !budget <= total
    && match cfg.max_points with Some m -> !points < m | None -> true
  do
    incr points;
    List.iter
      (fun mode ->
        let seeds =
          match mode with
          | Pmem.Region.Randomize ->
              List.init cfg.randomize_samples (fun k ->
                  Some (E.survival_seed cfg ~crash_index:!budget ~k))
          | _ -> [ None ]
        in
        List.iter
          (fun seed ->
            let heap, inst, judge = run_rewound w ~budget:!budget in
            Pmalloc.Heap.crash ~mode ?seed heap;
            incr samples;
            let recovered =
              match
                inst.recover ();
                inst.dump ()
              with
              | s -> Ok s
              | exception e -> Error e
            in
            let verdict = judge ~recovered in
            replay_agrees ~cfg (E.Seq plain) ~crash_index:!budget ~mode ?seed
              verdict;
            match verdict with
            | Crashtest.Oracle.Consistent -> ()
            | Crashtest.Oracle.Violation detail ->
                failures :=
                  failure_key
                    {
                      E.workload = w.Crashtest.Workload.name;
                      writers = 0;
                      ops = w.Crashtest.Workload.ops;
                      schedule = None;
                      persist = w.Crashtest.Workload.persist;
                      crash_index = !budget;
                      mode;
                      survival_seed = seed;
                      fault = None;
                      detail;
                    }
                  :: !failures)
          seeds)
      Crashtest.Explorer.modes;
    budget := !budget + cfg.stride
  done;
  (!points, !samples, List.rev !failures)

(* [w] with every recovery logged to [log] (see {!Sweep_log.recovery}).
   The log is shared with forked sweep workers, so a parallel sweep's
   recoveries land in it too. *)
let logging_recoveries log (w : Crashtest.Workload.t) =
  let make heap =
    let i = w.make heap in
    {
      i with
      Crashtest.Workload.recover =
        (fun () -> Sweep_log.recovery log heap i.recover);
    }
  in
  { w with Crashtest.Workload.make }

(* The captured sweep, at jobs 1 and 3, must test the points, take the
   samples and report the failures re-execution does, and every sample's
   recovery must start from the same stats, phase included, and simulate
   the same time, bit for bit: in order at jobs 1, as a multiset across
   forked workers. *)
let agree ?persist ?(cfg = quick_cfg) ~ops ~caught name =
  Sweep_log.with_log (fun log ->
      let plain = Crashtest.Workload.build ?persist name ~ops in
      let w = logging_recoveries log plain in
      let ((_, _, failures) as reference) = reexec_sweep cfg ~plain w in
      let sims = Sweep_log.take log in
      Alcotest.(check bool) "reference catches the defect" caught
        (failures <> []);
      List.iter
        (fun jobs ->
          let what = Printf.sprintf "%s, jobs %d" name jobs in
          let r =
            Crashtest.Explorer.explore ~cfg:{ cfg with Crashtest.Explorer.jobs } w
          in
          let points, samples, failures = reference in
          Alcotest.(check int)
            (what ^ ": same points tested")
            points r.Crashtest.Explorer.points_tested;
          Alcotest.(check int)
            (what ^ ": same crashes sampled")
            samples r.Crashtest.Explorer.crashes_sampled;
          Alcotest.(check (list string))
            (what ^ ": identical failures at identical crash points")
            failures
            (List.map failure_key r.Crashtest.Explorer.failures);
          Sweep_log.check_recoveries log ~what ~jobs sims)
        [ 1; 3 ])

(* One sample per Randomize point keeps the per-sample fresh-heap
   reference affordable across the whole registry. *)
let registry_cfg = { quick_cfg with Crashtest.Explorer.randomize_samples = 1 }

let parity_tests =
  List.map
    (fun name ->
      Alcotest.test_case
        (name ^ ": journaled and parallel sweeps match re-execution") `Quick
        (fun () ->
          (* the negative-control guard: every violation re-execution
             finds, the journaled sweeps must find at the same crash
             point with the same detail -- and vice versa *)
          agree ~ops:6 ~caught:true name))
    Crashtest.Workload.negative_names
  @ [
      Alcotest.test_case "clean workload agrees across all paths" `Quick
        (fun () -> agree ~ops:4 ~caught:false "vec");
      Alcotest.test_case "sweeps report wall-clock throughput" `Quick
        (fun () ->
          let w = Crashtest.Workload.build "map" ~ops:3 in
          let r = Crashtest.Explorer.explore ~cfg:quick_cfg w in
          Alcotest.(check bool)
            "wall clock measured" true
            (r.Crashtest.Explorer.wall_seconds > 0.0);
          Alcotest.(check bool)
            "throughput derived" true
            (Crashtest.Explorer.points_per_sec r > 0.0));
    ]
  @ List.map
      (fun name ->
        Alcotest.test_case (name ^ ": captured sweeps = re-execution") `Quick
          (fun () ->
            agree ~cfg:registry_cfg
              ~ops:(if name = "unrelated" then 2 else 3)
              ~caught:false name))
      (* the negative controls are the first tests of this group *)
      (Crashtest.Workload.mod_names @ Crashtest.Workload.stm_names)
  @ List.map
      (fun name ->
        Alcotest.test_case
          (name ^ " (backup): captured sweeps = re-execution")
          `Quick
          (fun () ->
            agree ~persist:Pmalloc.Heap.Backup ~cfg:registry_cfg ~ops:3
              ~caught:false name))
      Crashtest.Workload.backup_names

(* -- one execution per schedule --------------------------------------------- *)

(* A sweep runs its workload once: [run_op] is called [ops] times however
   many points it tests, whether it strides, caps, samples faults or
   forks workers (which log to the same file). *)
let single_pass_tests =
  let cfgs =
    Crashtest.Explorer.
      [
        ("stride 1", quick_cfg);
        ("stride 3", { quick_cfg with stride = 3 });
        ("max_points", { quick_cfg with max_points = Some 5 });
        ("faults", { quick_cfg with faults = true });
        ("jobs 2", { quick_cfg with jobs = 2 });
      ]
  in
  [
    Alcotest.test_case "sequential: run_op runs ops times" `Quick (fun () ->
        Sweep_log.with_log (fun log ->
            List.iter
              (fun (what, cfg) ->
                let w = Crashtest.Workload.build "map" ~ops:6 in
                let make heap =
                  let i = w.make heap in
                  {
                    i with
                    Crashtest.Workload.run_op =
                      (fun k ->
                        Sweep_log.add log "op";
                        i.run_op k);
                  }
                in
                let r =
                  Crashtest.Explorer.explore ~cfg
                    { w with Crashtest.Workload.make }
                in
                Alcotest.(check bool)
                  (what ^ ": points tested") true
                  (r.Crashtest.Explorer.points_tested > 0);
                Alcotest.(check int)
                  (what ^ ": run_op calls") 6
                  (List.length (Sweep_log.take log)))
              cfgs));
    Alcotest.test_case "concurrent: each writer body runs once per schedule"
      `Quick (fun () ->
        Sweep_log.with_log (fun log ->
            List.iter
              (fun (what, cfg) ->
                let cfg = { cfg with Crashtest.Explorer.faults = false } in
                let cw = Crashtest.Workload.cbuild "cmap" ~writers:2 ~ops:2 in
                let cmake heap =
                  let i = cw.cmake heap in
                  {
                    i with
                    Crashtest.Workload.c_writers =
                      Array.mapi
                        (fun wr body () ->
                          Sweep_log.add log (string_of_int wr);
                          body ())
                        i.c_writers;
                  }
                in
                let r =
                  Crashtest.Explorer.explore_concurrent ~cfg
                    { cw with Crashtest.Workload.cmake }
                in
                Alcotest.(check bool)
                  (what ^ ": points tested") true
                  (r.Crashtest.Explorer.cr_points_tested > 0);
                let runs = Sweep_log.take log in
                let schedules =
                  List.length Crashtest.Explorer.default_schedules
                in
                List.iter
                  (fun wr ->
                    Alcotest.(check int)
                      (Printf.sprintf "%s: writer %d bodies" what wr)
                      schedules
                      (List.length
                         (List.filter (( = ) (string_of_int wr)) runs)))
                  [ 0; 1 ])
              cfgs));
  ]

(* -- power-off ------------------------------------------------------------- *)

(* Once the budget fires nothing runs: an aborting transaction's
   rollback must not issue PM events on the dead machine.  After a run
   crashed at budget b on a fresh heap, the region has counted the
   heap-creation events plus exactly b. *)
let power_off_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ ": no PM event after the power fails") `Quick
        (fun () ->
          let cfg = quick_cfg in
          let w = Crashtest.Workload.build name ~ops:4 in
          let created =
            Pmem.Region.pm_events
              (Pmalloc.Heap.region (Crashtest.Explorer.fresh_heap ()))
          in
          let total =
            match Crashtest.Explorer.run_until cfg w ~budget:None with
            | `Completed (events, _) -> events
            | `Crashed _ -> assert false
          in
          for b = 1 to total do
            match Crashtest.Explorer.run_until cfg w ~budget:(Some b) with
            | `Completed _ -> Alcotest.failf "budget %d never fired" b
            | `Crashed c ->
                Alcotest.(check int)
                  (Printf.sprintf "events after a crash at %d" b)
                  (created + b)
                  (Pmem.Region.pm_events
                     (Pmalloc.Heap.region c.Crashtest.Explorer.c_heap))
          done))
    [ "stm14"; "stm15"; "stm-broken"; "unrelated" ]

(* -- seeded crash/recover reporting ------------------------------------------ *)

let seed_tests =
  [
    Alcotest.test_case "crash_and_recover reports the survival seed" `Quick
      (fun () ->
        let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 16) () in
        let report =
          Mod_core.Recovery.crash_and_recover_exn ~mode:Pmem.Region.Randomize
            ~seed:123 heap
        in
        Alcotest.(check (option int)) "explicit seed surfaces" (Some 123)
          report.Mod_core.Recovery.crash_seed;
        (* unseeded Randomize crashes still report the seed they drew *)
        let report2 =
          Mod_core.Recovery.crash_and_recover_exn ~mode:Pmem.Region.Randomize heap
        in
        Alcotest.(check bool) "drawn seed surfaces" true
          (report2.Mod_core.Recovery.crash_seed <> None));
  ]

(* -- golden pins for the crash paths the benchmark does not run -------- *)

(* Small sweeps under the fault schedule, the Backup policy and a stride,
   pinned to the points, samples and verdicts they report and
   to the summed simulated time of every sample's recovery (exact float
   bits, read by wrapping the workload's [recover]).  The per-sample work
   -- restore, crash, recovery -- must stay bit-identical: a crash that
   visits lines in another order draws other survival coins, and one
   that misses a restored dirty line recovers another image. *)
let pinned_sweep ?persist ?(reexec = false) ~cfg name ~ops =
  let plain = Crashtest.Workload.build ?persist name ~ops in
  let sim = ref 0.0 in
  let make heap =
    let i = plain.Crashtest.Workload.make heap in
    {
      i with
      Crashtest.Workload.recover =
        (fun () ->
          let st = Pmalloc.Heap.stats heap in
          let s0 = st.Pmem.Stats.now_ns in
          i.Crashtest.Workload.recover ();
          sim := !sim +. (st.Pmem.Stats.now_ns -. s0));
    }
  in
  let w = { plain with Crashtest.Workload.make } in
  let counts =
    if reexec then
      (* the re-execution reference: no fault schedule *)
      let points, samples, failures = reexec_sweep cfg ~plain w in
      [ points; samples; 0; 0; 0; 0; List.length failures ]
    else
      let r = Crashtest.Explorer.explore ~cfg w in
      Crashtest.Explorer.
        [
          r.points_tested;
          r.crashes_sampled;
          r.fault_samples;
          r.fault_recovered;
          r.fault_degraded;
          r.fault_fallbacks;
          List.length r.failures;
        ]
  in
  List.combine
    [
      "points";
      "samples";
      "fault samples";
      "fault recovered";
      "fault degraded";
      "root fallbacks";
      "violations";
      "recovery sim ns bits";
    ]
    (List.map Int64.of_int counts @ [ Int64.bits_of_float !sim ])

let golden_tests =
  let strided = { quick_cfg with Crashtest.Explorer.stride = 3 } in
  (* the strided pins hold for re-execution on fresh heaps too, down to
     the recovery sim-ns bits *)
  let journaled_and_reexecuted name ~ops =
    let journaled = pinned_sweep ~cfg:strided name ~ops in
    Alcotest.(check (list (pair string int64)))
      "re-execution agrees" journaled
      (pinned_sweep ~reexec:true ~cfg:strided name ~ops);
    journaled
  in
  let pin label run expected =
    Alcotest.test_case label `Quick (fun () ->
        List.iter2
          (fun (name, actual) expected ->
            Alcotest.(check int64) name expected actual)
          (run ()) expected)
  in
  [
    pin "faults sweep (map, torn + media)"
      (fun () ->
        pinned_sweep ~cfg:{ quick_cfg with Crashtest.Explorer.faults = true }
          "map" ~ops:5)
      [ 22L; 88L; 110L; 66L; 44L; 50L; 0L; 4693628368027910144L ];
    pin "Backup policy sweep (vec)"
      (fun () ->
        pinned_sweep ~persist:Pmalloc.Heap.Backup ~cfg:quick_cfg "vec" ~ops:5)
      [ 96L; 384L; 0L; 0L; 0L; 0L; 0L; 4693513512012480512L ];
    pin "strided sweep (queue)"
      (fun () -> journaled_and_reexecuted "queue" ~ops:5)
      [ 25L; 100L; 0L; 0L; 0L; 0L; 0L; 4684798215915044864L ];
    (* recovery rolls back the undo log as a crash mid-transaction left
       it (no abort runs once the power fails: 30 -> 37 violations,
       276,684 -> 279,972 summed ns), then finds the log through its
       root slot and validates each entry before applying it (283,642) *)
    pin "strided sweep (stm-broken)"
      (fun () -> journaled_and_reexecuted "stm-broken" ~ops:4)
      [ 29L; 116L; 0L; 0L; 0L; 0L; 37L; 4688616544920403968L ];
  ]

(* -- the root summary ------------------------------------------------------ *)

module H = Pmalloc.Heap

(* The ordering rule, read off the image: every slot whose current record
   copies hold a non-null value, or whose current policy word says Backup,
   is covered by the summary read from the durable image. *)
let summary_violation heap =
  let region = H.region heap in
  match H.decode_summary (Pmem.Region.peek_durable region H.summary_off) with
  | None -> Some "the durable summary fails its check"
  | Some lines ->
      List.find_map
        (fun slot ->
          let root =
            List.exists
              (fun (off, _) ->
                not (Pmem.Word.is_null (Pmem.Region.peek_current region off)))
              (H.root_record_ranges slot)
          in
          let backup =
            H.policy_of_word (Pmem.Region.peek_current region (H.policy_off slot))
            = Some H.Backup
          in
          if (root || backup) && lines land H.summary_bit slot = 0 then
            Some
              (Printf.sprintf "slot %d holds %s the durable summary omits" slot
                 (if root then "a root" else "a Backup policy word"))
          else None)
        (List.init H.root_slots Fun.id)

(* Run [body] on a fresh heap with the rule checked after every PM event
   (the interleaver chains to the hook); fail on the first breach. *)
let check_summary_rule label make =
  let heap = H.create ~capacity_words:(1 lsl 14) ~trace:true () in
  let region = H.region heap in
  let body = make heap in
  let breach = ref None in
  Pmem.Region.set_event_hook region
    (Some
       (fun () ->
         if !breach = None then
           Option.iter
             (fun d ->
               breach :=
                 Some (Printf.sprintf "after PM event %d: %s"
                         (Pmem.Region.pm_events region) d))
             (summary_violation heap)));
  Fun.protect
    ~finally:(fun () -> Pmem.Region.set_event_hook region None)
    body;
  Option.iter (fun d -> Alcotest.failf "%s: %s" label d) !breach

let run_seq (w : Crashtest.Workload.t) heap =
  let inst = w.make heap in
  fun () ->
    inst.init ();
    for i = 0 to w.ops - 1 do
      inst.run_op i
    done

(* Every bind path on slots outside line 0, which a fresh heap's summary
   already covers: a Basic map commit, a siblings parent, a batched
   unrelated commit, a CAS commit, a Backup promotion, a direct root
   swing, and the two STM logs. *)
let fresh_slot_paths heap () =
  let module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int) in
  let m = Imap.open_or_create heap ~slot:4 in
  Imap.insert m 1 10;
  let parent = Pfds.Node.alloc heap ~words:1 in
  Pfds.Node.set heap parent 0 (Imap.empty_version heap);
  Pfds.Node.finish heap parent;
  Mod_core.Commit.single heap ~slot:6 (Pmem.Word.of_ptr parent);
  let f = Imap.insert_pure heap (Pfds.Node.get heap parent 0) 2 20 in
  Mod_core.Commit.siblings heap ~slot:6 [ (0, f) ];
  let b = Mod_core.Batch.create heap in
  Mod_core.Batch.stage b ~slot:8 (fun v -> Imap.insert_pure heap v 3 30);
  Mod_core.Batch.stage b ~slot:10 (fun v -> Imap.insert_pure heap v 4 40);
  ignore (Mod_core.Batch.commit b : Mod_core.Batch.commit_point);
  ignore
    (Mod_core.Commit.commit_cas heap ~slot:12 ~build:(fun v ->
         Some (Imap.insert_pure heap v 5 50, []))
      : int);
  let bm = Imap.open_or_create ~persist:H.Backup heap ~slot:14 in
  Imap.insert bm 6 60;
  H.root_set heap 16 (Imap.insert_pure heap (Imap.empty_version heap) 7 70);
  H.sfence heap;
  ignore (Pmstm.Norec.create heap : Pmstm.Norec.t)

let summary_tests =
  let seq label w =
    Alcotest.test_case label `Quick (fun () ->
        check_summary_rule label (run_seq w))
  in
  let ops = 6 in
  List.map
    (fun name -> seq (name ^ ": rule holds") (Crashtest.Workload.build name ~ops))
    Crashtest.Workload.names
  @ List.map
      (fun name ->
        seq
          (name ^ " (backup): rule holds")
          (Crashtest.Workload.build ~persist:H.Backup name ~ops))
      Crashtest.Workload.backup_names
  @ List.map
      (fun name ->
        Alcotest.test_case (name ^ " x2: rule holds") `Quick (fun () ->
            let cw = Crashtest.Workload.cbuild name ~writers:2 ~ops:4 in
            List.iter
              (fun schedule ->
                check_summary_rule name (fun heap ->
                    let inst = cw.cmake heap in
                    fun () ->
                      inst.c_init ();
                      Crashtest.Interleave.run (H.region heap) ~schedule
                        inst.c_writers))
              Crashtest.Explorer.default_schedules))
      Crashtest.Workload.concurrent_names
  @ [
      Alcotest.test_case "fresh-line binds: rule holds" `Quick
        (fun () -> check_summary_rule "fresh slots" fresh_slot_paths);
    ]

(* At every sampled crash point, recovery through the summary and
   recovery forced through the full scan (summary word corrupted) agree on
   the reclamation report, the allocator ledger and the oracle verdict,
   and neither issues a PM store. *)
let differential name ?persist ~ops () =
  let w = Crashtest.Workload.build ?persist name ~ops in
  let cfg = quick_cfg in
  let total =
    match Crashtest.Explorer.run_until cfg w ~budget:None with
    | `Completed (events, _) -> events
    | `Crashed _ -> assert false
  in
  let budget = ref 1 in
  while !budget <= total do
    (match Crashtest.Explorer.run cfg (Seq w) ~budget:(Some !budget) with
    | `Completed _ -> ()
    | `Crashed c ->
        let heap = c.c_heap in
        let region = H.region heap in
        let snap = Pmem.Region.snapshot region in
        List.iter
          (fun (mode, seed) ->
            let crash ~scan =
              Pmem.Region.restore region snap;
              H.crash ~mode ?seed heap;
              if scan then Pmem.Region.corrupt_word region H.summary_off
            in
            let gc ~scan =
              crash ~scan;
              let stats = H.stats heap in
              let stores = stats.Pmem.Stats.stores in
              let r = Pmalloc.Recovery_gc.recover heap in
              if stats.Pmem.Stats.stores <> stores then
                Alcotest.failf "%s@%d: recovery stored to PM" name !budget;
              let a = H.allocator heap in
              ( { r with root_slots_read = 0; via_summary = true },
                r.via_summary,
                Pmalloc.Allocator.
                  (live_words a, free_words a, pad_words a, frontier a) )
            in
            let r1, path1, a1 = gc ~scan:false in
            let r2, path2, a2 = gc ~scan:true in
            let where = Printf.sprintf "%s@%d" name !budget in
            Alcotest.(check (pair bool bool)) (where ^ ": paths") (true, false)
              (path1, path2);
            if r1 <> r2 then Alcotest.failf "%s: reports differ" where;
            if a1 <> a2 then Alcotest.failf "%s: allocator ledgers differ" where;
            let judge ~scan =
              crash ~scan;
              Crashtest.Explorer.recover_and_check c
            in
            Alcotest.check verdict (where ^ ": oracle") (judge ~scan:false)
              (judge ~scan:true))
          [
            (Pmem.Region.Drop_inflight, None);
            (Pmem.Region.Keep_inflight, None);
            (Pmem.Region.Randomize, Some (7 * !budget));
          ]);
    budget := !budget + 3
  done

let differential_tests =
  [
    Alcotest.test_case "map: summary = scan" `Quick
      (differential "map" ~ops:8);
    Alcotest.test_case "unrelated: summary = scan" `Quick
      (differential "unrelated" ~ops:6);
    Alcotest.test_case "vec backup: summary = scan" `Quick
      (differential "vec" ~persist:H.Backup ~ops:8);
  ]

let () =
  Alcotest.run "crashtest"
    [
      ("scheduler", scheduler_tests);
      ("deferral", deferral_tests);
      ("oracle", oracle_tests);
      ("render", render_tests);
      ("agreement", agreement_tests);
      ("consistency-order", consistency_tests);
      ("sweep", sweep_tests);
      ("negative", negative_tests);
      ("parity", parity_tests);
      ("single-pass", single_pass_tests);
      ("power-off", power_off_tests);
      ("seed", seed_tests);
      ("golden", golden_tests);
      ("summary", summary_tests);
      ("summary-diff", differential_tests);
    ]
