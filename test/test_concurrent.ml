(* Concurrent-writer regression suite: a corpus of (workload, writers,
   schedule, crash point, mode, survival seed) tuples replayed
   deterministically through {!Replay.replay}, a qcheck property that
   two interleaved single-op CAS transactions serialize, bounded
   [explore_concurrent] sweeps (positive must be clean, the nofence
   negative control must be caught), and NOrec STM unit tests.

   The corpus pins real failure points found during development: the
   cset tuples crashed before the false-sharing fix to the line-state
   model (a racing store on a Flushing line used to void the
   neighbour's clwb+sfence), and the cmap tuples crashed before the
   counted-CAS fix (a value-compare root CAS let an A->B->A swing
   admit a stale expected value).  Both must stay Consistent forever;
   the cmap-nofence tuples are violations by construction and must
   stay caught. *)

open Crashtest
module IntMap = Map.Make (Int)
module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)

let keep = Pmem.Region.Keep_inflight
let drop = Pmem.Region.Drop_inflight
let rand = Pmem.Region.Randomize

(* -- regression corpus ------------------------------------------------------ *)

type tuple = {
  wname : string;
  writers : int;
  ops : int;
  schedule : Interleave.schedule;
  crash_index : int;  (** -1 = uncrashed serializability check *)
  mode : Pmem.Region.crash_mode;
  seed : int option;
  expect_violation : bool;
}

let t ?seed ?(writers = 2) ?(ops = 4) ?(expect_violation = false) wname
    schedule crash_index mode =
  { wname; writers; ops; schedule; crash_index; mode; seed; expect_violation }

let corpus =
  [
    (* uncrashed runs must match the serialized model exactly -- even for
       the nofence control, whose bug is a durability bug, not a logic
       bug (it only surfaces when power fails). *)
    t "cmap" (Round_robin 1) (-1) keep;
    t "cmap" (Seeded 1) (-1) keep;
    t "cset" (Seeded 2) (-1) keep;
    t "cstm-norec" (Round_robin 3) (-1) keep;
    t "cmap-nofence" (Round_robin 1) (-1) keep;
    (* pre-fix false-sharing failure points: w0's set-node second line
       shared a cacheline with w1's adjacent allocation; the racing
       store used to downgrade the Flushing line to Dirty and the crash
       dropped half the node even though w0's fence had "drained". *)
    t "cset" (Seeded 2) 37 rand ~seed:1004850;
    t "cset" (Seeded 2) 38 keep;
    t "cset" (Seeded 2) 38 rand ~seed:1004981;
    (* pre-fix ABA failure region: insert+remove returning the root to
       null let a stale CAS with expected=null win.  Swept points
       around the second commit window. *)
    t "cmap" (Round_robin 3) 50 keep;
    t "cmap" (Round_robin 1) 57 keep;
    t "cmap" (Round_robin 1) 57 drop;
    t "cmap" (Seeded 2) 44 rand ~seed:1005769;
    (* NOrec: crash points around a log publish + in-place apply.
       Norec.create binds its log slot (62) in the root summary with a
       store, a clwb and a fence, so these sit 3 events later than the
       points first recorded (40, 55, 70); each index was re-derived as
       the event whose pre-crash and post-crash images equal the old
       point's, outside the summary word. *)
    t "cstm-norec" (Round_robin 1) 43 keep;
    t "cstm-norec" (Seeded 1) 58 drop;
    t "cstm-norec" (Round_robin 7) 73 rand ~seed:1009000;
    (* the negative control must keep violating at its recorded
       points: commits whose shadows were never clwb'd before the
       swing, caught when the crash drops the un-flushed lines. *)
    t "cmap-nofence" (Round_robin 1) 57 rand ~seed:1007471
      ~expect_violation:true;
    t "cmap-nofence" (Round_robin 1) 58 rand ~seed:1007601
      ~expect_violation:true;
    t "cmap-nofence" (Round_robin 1) 70 rand ~seed:1009173
      ~expect_violation:true;
  ]

let tuple_name tu =
  Printf.sprintf "%s %s ev%d %s%s%s" tu.wname
    (Interleave.schedule_name tu.schedule)
    tu.crash_index
    (Explorer.mode_name tu.mode)
    (match tu.seed with None -> "" | Some s -> Printf.sprintf " seed%d" s)
    (if tu.expect_violation then " (negative)" else "")

let replay_tuple tu () =
  let cw = Workload.cbuild tu.wname ~writers:tu.writers ~ops:tu.ops in
  match
    Replay.replay (Explorer.Conc (cw, tu.schedule)) ~crash_index:tu.crash_index
      ~mode:tu.mode ?seed:tu.seed ()
  with
  | None ->
      Alcotest.failf "%s: crash index beyond the last PM event"
        (tuple_name tu)
  | Some Oracle.Consistent ->
      if tu.expect_violation then
        Alcotest.failf "%s: expected a violation, got Consistent"
          (tuple_name tu)
  | Some (Oracle.Violation d) ->
      if not tu.expect_violation then
        Alcotest.failf "%s: unexpected violation: %s" (tuple_name tu) d

let corpus_tests =
  List.map
    (fun tu -> Alcotest.test_case (tuple_name tu) `Quick (replay_tuple tu))
    corpus

(* replays are identified by their tuple alone: running the same tuple
   twice must produce byte-identical verdict details. *)
let test_replay_deterministic () =
  let tu = List.find (fun tu -> tu.expect_violation) corpus in
  let go () =
    let cw = Workload.cbuild tu.wname ~writers:tu.writers ~ops:tu.ops in
    Replay.replay (Explorer.Conc (cw, tu.schedule)) ~crash_index:tu.crash_index
      ~mode:tu.mode ?seed:tu.seed ()
  in
  match (go (), go ()) with
  | Some (Oracle.Violation a), Some (Oracle.Violation b) ->
      Alcotest.(check string) "identical violation detail" a b
  | _ -> Alcotest.fail "negative tuple did not violate twice"

(* -- qcheck: two interleaved one-op transactions serialize ----------------- *)

type qop = Qins of int * int | Qrem of int

let apply_q op m =
  match op with
  | Qins (k, v) -> IntMap.add k v m
  | Qrem k -> IntMap.remove k m

let render m =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "%d:%d" k v)
         (IntMap.bindings m))
  ^ "}"

let initial_bindings = [ (0, 10); (1, 11); (2, 12) ]

let run_two ~schedule opa opb =
  let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 14) ~seed:42 () in
  let m = Imap.open_or_create heap ~slot:0 in
  List.iter (fun (k, v) -> Imap.insert m k v) initial_bindings;
  let h = Mod_core.Handle.make heap ~slot:0 in
  let do_op op () =
    let build old =
      match op with
      | Qins (k, v) -> Some (Imap.insert_pure heap old k v, [])
      | Qrem k ->
          let shadow, removed = Imap.remove_pure heap old k in
          if removed then Some (shadow, []) else None
    in
    (* reclaim:false -- the loser may still be mid-build over the
       superseded version (the commit_cas reclamation contract) *)
    ignore (Mod_core.Handle.update_cas h ~reclaim:false ~build : int)
  in
  Interleave.run (Pmalloc.Heap.region heap) ~schedule
    [| do_op opa; do_op opb |];
  render (Imap.fold h IntMap.add IntMap.empty)

let qop_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map2 (fun k v -> Qins (k, v)) (int_bound 5) (int_bound 99));
        (1, map (fun k -> Qrem k) (int_bound 5));
      ])

let qop_print = function
  | Qins (k, v) -> Printf.sprintf "ins(%d,%d)" k v
  | Qrem k -> Printf.sprintf "rem(%d)" k

let sched_gen =
  QCheck.Gen.(
    map2
      (fun rr n ->
        if rr then Interleave.Round_robin (1 + (n mod 5))
        else Interleave.Seeded n)
      bool (int_bound 1000))

let prop_serializable =
  let arb =
    QCheck.make
      ~print:(fun (a, b, s) ->
        Printf.sprintf "%s || %s under %s" (qop_print a) (qop_print b)
          (Interleave.schedule_name s))
      QCheck.Gen.(triple qop_gen qop_gen sched_gen)
  in
  QCheck.Test.make ~count:60 ~name:"two interleaved 1-op txs serialize" arb
    (fun (opa, opb, schedule) ->
      let init =
        List.fold_left
          (fun m (k, v) -> IntMap.add k v m)
          IntMap.empty initial_bindings
      in
      let final = run_two ~schedule opa opb in
      let ab = render (apply_q opb (apply_q opa init)) in
      let ba = render (apply_q opa (apply_q opb init)) in
      final = ab || final = ba)

(* -- bounded live sweeps ---------------------------------------------------- *)

let quiet = { Explorer.default with log = ignore }

let test_positive_sweep_clean () =
  List.iter
    (fun name ->
      let cw = Workload.cbuild name ~writers:2 ~ops:2 in
      let r =
        Explorer.explore_concurrent ~cfg:quiet
          ~schedules:[ Interleave.Round_robin 1; Interleave.Seeded 1 ]
          cw
      in
      Alcotest.(check bool)
        (name ^ " tested points") true
        (r.Explorer.cr_points_tested > 0);
      match r.Explorer.cr_failures with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "%s: %d failures, first: %s" name
            (List.length r.Explorer.cr_failures)
            (Format.asprintf "%a" Explorer.pp_failure f))
    Workload.concurrent_positive_names

let test_negative_caught () =
  let cw = Workload.cbuild "cmap-nofence" ~writers:2 ~ops:4 in
  let r =
    Explorer.explore_concurrent ~cfg:quiet
      ~schedules:[ Interleave.Round_robin 1 ]
      cw
  in
  match r.Explorer.cr_failures with
  | [] -> Alcotest.fail "nofence negative control swept clean"
  | f :: _ ->
      (* every recorded failure must replay from its tuple alone, and
         the printed repro command must carry the concurrent axes *)
      Alcotest.(check bool) "failure reproduces" true (Replay.reproduces f);
      let cmd = Replay.command f in
      let contains needle =
        let n = String.length needle and l = String.length cmd in
        let rec go i = i + n <= l && (String.sub cmd i n = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "repro command mentions %S" needle)
            true (contains needle))
        [ "--writers 2"; "--schedule"; "--replay" ]

(* A forked sweep must match the sequential one, and both must match
   re-execution: every sample run to its crash point on a fresh heap,
   each schedule's uncrashed check included, and judged the same way
   by {!Replay.replay}, the path behind a printed replay command. *)
let key ~schedule ~crash_index ~mode ~seed detail =
  Printf.sprintf "%s:%d:%s:%s:%s"
    (Interleave.schedule_name schedule)
    crash_index (Explorer.mode_name mode)
    (match seed with Some s -> string_of_int s | None -> "-")
    detail

let failure_key (f : Explorer.failure) =
  key ~schedule:(Option.get f.schedule) ~crash_index:f.crash_index
    ~mode:f.mode ~seed:f.survival_seed f.detail

(* [cw] under [schedule], run to [budget] on a fresh heap rewound once to
   its pristine snapshot: the start state of a sweep's scratch heap, so
   every sample's simulated clock matches the sweep's to the bit. *)
let run_rewound (cw : Workload.ct) schedule ~budget =
  let heap = Explorer.fresh_heap () in
  Pmalloc.Heap.reset_fresh heap ~pristine:(Pmalloc.Heap.pristine_snapshot heap);
  let region = Pmalloc.Heap.region heap in
  let inst = cw.cmake heap in
  Pmem.Region.set_crash_after region budget;
  match
    inst.c_init ();
    Interleave.run region ~schedule inst.c_writers
  with
  | () -> Alcotest.failf "crash index %d never fired" budget
  | exception Pmem.Region.Crash_point -> (heap, inst)

(* [plain] is [cw] without the test's recovery wrappers: what
   {!Replay.replay} runs. *)
let reexec_sweep (cfg : Explorer.config) ~plain cw schedules =
  let points = ref 0 and samples = ref 0 and failures = ref [] in
  let fail schedule ~crash_index ~mode ~seed = function
    | Oracle.Consistent -> ()
    | Oracle.Violation d ->
        failures := key ~schedule ~crash_index ~mode ~seed d :: !failures
  in
  let replay_agrees schedule ~crash_index ~mode ~seed verdict =
    match
      Replay.replay ~cfg (Explorer.Conc (plain, schedule)) ~crash_index ~mode
        ?seed ()
    with
    | Some v when v = verdict -> ()
    | _ ->
        Alcotest.failf "%s: replay disagrees with the reference"
          (key ~schedule ~crash_index ~mode ~seed "-")
  in
  List.iter
    (fun schedule ->
      (match
         Replay.replay ~cfg (Explorer.Conc (plain, schedule)) ~crash_index:(-1)
           ~mode:keep ()
       with
      | Some v -> fail schedule ~crash_index:(-1) ~mode:keep ~seed:None v
      | None -> Alcotest.fail "the uncrashed run crashed");
      let total =
        match
          Explorer.run cfg (Explorer.Conc (plain, schedule)) ~budget:None
        with
        | `Completed (events, _) -> events
        | `Crashed _ -> assert false
      in
      for crash_index = 1 to total do
        incr points;
        List.iter
          (fun mode ->
            let seeds =
              if mode = rand then
                List.init cfg.randomize_samples (fun k ->
                    Some (Explorer.survival_seed cfg ~crash_index ~k))
              else [ None ]
            in
            List.iter
              (fun seed ->
                incr samples;
                let heap, inst =
                  run_rewound cw schedule ~budget:crash_index
                in
                Pmalloc.Heap.crash ~mode ?seed heap;
                let recovered =
                  match
                    inst.c_recover ();
                    inst.c_dump ()
                  with
                  | s -> Ok s
                  | exception e -> Error e
                in
                let verdict = Oracle.judge inst.c_tracker ~recovered in
                replay_agrees schedule ~crash_index ~mode ~seed verdict;
                fail schedule ~crash_index ~mode ~seed verdict)
              seeds)
          Explorer.modes
      done)
    schedules;
  (!points, !samples, List.rev !failures)

(* Every registry workload at 2 writers under the default schedules: the
   captured sweep at jobs 1, 2 and 3 tests the points, takes the samples
   and reports the failures re-execution does, and each sample's recovery
   starts from the same stats and simulates the same time, bit for bit
   (in order at jobs 1, as a multiset across forked workers). *)
let test_parallel_matches_reexec name ~caught () =
  Sweep_log.with_log (fun log ->
      let plain = Workload.cbuild name ~writers:2 ~ops:2 in
      let cmake heap =
        let i = plain.cmake heap in
        {
          i with
          Workload.c_recover =
            (fun () -> Sweep_log.recovery log heap i.c_recover);
        }
      in
      let cw = { plain with Workload.cmake } in
      let cfg = { quiet with randomize_samples = 1 } in
      let schedules = Explorer.default_schedules in
      let ((_, _, failures) as reference) =
        reexec_sweep cfg ~plain cw schedules
      in
      let sims = Sweep_log.take log in
      Alcotest.(check bool) "violations found" caught (failures <> []);
      List.iter
        (fun jobs ->
          let what = Printf.sprintf "jobs %d" jobs in
          let r =
            Explorer.explore_concurrent ~cfg:{ cfg with jobs } ~schedules cw
          in
          let points, samples, failures = reference in
          Alcotest.(check int) (what ^ ": points") points
            r.Explorer.cr_points_tested;
          Alcotest.(check int) (what ^ ": samples") samples
            r.Explorer.cr_crashes_sampled;
          Alcotest.(check (list string))
            (what ^ ": failures") failures
            (List.map failure_key r.Explorer.cr_failures);
          Sweep_log.check_recoveries log ~what ~jobs sims)
        [ 1; 2; 3 ])

(* -- NOrec unit tests ------------------------------------------------------- *)

let mk_norec () =
  let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 14) () in
  let b = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:8 in
  for i = 0 to 7 do
    Pmalloc.Heap.store heap (b + i) (Pmem.Word.of_int 0)
  done;
  Pmalloc.Heap.flush_block heap b;
  Pmalloc.Heap.sfence heap;
  (heap, b, Pmstm.Norec.create heap)

let incr_tx s off delta tx =
  let v = Pmem.Word.to_int (Pmstm.Norec.read tx off) in
  ignore s;
  Pmstm.Norec.write tx off (Pmem.Word.of_int (v + delta))

let test_norec_commits () =
  let heap, b, s = mk_norec () in
  Pmstm.Norec.run s (incr_tx s b 5);
  Pmstm.Norec.run s (incr_tx s b 7);
  Alcotest.(check int)
    "in-place value" 12
    (Pmem.Word.to_int (Pmalloc.Heap.load heap b));
  Alcotest.(check int) "commits" 2 (Pmstm.Norec.commits s);
  Alcotest.(check int) "aborts" 0 (Pmstm.Norec.aborts s)

let test_norec_read_your_writes () =
  let _heap, b, s = mk_norec () in
  let seen =
    Pmstm.Norec.run s (fun tx ->
        Pmstm.Norec.write tx b (Pmem.Word.of_int 41);
        Pmstm.Norec.write tx b (Pmem.Word.of_int 42);
        Pmem.Word.to_int (Pmstm.Norec.read tx b))
  in
  Alcotest.(check int) "redo log serves the tx's own write" 42 seen

let test_norec_recover_clean () =
  let heap, _b, s = mk_norec () in
  Pmstm.Norec.run s (fun tx ->
      Pmstm.Norec.write tx _b (Pmem.Word.of_int 9));
  Alcotest.(check bool)
    "nothing to replay after a completed commit" false
    (Pmstm.Norec.recover heap)

let test_norec_interleaved () =
  let heap, b, s = mk_norec () in
  Pmstm.Norec.set_yield s Interleave.yield;
  let writer n () =
    for _ = 1 to n do
      Pmstm.Norec.run s (incr_tx s b 1)
    done
  in
  Interleave.run (Pmalloc.Heap.region heap)
    ~schedule:(Interleave.Seeded 7)
    [| writer 3; writer 3 |];
  Alcotest.(check int)
    "all six increments applied" 6
    (Pmem.Word.to_int (Pmalloc.Heap.load heap b));
  Alcotest.(check int) "six commits" 6 (Pmstm.Norec.commits s)

let () =
  Alcotest.run "concurrent"
    [
      ("regression-corpus", corpus_tests);
      ( "replay",
        [
          Alcotest.test_case "negative tuple replays deterministically"
            `Quick test_replay_deterministic;
        ] );
      ( "serializability",
        [ QCheck_alcotest.to_alcotest prop_serializable ] );
      ( "sweeps",
        [
          Alcotest.test_case "positive workloads sweep clean" `Quick
            test_positive_sweep_clean;
          Alcotest.test_case "nofence negative control is caught" `Quick
            test_negative_caught;
          Alcotest.test_case "cmap: jobs 2 = jobs 1 = re-execution" `Quick
            (test_parallel_matches_reexec "cmap" ~caught:false);
          Alcotest.test_case "cmap-nofence: jobs 2 = jobs 1 = re-execution"
            `Quick
            (test_parallel_matches_reexec "cmap-nofence" ~caught:true);
          Alcotest.test_case "cset: jobs 2 = jobs 1 = re-execution" `Quick
            (test_parallel_matches_reexec "cset" ~caught:false);
          Alcotest.test_case "cstm-norec: jobs 2 = jobs 1 = re-execution"
            `Quick
            (test_parallel_matches_reexec "cstm-norec" ~caught:false);
        ] );
      ( "norec",
        [
          Alcotest.test_case "commits apply in place and count" `Quick
            test_norec_commits;
          Alcotest.test_case "read-your-writes inside a tx" `Quick
            test_norec_read_your_writes;
          Alcotest.test_case "recover on a clean heap is a no-op" `Quick
            test_norec_recover_clean;
          Alcotest.test_case "interleaved writers serialize" `Quick
            test_norec_interleaved;
        ] );
    ]
