(* End-to-end workload tests: every Table 2 workload runs on every backend,
   produces sane measurements, and every MOD workload's trace passes the
   Section 5.4 consistency checker. *)

let scale = 1500

let backend_name = Workloads.Backend.kind_name

let sane_result (r : Workloads.Runner.result) =
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s: simulated time positive" r.workload
       (backend_name r.backend))
    true (r.ns_total > 0.0);
  Alcotest.(check bool) "phases sum to total" true
    (abs_float (r.ns_flush +. r.ns_log +. r.ns_other -. r.ns_total)
    < 1e-6 *. r.ns_total +. 1.0);
  Alcotest.(check bool) "miss ratio in [0,1]" true
    (r.miss_ratio >= 0.0 && r.miss_ratio <= 1.0);
  Alcotest.(check bool) "some flushes happened" true (r.flushes > 0);
  Alcotest.(check bool) "some fences happened" true (r.fences > 0)

let workload_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " on all backends") `Slow (fun () ->
          List.iter
            (fun backend ->
              let r = Workloads.Runner.run_one name backend ~scale in
              sane_result r)
            Workloads.Backend.all_kinds))
    Workloads.Runner.names

let mod_semantics_tests =
  [
    Alcotest.test_case "MOD fences <= ops on every workload" `Slow (fun () ->
        List.iter
          (fun name ->
            let r = Workloads.Runner.run_one name Workloads.Backend.Mod ~scale in
            (* each FASE has exactly one ordering point; lookups have none,
               so fences never exceed operations *)
            Alcotest.(check bool)
              (Printf.sprintf "%s: fences (%d) <= ops (%d)" name r.fences r.ops)
              true
              (r.fences <= r.ops))
          Workloads.Runner.names);
    Alcotest.test_case "MOD logs nothing; PMDK logs" `Slow (fun () ->
        let m = Workloads.Runner.run_one "map" Workloads.Backend.Mod ~scale in
        Alcotest.(check (float 0.001)) "MOD log time = 0" 0.0 m.ns_log;
        let p = Workloads.Runner.run_one "map" Workloads.Backend.Pmdk15 ~scale in
        Alcotest.(check bool) "PMDK log time > 0" true (p.ns_log > 0.0));
    Alcotest.test_case "PMDK fences multiples of MOD's" `Slow (fun () ->
        let m = Workloads.Runner.run_one "map" Workloads.Backend.Mod ~scale in
        let p = Workloads.Runner.run_one "map" Workloads.Backend.Pmdk15 ~scale in
        Alcotest.(check bool)
          (Printf.sprintf "PMDK %d > 2x MOD %d" p.fences m.fences)
          true
          (p.fences > 2 * m.fences));
  ]

let consistency_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " MOD trace passes checker") `Slow (fun () ->
          let trace =
            Workloads.Runner.run_traced name Workloads.Backend.Mod
              ~scale:(scale / 3)
          in
          let report = Mod_core.Consistency.check trace in
          if not (Mod_core.Consistency.ok report) then
            Alcotest.failf "%s: %a" name Mod_core.Consistency.pp_report report))
    Workloads.Runner.names

let profile_tests =
  [
    Alcotest.test_case "Figure 10 shape: MOD one fence, PMDK many" `Slow
      (fun () ->
        let points = Workloads.Profile.all ~samples:60 ~size:800 () in
        Alcotest.(check int) "16 points (8 ops x 2 backends)" 16
          (List.length points);
        List.iter
          (fun (p : Workloads.Profile.point) ->
            match p.backend with
            | Workloads.Backend.Mod ->
                Alcotest.(check (float 0.01))
                  (p.label ^ ": MOD has exactly one fence per op")
                  1.0 p.fences
            | Workloads.Backend.Pmdk15 | Workloads.Backend.Pmdk14 ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: PMDK has several fences (%.1f)" p.label
                     p.fences)
                  true (p.fences >= 3.0))
          points);
  ]

let space_tests =
  [
    Alcotest.test_case "Table 3 rows: growth ratios near 2x (except vector)"
      `Slow (fun () ->
        let rows = Workloads.Space.table3 ~n:2000 () in
        Alcotest.(check int) "10 rows" 10 (List.length rows);
        List.iter
          (fun (r : Workloads.Space.row) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s ratio %.2f sane" r.structure
                 (backend_name r.backend) r.ratio)
              true
              (r.ratio >= 1.2 && r.ratio < 4.0))
          rows);
    Alcotest.test_case "per-update shadow overhead is tiny" `Quick (fun () ->
        let transient, live = Workloads.Space.shadow_overhead ~n:4000 in
        let frac = float_of_int transient /. float_of_int live in
        Alcotest.(check bool)
          (Printf.sprintf "transient %d / live %d = %.5f < 1%%" transient live
             frac)
          true (frac < 0.01));
  ]

let graph_tests =
  [
    Alcotest.test_case "R-MAT generates requested shape" `Quick (fun () ->
        let g = Workloads.Graph.rmat ~n:1000 ~edges:12000 ~seed:3 in
        Alcotest.(check int) "nodes" 1000 g.Workloads.Graph.n;
        let total =
          Array.fold_left
            (fun acc adj -> acc + Array.length adj)
            0 g.Workloads.Graph.adj
        in
        Alcotest.(check int) "edges" 12000 total;
        (* scale-free-ish: max degree far above the average *)
        let maxd =
          Array.fold_left
            (fun acc adj -> max acc (Array.length adj))
            0 g.Workloads.Graph.adj
        in
        Alcotest.(check bool)
          (Printf.sprintf "degree skew (max %d)" maxd)
          true (maxd > 60));
    Alcotest.test_case "BFS reaches the same set on both backends" `Quick
      (fun () ->
        let g = Workloads.Graph.rmat ~n:500 ~edges:4000 ~seed:5 in
        let src = Workloads.Graph.good_source g in
        let reach backend =
          let ctx = Workloads.Backend.create backend in
          Workloads.Graph.bfs (Workloads.Ops.queue ctx) g ~src
        in
        let reach_mod = reach Workloads.Backend.Mod in
        let reach_pm = reach Workloads.Backend.Pmdk15 in
        Alcotest.(check int) "same reachable count" reach_mod reach_pm;
        Alcotest.(check bool) "non-trivial" true (reach_mod > 10));
  ]

let ablation_tests =
  [
    Alcotest.test_case "sharing ablation: naive shadow flushes more" `Slow
      (fun () ->
        match Workloads.Ablation.sharing ~ops:150 ~size:600 with
        | [ tree; naive ] ->
            Alcotest.(check bool)
              (Printf.sprintf "naive %d flushes > tree %d" naive.flushes
                 tree.flushes)
              true
              (naive.Workloads.Ablation.flushes > tree.Workloads.Ablation.flushes)
        | _ -> Alcotest.fail "expected two results");
    Alcotest.test_case "ordering ablation: fence-per-flush is slower" `Slow
      (fun () ->
        match Workloads.Ablation.ordering ~ops:300 ~size:600 with
        | [ overlapped; serialized ] ->
            Alcotest.(check bool)
              "serialized flushing costs more time" true
              (serialized.Workloads.Ablation.ns_total
              > overlapped.Workloads.Ablation.ns_total)
        | _ -> Alcotest.fail "expected two results");
    Alcotest.test_case "reclamation ablation: no-reclaim grows memory" `Slow
      (fun () ->
        match Workloads.Ablation.reclamation ~ops:400 ~size:100 with
        | [ reclaiming; leaking ] ->
            Alcotest.(check bool)
              "leaking footprint larger" true
              (leaking.Workloads.Ablation.high_water_words
              > 2 * reclaiming.Workloads.Ablation.high_water_words)
        | _ -> Alcotest.fail "expected two results");
  ]

(* ------------------------------------------------------------------ *)
(* Gate: baseline loading, bound checks, the result envelope          *)
(* ------------------------------------------------------------------ *)

module Gate = Workloads.Gate
module Json = Workloads.Report.Json

let contains hay needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length hay && (String.sub hay i n = needle || scan (i + 1))
  in
  scan 0

(* temporary files and directories are removed when the suite exits *)
let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let temp make =
  let path = make "gate" "" in
  at_exit (fun () -> if Sys.file_exists path then remove path);
  path

let write_file contents =
  let path = temp Filename.temp_file in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let entry ?(direction = "max") ?(bound = "1.5") section metric =
  Printf.sprintf
    {|{"section": "%s", "metric": "%s", "direction": "%s", "bound": %s, "why": "test"}|}
    section metric direction bound

let baseline entries =
  Printf.sprintf {|{"schema": "modpm-baseline/2", "gates": [%s]}|}
    (String.concat ", " entries)

let gate_of entries = Gate.create ~baseline:(write_file (baseline entries)) ()

(* status after checking [v] against a single entry *)
let status_for ~direction ~bound v =
  let g =
    gate_of [ entry ~direction ~bound:(Printf.sprintf "%.17g" bound) "s" "m" ]
  in
  Gate.bound g ~section:"s" ~metric:"m" v;
  Gate.status g

let load_error contents =
  match Gate.load (write_file contents) with
  | Ok _ -> Alcotest.fail "expected a load error"
  | Error _ -> ()

(* Run a shell command: its exit status and its merged output. *)
let run_cmd cmd =
  let out = temp Filename.temp_file in
  let rc = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd out) in
  let ic = open_in out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (rc, text)

let gate_tests =
  [
    Alcotest.test_case "bounds pass at equality, fail one ulp beyond" `Quick
      (fun () ->
        let b = 0.03 in
        Alcotest.(check int) "max at equality" 0
          (status_for ~direction:"max" ~bound:b b);
        Alcotest.(check int) "max one ulp above" 1
          (status_for ~direction:"max" ~bound:b (Float.succ b));
        Alcotest.(check int) "min at equality" 0
          (status_for ~direction:"min" ~bound:b b);
        Alcotest.(check int) "min one ulp below" 1
          (status_for ~direction:"min" ~bound:b (Float.pred b)));
    Alcotest.test_case "a NaN value fails either direction" `Quick (fun () ->
        Alcotest.(check int) "max" 1
          (status_for ~direction:"max" ~bound:1.0 Float.nan);
        Alcotest.(check int) "min" 1
          (status_for ~direction:"min" ~bound:1.0 Float.nan));
    Alcotest.test_case "bad baselines are load errors" `Quick (fun () ->
        let g = gate_of [ entry "other" "m" ] in
        Gate.bound g ~section:"crashtest-shards" ~metric:"violations" 0.0;
        Alcotest.(check int) "missing entry exits 2" 2 (Gate.status g);
        Alcotest.(check bool) "message names the section" true
          (List.exists (fun l -> contains l "crashtest-shards") (Gate.failures g));
        load_error (baseline [ entry "s" "m"; entry ~bound:"2" "s" "m" ]);
        load_error (baseline [ entry ~direction:"above" "s" "m" ]);
        load_error (baseline [ {|{"section": "s", "metric": "m"}|} ]);
        load_error {|{"schema": "modpm-baseline/2", "gates": [|};
        load_error {|{"schema": "modpm-crashtest-baseline/1", "gates": []}|};
        match Gate.load "/nonexistent/BASELINE.json" with
        | Ok _ -> Alcotest.fail "loaded a missing file"
        | Error _ -> ());
    Alcotest.test_case "committed BASELINE.json has 12 unique entries" `Quick
      (fun () ->
        match Gate.load "../bench/BASELINE.json" with
        | Error e -> Alcotest.fail e
        | Ok entries ->
            Alcotest.(check int) "entries" 12 (List.length entries);
            let keys =
              List.sort_uniq compare
                (List.map (fun (e : Gate.entry) -> (e.section, e.metric)) entries)
            in
            Alcotest.(check int) "unique (section, metric)" 12
              (List.length keys));
    Alcotest.test_case "envelope round-trips; ok = all gates ok" `Quick
      (fun () ->
        let g = gate_of [ entry "s" "m" ] in
        Gate.bound g ~section:"s" ~metric:"m" 1.25;
        Gate.require g ~section:"s" ~metric:"inv" true "";
        let path = temp Filename.temp_file in
        let doc = Gate.envelope g ~command:"test" ~config:[] (Json.Int 7) in
        Json.to_file path doc;
        let back = Json.of_file path in
        Alcotest.(check bool) "round-trips" true (back = doc);
        let str k = Option.bind (Json.member k back) Json.to_string_opt in
        Alcotest.(check (option string)) "schema" (Some "modpm-result/1")
          (str "schema");
        let gates =
          Option.get (Option.bind (Json.member "gates" back) Json.to_list_opt)
        in
        Alcotest.(check int) "two gates" 2 (List.length gates);
        let all_ok =
          List.for_all (fun j -> Json.member "ok" j = Some (Json.Bool true)) gates
        in
        Alcotest.(check bool) "ok is the conjunction" true
          (Json.member "ok" back = Some (Json.Bool all_ok));
        Gate.require g ~section:"s" ~metric:"broken" false "fails";
        Alcotest.(check bool) "one failed gate clears ok" true
          (Json.member "ok" (Gate.envelope g ~command:"test" ~config:[] Json.Null)
          = Some (Json.Bool false)));
    Alcotest.test_case "shard sweeps honour --baseline" `Quick (fun () ->
        (* the shard targets are gated under their command's own section:
           a baseline without it is exit 2, naming it; an unreachable
           bound there is exit 1 *)
        List.iter
          (fun (args, section, metric, direction) ->
            let run gates =
              Sys.command
                (Printf.sprintf
                   "../bin/modpm.exe %s --shards 2 --ops 4 --baseline %s > \
                    /dev/null 2>&1"
                   args
                   (write_file (baseline gates)))
            in
            Alcotest.(check int) (args ^ " without " ^ section) 2
              (run [ entry "bench.shard" "sim_speedup" ]);
            let bound = if direction = "min" then "1e12" else "-1" in
            Alcotest.(check int) (args ^ " unreachable bound") 1
              (run [ entry ~direction ~bound section metric ]))
          [
            ("crashtest --quick", "crashtest", "points_per_sec", "min");
            ( Printf.sprintf "killtest --kills 2 --dir %s"
                (temp (fun p s -> Filename.temp_dir p s)),
              "killtest",
              "max_reopen_ms",
              "max" );
          ]);
    Alcotest.test_case "crashtest --shards flag handling" `Quick (fun () ->
        (* --shards N sweeps the N targets shard<i>of<N> like any other
           workloads: every stride-th event of each, the usual flags
           accepted, only --writers and --persist rejected *)
        let run args =
          run_cmd ("../bin/modpm.exe crashtest --shards 2 --ops 6 " ^ args)
        in
        List.iter
          (fun flag ->
            let rc, text = run flag in
            Alcotest.(check int) (flag ^ " exit status") 2 rc;
            let name = List.hd (String.split_on_char ' ' flag) in
            Alcotest.(check bool) (flag ^ " named") true (contains text name))
          [ "--writers 2"; "--persist backup" ];
        Alcotest.(check int) "--shards 0" 2
          (fst (run_cmd "../bin/modpm.exe crashtest --shards 0"));
        List.iter
          (fun flag ->
            let rc, _ = run flag in
            Alcotest.(check int) (flag ^ " exit status") 0 rc)
          [ "--faults"; "--jobs 2"; "--replay 3" ];
        let rc, text = run "--stride 5" in
        Alcotest.(check int) "sweep exit status" 0 rc;
        Alcotest.(check bool) "no coverage claim" false
          (contains text "full coverage");
        List.iter
          (fun target ->
            let line =
              List.find
                (fun l -> String.starts_with ~prefix:(target ^ " ") l)
                (String.split_on_char '\n' text)
            in
            Scanf.sscanf line "%s %d events, %d points tested"
              (fun _ events points ->
                Alcotest.(check int)
                  (target ^ " tests every 5th event")
                  ((events + 4) / 5) points))
          [ "shard0of2"; "shard1of2" ]);
  ]

(* ------------------------------------------------------------------ *)
(* CLI: bench sections, crash replays                                  *)
(* ------------------------------------------------------------------ *)

let seq_replay =
  "../bin/modpm.exe crashtest --workload map-nofence --ops 8 --replay 21 \
   --mode drop"

let conc_replay =
  "../bin/modpm.exe crashtest --workload cmap-nofence --writers 2 --ops 8 \
   --schedule rr1 --replay 33 --mode drop"

let cli_tests =
  [
    Alcotest.test_case "bench rejects unknown sections" `Quick (fun () ->
        (* a stale section name must fail the step that names it, not
           print the banner and pass *)
        List.iter
          (fun section ->
            let rc, text =
              run_cmd
                ("../bench/main.exe " ^ section
               ^ " --baseline ../bench/BASELINE.json")
            in
            Alcotest.(check int) (section ^ " exit status") 2 rc;
            Alcotest.(check bool) (section ^ " named") true
              (contains text (Printf.sprintf "%S" section)))
          [ "faults"; "killtest"; "fig44" ]);
    Alcotest.test_case "replays print their verdict" `Quick (fun () ->
        let check cmd expected =
          let rc, text = run_cmd cmd in
          Alcotest.(check int) "a violation exits 1" 1 rc;
          Alcotest.(check string) "replay lines" expected text
        in
        check seq_replay
          "replay map-nofence @ event 21 (mode drop): VIOLATION\n\
          \  recovered state {} is not at a FASE boundary (acceptable: \
           {9:9,16:184,19:872} | {9:9,16:184} | {16:184})\n";
        check conc_replay
          "replay cmap-nofence (2 writers, schedule rr1) @ event 33 (mode \
           drop): VIOLATION\n\
          \  recovered state {} is not at a FASE boundary (acceptable: \
           {4:750,9:951} | {9:951,10:336} | {9:951})\n");
    Alcotest.test_case "--shrink works for concurrent replays" `Quick
      (fun () ->
        let rc, text = run_cmd (conc_replay ^ " --shrink") in
        Alcotest.(check int) "exit status" 1 rc;
        Alcotest.(check bool) "prints a minimal repro" true
          (contains text
             "minimal repro: modpm crashtest --workload cmap-nofence \
              --writers 2"));
    Alcotest.test_case "--faults failures replay from their command" `Quick
      (fun () ->
        let rc, text =
          run_cmd
            "../bin/modpm.exe crashtest sweep --workload map-nofence --ops 8 \
             --faults --seed 7"
        in
        Alcotest.(check int) "the negative control is caught" 0 rc;
        let cmd =
          List.find
            (fun l -> contains l "--replay")
            (String.split_on_char '\n' text)
          |> String.trim
        in
        Alcotest.(check string) "printed command"
          "modpm crashtest --workload map-nofence --ops 8 --replay 18 --mode \
           randomize --faults --seed 7 --survival-seed 51586139"
          cmd;
        let rc, text =
          run_cmd ("../bin/modpm.exe" ^ String.sub cmd 5 (String.length cmd - 5))
        in
        Alcotest.(check int) "a violation exits 1" 1 rc;
        Alcotest.(check bool) "prints the fault kind and VIOLATION" true
          (contains text "fault kind 4): VIOLATION");
        let rc, _ =
          run_cmd
            "../bin/modpm.exe crashtest --workload map-nofence --ops 8 \
             --replay 18 --mode randomize --faults --seed 8 --survival-seed \
             51586139"
        in
        Alcotest.(check int) "another sweep seed is a usage error" 2 rc);
    Alcotest.test_case "Backup failures replay under Backup" `Quick
      (fun () ->
        (* map at 8 ops has 102 PM events under Full and 114 under
           Backup: event 110 exists only in the Backup run *)
        let w =
          Crashtest.Workload.build ~persist:Pmalloc.Heap.Backup "map" ~ops:8
        in
        let f =
          Crashtest.Explorer.failure (Crashtest.Explorer.Seq w)
            ~crash_index:110 ~mode:Pmem.Region.Drop_inflight
            ~survival_seed:None "hand-built"
        in
        let cmd = Crashtest.Replay.command f in
        Alcotest.(check bool) "command names the policy" true
          (contains cmd "--persist backup");
        let prefix = "modpm " in
        let n = String.length prefix in
        Alcotest.(check string) "command runs modpm" prefix (String.sub cmd 0 n);
        let rc, text =
          run_cmd
            ("../bin/modpm.exe " ^ String.sub cmd n (String.length cmd - n))
        in
        Alcotest.(check int) "exit status" 0 rc;
        Alcotest.(check bool) "replays a crash" false
          (contains text "beyond the workload's last PM event");
        Alcotest.(check bool) "consistent" true (contains text "consistent"));
  ]
  (* A setting the run would ignore is a usage error that names the
     workloads taking it. *)
  @ List.map
      (fun (args, takers) ->
        Alcotest.test_case ("run " ^ args ^ " is a usage error") `Quick
          (fun () ->
            let rc, text =
              run_cmd ("../bin/modpm.exe run --ops 100 " ^ args)
            in
            Alcotest.(check int) "exit status" 2 rc;
            Alcotest.(check bool) ("names " ^ takers) true
              (contains text takers)))
      [
        ("vec-swap --batch 8", "map, set, queue, stack, vector, memcached");
        ("vacation --persist backup", "queue, stack, vector, vec-swap");
        ("bfs --persist backup", "queue, stack, vector, vec-swap");
        ("map --backend pmdk15 --persist backup", "--backend mod");
      ]

(* ------------------------------------------------------------------ *)
(* Golden: the simulated numbers, pinned                               *)
(* ------------------------------------------------------------------ *)

(* Every simulated number the workloads produce is deterministic, so a
   change that only reshapes code must leave all of them as they were.
   Two pins:
   - golden_bench.txt: the stdout of the bench sections that run the
     Table 2 workloads, at --scale 2000;
   - golden_runs.txt: one line of exact Runner.result fields (floats in
     %h) for each (workload, backend, batch, policy) combination that
     `modpm run` accepts, at scale 500.
   On a mismatch the test writes what it read next to itself
   (_build/default/test/golden_*.actual) and names the first differing
   line.  After a change that moves a number on purpose, run
   `dune test`, check the differences, copy each .actual file over its
   test/golden_*.txt and say why in CHANGES.md. *)

let golden_scale = 500

(* Runs that stage updates (--batch > 1) and runs that honor the Backup
   policy (MOD only). *)
let staged = [ "map"; "set"; "queue"; "stack"; "vector"; "memcached" ]
let honors_policy = "vec-swap" :: staged

let golden_combinations =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun backend ->
          List.concat_map
            (fun batch ->
              List.filter_map
                (fun policy ->
                  if
                    (batch = 1 || List.mem name staged)
                    && (policy = Pmalloc.Heap.Full
                       || (backend = Workloads.Backend.Mod
                          && List.mem name honors_policy))
                  then Some (name, backend, batch, policy)
                  else None)
                [ Pmalloc.Heap.Full; Pmalloc.Heap.Backup ])
            [ 1; 8 ])
        Workloads.Backend.all_kinds)
    Workloads.Runner.names

let golden_line (name, backend, batch, policy) =
  let r =
    Workloads.Runner.run_one ~batch ~persist:policy name backend
      ~scale:golden_scale
  in
  Printf.sprintf
    "%s %s batch=%d %s ops=%d ns_total=%h ns_flush=%h ns_log=%h ns_other=%h \
     fences=%d flushes=%d commits=%d loads=%d stores=%d miss_ratio=%h \
     live=%d high_water=%d"
    name (backend_name backend) batch
    (Pmalloc.Heap.policy_name policy)
    r.ops r.ns_total r.ns_flush r.ns_log r.ns_other r.fences r.flushes
    r.commits r.loads r.stores r.miss_ratio r.live_words r.high_water_words

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

(* Compare [actual] with the golden file [name] line by line. *)
let check_golden name actual =
  let expected = read_file name in
  if actual <> expected then begin
    let out = Filename.remove_extension name ^ ".actual" in
    let oc = open_out_bin out in
    output_string oc actual;
    close_out oc;
    let e = Array.of_list (String.split_on_char '\n' expected) in
    let a = Array.of_list (String.split_on_char '\n' actual) in
    let rec first i =
      if i >= Array.length e || i >= Array.length a || e.(i) <> a.(i) then i
      else first (i + 1)
    in
    let i = first 0 in
    let at arr = if i < Array.length arr then arr.(i) else "<end of file>" in
    Alcotest.failf "%s differs at line %d (actual in %s)\n  expected %s\n  actual   %s"
      name (i + 1) out (at e) (at a)
  end

let golden_tests =
  [
    Alcotest.test_case "bench sections print the pinned stdout" `Quick
      (fun () ->
        let out = temp Filename.temp_file in
        let rc =
          Sys.command
            (Printf.sprintf
               "../bench/main.exe fig2 fig9 fig10 fig11 table3 batch ctree \
                ablations --scale 2000 > %s"
               out)
        in
        Alcotest.(check int) "exit status" 0 rc;
        check_golden "golden_bench.txt" (read_file out));
    Alcotest.test_case "runner results per (workload, backend, batch, policy)"
      `Quick (fun () ->
        check_golden "golden_runs.txt"
          (String.concat ""
             (List.map (fun c -> golden_line c ^ "\n") golden_combinations)));
  ]

let () =
  Alcotest.run "workloads"
    [
      ("runs", workload_tests);
      ("mod-semantics", mod_semantics_tests);
      ("consistency", consistency_tests);
      ("profile", profile_tests);
      ("space", space_tests);
      ("graph", graph_tests);
      ("ablations", ablation_tests);
      ("gate", gate_tests);
      ("cli", cli_tests);
      ("golden", golden_tests);
    ]
