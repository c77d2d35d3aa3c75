(* modpm: command-line driver for the MOD reproduction.

   Subcommands:
     run         -- run a Table 2 workload on a backend, print measurements
     crashtest   -- exhaustive crash-point exploration with the
                    durable-linearizability oracle (and --replay); with
                    --shards N, of each shard target shard<i>of<N>
     check       -- run a workload under tracing and apply the Section 5.4
                    consistency checker
     serve       -- with --shards N: the sharded multi-domain serving
                    layer under a zipfian memcached-style loop; without:
                    the kill-test worker (deterministic workload on a
                    file-backed heap, acking durable ops on stdout)
     killtest    -- fork serve workers that SIGKILL themselves at each
                    writeback phase or ack of a calibration run (strided),
                    reopen the image and check the oracle; with
                    --shards N, of each shard target shard<i>of<N>
     fsck        -- offline image checker/repairer
     machine     -- print the simulated machine configuration

   The cross-cutting flags (--persist, --writers, --json, --baseline,
   --seed, --shards) are defined once in Cli and shared by every
   subcommand that accepts them. *)

open Cmdliner
module Json = Workloads.Report.Json
module Gate = Workloads.Gate

let backend_conv =
  let parse = function
    | "mod" -> Ok Workloads.Backend.Mod
    | "pmdk14" | "pmdk-1.4" -> Ok Workloads.Backend.Pmdk14
    | "pmdk15" | "pmdk-1.5" -> Ok Workloads.Backend.Pmdk15
    | s -> Error (`Msg (Printf.sprintf "unknown backend %S (mod|pmdk14|pmdk15)" s))
  in
  let print ppf b = Format.pp_print_string ppf (Workloads.Backend.kind_name b) in
  Arg.conv (parse, print)

let workload_arg =
  let doc =
    Printf.sprintf "Workload to run: %s." (String.concat ", " Workloads.Runner.names)
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let backend_arg =
  let doc = "Backend: mod, pmdk14 or pmdk15." in
  Arg.(value & opt backend_conv Workloads.Backend.Mod & info [ "backend"; "b" ] ~doc)

let scale_arg =
  let doc = "Number of operations (the paper runs 1,000,000)." in
  Arg.(value & opt int 10_000 & info [ "ops"; "n" ] ~doc)

let check_workload name =
  if not (List.mem name Workloads.Runner.names) then begin
    Printf.eprintf "unknown workload %S; expected one of: %s\n" name
      (String.concat ", " Workloads.Runner.names);
    exit 2
  end

(* -- run -------------------------------------------------------------- *)

let batch_arg =
  let doc =
    Printf.sprintf
      "Group-commit size: retire updates in batches of $(docv) under one \
       ordering point (MOD: one Batch commit per group; PMDK: one \
       transaction per group). 1 = one FASE/transaction per operation; \
       $(docv) > 1 is taken by %s."
      (Workloads.Runner.takers (fun w -> w.Workloads.Runner.stages))
  in
  Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc)

(* Render a telemetry report in one of the supported --metrics formats. *)
let render_metrics format report =
  match format with
  | "json" -> Telemetry.Export.to_json report
  | "prom" | "prometheus" -> Telemetry.Export.to_prometheus report
  | "text" -> Format.asprintf "%a" Telemetry.pp_report report
  | other ->
      Printf.eprintf "unknown --metrics format %S (json|prom|text)\n" other;
      exit 2

let emit_metrics ~out format report =
  let payload = render_metrics format report in
  match out with
  | None ->
      print_newline ();
      print_string payload;
      if String.length payload > 0 && payload.[String.length payload - 1] <> '\n'
      then print_newline ()
  | Some path ->
      let oc = open_out path in
      output_string oc payload;
      if String.length payload > 0 && payload.[String.length payload - 1] <> '\n'
      then output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path

let metrics_arg =
  let doc =
    "Collect per-(structure x op) telemetry -- latency histograms in sim-ns \
     with p50/p90/p99/max and fence-stall attribution -- and emit it as \
     $(docv): json, prom (Prometheus text) or text."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FORMAT" ~doc)

let metrics_out_arg =
  let doc = "Write the $(b,--metrics) payload to $(docv) instead of stdout." in
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let run_cmd =
  let run name backend scale batch metrics metrics_out persist seed json_out =
    check_workload name;
    if batch < 1 then begin
      Printf.eprintf "--batch must be >= 1\n";
      exit 2
    end;
    (match Workloads.Runner.check ~batch ?persist backend name with
    | Ok () -> ()
    | Error msg ->
        prerr_endline msg;
        exit 2);
    (match metrics with
    | Some f when f <> "json" && f <> "prom" && f <> "prometheus" && f <> "text"
      ->
        Printf.eprintf "unknown --metrics format %S (json|prom|text)\n" f;
        exit 2
    | _ -> ());
    let sink = Option.map (fun _ -> Telemetry.Sink.Memory) metrics in
    let r =
      Workloads.Runner.run_one ~batch ?metrics:sink ?persist ~seed name backend
        ~scale
    in
    Printf.printf "workload    %s\n" r.Workloads.Runner.workload;
    Printf.printf "backend     %s\n" (Workloads.Backend.kind_name r.backend);
    Printf.printf "operations  %d (batch %d)\n" r.ops r.batch;
    Printf.printf "sim time    %.3f ms\n" (r.ns_total /. 1e6);
    Printf.printf "  flushing  %.3f ms (%.1f%%)\n" (r.ns_flush /. 1e6)
      (100.0 *. Workloads.Runner.flush_fraction r);
    Printf.printf "  logging   %.3f ms (%.1f%%)\n" (r.ns_log /. 1e6)
      (100.0 *. Workloads.Runner.log_fraction r);
    Printf.printf "  other     %.3f ms\n" (r.ns_other /. 1e6);
    Printf.printf "fences      %d (%.2f/op, %.2f/commit)\n" r.fences
      (Workloads.Runner.fences_per_op r)
      (Workloads.Runner.fences_per_commit r);
    Printf.printf "flushes     %d (%.2f/op)\n" r.flushes
      (Workloads.Runner.flushes_per_op r);
    Printf.printf "L1D misses  %.2f%%\n" (100.0 *. r.miss_ratio);
    Printf.printf "live words  %d (high water %d)\n" r.live_words
      r.high_water_words;
    Gate.write (Gate.create ()) json_out ~command:"run"
      ~config:
        [
          ("workload", Json.String name);
          ("backend", Json.String (Workloads.Backend.kind_name backend));
          ("ops", Json.Int scale);
          ("batch", Json.Int batch);
          ("persist", Json.String (Cli.persist_name persist));
          ("seed", Json.Int seed);
        ]
      (Workloads.Runner.to_json r);
    match (metrics, r.telemetry) with
    | Some format, Some report -> emit_metrics ~out:metrics_out format report
    | _ -> ()
  in
  let doc = "Run one Table 2 workload on one backend." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ workload_arg $ backend_arg $ scale_arg $ batch_arg
      $ metrics_arg $ metrics_out_arg $ Cli.persist_arg $ Cli.seed_arg ()
      $ Cli.json_arg)

(* -- crashtest ---------------------------------------------------------- *)

(* One swept workload, reduced to what the shared sweep report needs. *)
type swept = {
  name : string;
  negative : bool;
  ok : bool;
  points : int;
  wall : float;
  failures : int;
  shown : (string * string) list;
      (* the first failures: (description, replay command) *)
  counters : (string * int) list;  (* summed across workloads *)
  fields : (string * Json.t) list;  (* extra per-workload JSON *)
}

let first_failures fs =
  List.filteri (fun i _ -> i < 5) fs
  |> List.map (fun f ->
         ( Format.asprintf "%a" Crashtest.Explorer.pp_failure f,
           Crashtest.Replay.command f ))

(* The report shared by the sequential and --writers sweeps.  Each
   workload is judged as soon as it is swept: a negative control must
   be caught (its first replay command is printed), a positive workload
   must sweep clean (its first failures are printed with replay
   commands).  Returns the aggregate points/s, the positive-workload
   violation count, the summed counters and the JSON data. *)
let report_sweeps gate ~section names sweep =
  let results =
    List.map
      (fun name ->
        let s = sweep name in
        (if s.negative then begin
           Gate.require gate ~section ~metric:(name ^ ".caught") (not s.ok)
             (name ^ ": negative control missed, expected an oracle \
                      violation");
           match s.shown with
           | (_, cmd) :: _ ->
               Format.printf
                 "  negative control caught as expected; replay with:@.    \
                  %s@."
                 cmd
           | [] -> ()
         end
         else begin
           Gate.require gate ~section ~metric:(name ^ ".ok") s.ok
             (Printf.sprintf "%s: %d failure(s)" name s.failures);
           List.iter
             (fun (d, cmd) -> Format.printf "  %s@.    replay: %s@." d cmd)
             s.shown
         end);
        s)
      names
  in
  let total f = List.fold_left (fun a s -> a + f s) 0 results in
  let points = total (fun s -> s.points) in
  let wall = List.fold_left (fun a s -> a +. s.wall) 0.0 results in
  let points_per_sec =
    if wall <= 0.0 then 0.0 else float_of_int points /. wall
  in
  let positive_violations =
    total (fun s -> if s.negative then 0 else s.failures)
  in
  let counters =
    match results with
    | [] -> []
    | s :: _ ->
        List.map
          (fun (k, _) -> (k, total (fun s -> List.assoc k s.counters)))
          s.counters
  in
  let ints = List.map (fun (k, v) -> (k, Json.Int v)) in
  let data =
    Json.Obj
      ([
         ("wall_seconds", Json.Float wall);
         ("points_tested", Json.Int points);
         ("points_per_sec", Json.Float points_per_sec);
         ("positive_violations", Json.Int positive_violations);
       ]
      @ ints counters
      @ [
          ( "workloads",
            Json.List
              (List.map
                 (fun s ->
                   Json.Obj
                     ([
                        ("workload", Json.String s.name);
                        ("negative", Json.Bool s.negative);
                        ("points_tested", Json.Int s.points);
                        ("wall_seconds", Json.Float s.wall);
                        ("failures", Json.Int s.failures);
                        ("ok", Json.Bool s.ok);
                      ]
                     @ s.fields @ ints s.counters))
                 results) );
        ])
  in
  (points_per_sec, positive_violations, counters, data)

(* Bad crashtest arguments (an unknown mode, schedule, workload or an
   unsupported flag combination) are usage errors: print the message
   and exit 2. *)
let usage_error msg =
  prerr_endline msg;
  exit 2

let ok_or_usage = function Ok v -> v | Error e -> usage_error e

let build_or_usage build name =
  try build name with Invalid_argument msg -> usage_error msg

(* --replay: re-run one crash point of a sequential or concurrent
   subject and print its verdict; with --shrink, a failing replay also
   prints the smallest operation count that still fails.  A fault sample
   ([fault] = its kind) also says whether recovery absorbed the fault or
   degraded with a typed error.  Exits 1 on a violation. *)
let replay_point ~cfg subject ~crash_index ~mode ~sseed ?fault ~shrink () =
  let label, run, consistent =
    match subject with
    | Crashtest.Explorer.Seq w ->
        (w.Crashtest.Workload.name, "workload", " with a FASE-boundary prefix")
    | Crashtest.Explorer.Conc (cw, s) ->
        ( Printf.sprintf "%s (%d writers, schedule %s)"
            cw.Crashtest.Workload.cname cw.cwriters
            (Crashtest.Interleave.schedule_name s),
          "interleaving",
          "" )
  in
  let at =
    Printf.sprintf "replay %s @ event %d (mode %s%s)" label crash_index
      (Crashtest.Explorer.mode_name mode)
      (match fault with
      | Some k -> Printf.sprintf ", fault kind %d" k
      | None -> "")
  in
  let verdict =
    match (fault, sseed) with
    | Some k, Some seed -> (
        match
          Crashtest.Replay.replay_fault ~cfg subject ~crash_index ~k ~seed
        with
        | None -> None
        | Some Crashtest.Explorer.Recovered ->
            Some (Ok ", recovery absorbed the fault")
        | Some (Crashtest.Explorer.Degraded te) ->
            Some
              (Ok
                 (", degraded with a typed error: "
                 ^ Mod_core.Error.to_string te))
        | Some (Crashtest.Explorer.Broken d) -> Some (Error d))
    | _ -> (
        match
          Crashtest.Replay.replay ~cfg subject ~crash_index ~mode ?seed:sseed ()
        with
        | None -> None
        | Some Crashtest.Oracle.Consistent -> Some (Ok consistent)
        | Some (Crashtest.Oracle.Violation d) -> Some (Error d))
  in
  match verdict with
  | None ->
      Printf.printf "crash index %d is beyond the %s's last PM event\n"
        crash_index run
  | Some (Ok how) -> Printf.printf "%s: consistent%s\n" at how
  | Some (Error d) ->
      Printf.printf "%s: VIOLATION\n  %s\n" at d;
      if shrink then begin
        let f =
          Crashtest.Explorer.failure subject ~crash_index ~mode
            ~survival_seed:sseed ?fault d
        in
        Printf.printf "  minimal repro: %s\n"
          (Crashtest.Replay.command (Crashtest.Replay.minimize ~cfg f))
      end;
      exit 1

(* --shards N: the names of the N shard targets, which crashtest and
   killtest sweep in place of --workload. *)
let shard_targets = function
  | None -> None
  | Some n when n < 1 -> usage_error "--shards must be >= 1"
  | Some n -> Some (Crashtest.Workload.shard_names n)

let crashtest_cmd =
  let run action workload ops stride samples seed max_points quick replay mode
      sseed shrink jobs faults json_out baseline persist writers schedule shards
      =
    let gate = Gate.create ?baseline () in
    (match action with
    | None | Some "sweep" -> ()
    | Some other ->
        usage_error (Printf.sprintf "unknown action %S (only: sweep)" other));
    let shard_names = shard_targets shards in
    if shard_names <> None then begin
      if writers > 0 then usage_error "--writers is not supported with --shards";
      if persist <> None then usage_error "--persist is not supported with --shards"
    end;
    let ops = if quick then min ops 8 else ops in
    let samples = if quick then min samples 2 else samples in
    let cfg =
      {
        Crashtest.Explorer.default with
        stride;
        randomize_samples = samples;
        seed;
        max_points;
        jobs;
        faults;
        log = prerr_endline;
      }
    in
    let write =
      Gate.write gate json_out ~command:"crashtest"
        ~config:
          [
            ("workload", Json.String workload);
            ("shards", Json.Int (Option.value shards ~default:0));
            ("ops", Json.Int ops);
            ("stride", Json.Int stride);
            ("samples", Json.Int samples);
            ("seed", Json.Int seed);
            ("jobs", Json.Int jobs);
            ("faults", Json.Bool faults);
            ("persist", Json.String (Cli.persist_name persist));
            ("writers", Json.Int writers);
          ]
    in
    if writers > 0 then begin
      if persist <> None then
        usage_error
          "--persist is not supported with --writers (Backup commits are \
           serialized by log-append order, not a root CAS)";
      if faults then usage_error "--faults is not supported with --writers yet"
    end;
    let build =
      build_or_usage (fun name -> Crashtest.Workload.build ?persist name ~ops)
    in
    let cbuild =
      build_or_usage (fun name -> Crashtest.Workload.cbuild name ~writers ~ops)
    in
    match replay with
    | Some crash_index ->
        (* deterministic single-point replay of a reported failure *)
        let mode = ok_or_usage (Crashtest.Explorer.mode_of_name mode) in
        let subject name =
          if writers = 0 then Crashtest.Explorer.Seq (build name)
          else
            Crashtest.Explorer.Conc
              ( cbuild name,
                ok_or_usage (Crashtest.Interleave.schedule_of_name schedule) )
        in
        let subjects =
          List.map subject (Option.value shard_names ~default:[ workload ])
        in
        (* a --faults sample: its kind is the one whose fault seed at
           this --seed and crash index is the --survival-seed *)
        let fault =
          if not faults then None
          else
            match (mode, sseed) with
            | Pmem.Region.Randomize, Some s -> (
                match Crashtest.Explorer.fault_kind cfg ~crash_index s with
                | Some k -> Some k
                | None ->
                    usage_error
                      (Printf.sprintf
                         "--survival-seed %d is no fault sample of --seed %d \
                          at event %d"
                         s seed crash_index))
            | _ ->
                usage_error
                  "--faults --replay replays a fault sample: give --mode \
                   randomize and its --survival-seed"
        in
        List.iter
          (fun subject ->
            replay_point ~cfg subject ~crash_index ~mode ~sseed ?fault ~shrink
              ())
          subjects
    | None when writers > 0 ->
        (* [writers] interleaved writers per workload, every (schedule,
           crash point) pair judged by the oracle *)
        let names =
          match workload with
          | "all" | "mod" -> Crashtest.Workload.concurrent_names
          | n -> [ n ]
        in
        let sweep name =
          let cw = cbuild name in
          let r = Crashtest.Explorer.explore_concurrent ~cfg cw in
          Format.printf "%a@." Crashtest.Explorer.pp_cresult r;
          {
            name;
            negative = cw.Crashtest.Workload.cnegative;
            ok = Crashtest.Explorer.cok r;
            points = r.cr_points_tested;
            wall = r.cr_wall_seconds;
            failures = List.length r.cr_failures;
            shown = first_failures r.cr_failures;
            counters = [];
            fields =
              [
                ("writers", Json.Int r.cr_writers);
                ("ops", Json.Int r.cr_ops);
                ("schedules", Json.Int r.cr_schedules);
                ("total_events", Json.Int r.cr_total_events);
                ("crashes_sampled", Json.Int r.cr_crashes_sampled);
              ];
          }
        in
        let section = "crashtest-concurrent" in
        let _, positive_violations, _, data =
          report_sweeps gate ~section names sweep
        in
        Gate.bound gate ~section ~metric:"positive_violations"
          (float_of_int positive_violations);
        write data;
        Gate.finish gate
    | None ->
        let names =
          match (shard_names, workload) with
          | Some names, _ -> names
          (* Under --faults or --persist backup, "all"/"mod" restrict to
             the seven basic structures: the STM's count-then-entries log
             protocol is not torn-write-safe by design, and only the
             basic structures (plus "batched") support the Backup
             policy. *)
          | None, ("all" | "mod") when faults || persist <> None ->
              Crashtest.Workload.basic_names
          | None, "all" -> Crashtest.Workload.names
          | None, "mod" -> Crashtest.Workload.mod_names
          | None, n -> [ n ]
        in
        let sweep name =
          let w = build name in
          let r = Crashtest.Explorer.explore ~cfg w in
          Format.printf "%a@." Crashtest.Explorer.pp_result r;
          {
            name;
            negative = w.Crashtest.Workload.negative;
            ok = Crashtest.Explorer.ok r;
            points = r.points_tested;
            wall = r.wall_seconds;
            failures = List.length r.failures;
            shown = first_failures r.failures;
            counters =
              [
                ("fault_samples", r.fault_samples);
                ("fault_recovered", r.fault_recovered);
                ("fault_degraded", r.fault_degraded);
                ("fault_fallbacks", r.fault_fallbacks);
                ("fault_scans", r.fault_scans);
              ];
            fields =
              [
                ("ops", Json.Int r.ops);
                ("total_events", Json.Int r.total_events);
                ("points_skipped", Json.Int r.points_skipped);
                ("crashes_sampled", Json.Int r.crashes_sampled);
                ( "points_per_sec",
                  Json.Float (Crashtest.Explorer.points_per_sec r) );
                ("shards_resequenced", Json.Int r.shards_resequenced);
              ];
          }
        in
        let points_per_sec, _, counters, data =
          report_sweeps gate ~section:"crashtest" names sweep
        in
        if faults then
          Printf.printf
            "fault sweep: %d samples, %d recovered, %d degraded (typed), %d \
             root fallbacks, %d summary fallbacks\n"
            (List.assoc "fault_samples" counters)
            (List.assoc "fault_recovered" counters)
            (List.assoc "fault_degraded" counters)
            (List.assoc "fault_fallbacks" counters)
            (List.assoc "fault_scans" counters);
        Gate.bound gate ~section:"crashtest" ~metric:"points_per_sec"
          points_per_sec;
        write data;
        Gate.finish gate
  in
  let workload =
    Arg.(
      value & opt string "all"
      & info [ "workload"; "w" ]
          ~doc:
            (Printf.sprintf
               "Workload to explore: all, mod (every MOD-shadowed workload, \
                including the batched and composition sweeps), one of %s, \
                or a shard target shard<i>of<n>."
               (String.concat ", " Crashtest.Workload.names)))
  in
  let ops =
    Arg.(
      value & opt int 40
      & info [ "ops" ]
          ~doc:
            "Operations per workload script; with $(b,--shards), requests \
             in the script the shard targets share.")
  in
  let stride =
    Arg.(
      value & opt int 1
      & info [ "stride" ] ~doc:"Test every STRIDE-th crash point.")
  in
  let samples =
    Arg.(
      value & opt int 3
      & info [ "samples" ]
          ~doc:"Randomize-mode survival samples per crash point.")
  in
  let max_points =
    Arg.(
      value & opt (some int) None
      & info [ "max-points" ] ~doc:"Cap on tested crash points.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Bounded smoke sweep (at most 8 ops, 2 samples) for CI.")
  in
  let replay =
    Arg.(
      value & opt (some int) None
      & info [ "replay" ]
          ~doc:"Replay one crash point: power fails after this PM event.")
  in
  let mode =
    Arg.(
      value & opt string "randomize"
      & info [ "mode" ] ~doc:"Crash mode for --replay: drop|keep|randomize.")
  in
  let sseed =
    Arg.(
      value & opt (some int) None
      & info [ "survival-seed" ]
          ~doc:"Line-survival seed for --replay in randomize mode.")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"After a failing --replay, print the minimal repro command.")
  in
  let action =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"ACTION"
          ~doc:"Optional action; only $(b,sweep) (the default).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:
            "Worker processes for the sweep (forked); 1 = sequential (the \
             default), 0 = one per core.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "At each sampled crash point, additionally inject torn-line \
             crashes and armed media faults, and assert recovery either \
             succeeds or fails with a typed error (never silent \
             corruption).  With workload all/mod, restricts the sweep to \
             the seven basic structures.  With $(b,--replay), replays the \
             fault sample of $(b,--seed) whose seed is $(b,--survival-seed).")
  in
  let schedule =
    Arg.(
      value & opt string "rr1"
      & info [ "schedule" ]
          ~doc:
            "Interleaving schedule for a concurrent --replay: rrN \
             (round-robin, quantum N) or seededN (seeded random walk).")
  in
  let doc =
    "Exhaustively explore the crash-state space of a workload: inject a \
     power failure after every PM event, recover, and check the recovered \
     state against the durable-linearizability oracle (plus the Section \
     5.4 trace invariants).  Negative controls (stm-broken, map-nofence) \
     are expected to violate the oracle.  With --writers N, sweep N \
     interleaved concurrent writers instead, across a panel of \
     deterministic schedules.  With --shards N, sweep each shard of an \
     N-shard serving set as the workload shard<i>of<N>: the shard \
     recovers alone and every sibling still equals its model."
  in
  Cmd.v (Cmd.info "crashtest" ~doc)
    Term.(
      const run $ action $ workload $ ops $ stride $ samples
      $ Cli.seed_arg () $ max_points $ quick $ replay $ mode $ sseed $ shrink
      $ jobs $ faults $ Cli.json_arg $ Cli.baseline_arg
      $ Cli.persist_arg $ Cli.writers_arg $ schedule $ Cli.shards_arg)

(* -- check ------------------------------------------------------------- *)

let check_cmd =
  let run name backend scale =
    check_workload name;
    let trace = Workloads.Runner.run_traced name backend ~scale in
    let report = Mod_core.Consistency.check trace in
    Format.printf "%a@." Mod_core.Consistency.pp_report report;
    if not (Mod_core.Consistency.ok report) then exit 1
  in
  let doc =
    "Trace a workload and verify the Section 5.4 invariants (MOD passes; \
     PMDK backends fail invariant 1 by design)."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ workload_arg $ backend_arg $ scale_arg)

(* -- stats --------------------------------------------------------------- *)

(* Check a --metrics json payload: schema tag, per-row histogram
   consistency, and the acceptance-criterion identity -- the per-op
   fence-stall sum plus the unattributed remainder must equal the global
   Pmem.Stats stall counter. *)
let validate_metrics path =
  let open Workloads.Report.Json in
  let doc =
    try of_file path with
    | Sys_error e ->
        Printf.eprintf "%s unreadable: %s\n" path e;
        exit 2
    | Parse_error e ->
        Printf.eprintf "%s: bad JSON: %s\n" path e;
        exit 2
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "INVALID %s: %s\n" path msg;
        exit 1)
      fmt
  in
  let get what o key = match member key o with
    | Some v -> v
    | None -> fail "%s has no %S" what key
  in
  let num what o key =
    match to_number_opt (get what o key) with
    | Some v -> v
    | None -> fail "%s.%s is not a number" what key
  in
  (match Option.bind (member "schema" doc) to_string_opt with
  | Some "modpm-telemetry-v1" -> ()
  | Some other -> fail "schema is %S, want modpm-telemetry-v1" other
  | None -> fail "no schema tag");
  let totals = get "document" doc "totals" in
  let total_stall = num "totals" totals "fence_stall_ns" in
  let attributed = num "totals" totals "attributed_fence_stall_ns" in
  let unattributed = num "totals" totals "unattributed_fence_stall_ns" in
  let rows =
    match to_list_opt (get "document" doc "rows") with
    | Some l -> l
    | None -> fail "rows is not a list"
  in
  let row_sum = ref 0.0 in
  List.iteri
    (fun i row ->
      let what = Printf.sprintf "rows[%d]" i in
      row_sum := !row_sum +. num what row "fence_stall_ns";
      let lat = get what row "latency" in
      ignore (num what lat "p50_ns");
      ignore (num what lat "p99_ns");
      let count = int_of_float (num what lat "count") in
      let buckets =
        match to_list_opt (get what lat "buckets") with
        | Some l -> l
        | None -> fail "%s.latency.buckets is not a list" what
      in
      let bucket_sum =
        List.fold_left
          (fun acc b -> acc + int_of_float (num what b "count"))
          0 buckets
      in
      if bucket_sum <> count then
        fail "%s: bucket counts sum to %d, latency.count is %d" what bucket_sum
          count)
    rows;
  let tol = 1e-3 +. (1e-9 *. Float.abs total_stall) in
  if Float.abs (attributed +. unattributed -. total_stall) > tol then
    fail "attributed %.3f + unattributed %.3f != total stall %.3f" attributed
      unattributed total_stall;
  if Float.abs (!row_sum -. attributed) > tol then
    fail "per-row stall sum %.3f != attributed total %.3f" !row_sum attributed;
  Printf.printf
    "%s: valid (%d rows; attribution sums to the global stall counter: \
     %.1f + %.1f = %.1f ns)\n"
    path (List.length rows) attributed unattributed total_stall

(* A small all-structures demo so `modpm stats` shows live telemetry
   without any arguments: a few hundred ops across the seven structures,
   batched and unbatched, on one heap. *)
let stats_demo () =
  let module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int) in
  let module Iset = Mod_core.Dset.Make (Pfds.Kv.Int) in
  let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 20) () in
  let c = Pmalloc.Heap.attach_telemetry ~sink:Telemetry.Sink.Memory heap in
  let n = 200 in
  let m = Imap.open_or_create heap ~slot:0 in
  for i = 1 to n do
    Imap.insert m i (i * i)
  done;
  Imap.insert_many m (List.init 32 (fun i -> (n + i, i)));
  for i = 1 to n / 2 do
    ignore (Imap.find m i)
  done;
  let s = Iset.open_or_create heap ~slot:1 in
  for i = 1 to n do
    Iset.add s (i mod 64)
  done;
  let v = Mod_core.Dvec.open_or_create heap ~slot:2 in
  for i = 1 to n do
    Mod_core.Dvec.push_back v (Pmem.Word.of_int i)
  done;
  Mod_core.Dvec.push_back_many v
    (List.init 32 (fun i -> Pmem.Word.of_int i));
  let st = Mod_core.Dstack.open_or_create heap ~slot:3 in
  for i = 1 to n do
    Mod_core.Dstack.push st (Pmem.Word.of_int i)
  done;
  for _ = 1 to n / 2 do
    ignore (Mod_core.Dstack.pop st)
  done;
  let q = Mod_core.Dqueue.open_or_create heap ~slot:4 in
  for i = 1 to n do
    Mod_core.Dqueue.enqueue q (Pmem.Word.of_int i)
  done;
  for _ = 1 to n / 2 do
    ignore (Mod_core.Dqueue.dequeue q)
  done;
  let pq = Mod_core.Dpqueue.open_or_create heap ~slot:5 in
  for i = 1 to n do
    Mod_core.Dpqueue.insert pq (n - i)
  done;
  Mod_core.Dpqueue.insert_many pq (List.init 32 (fun i -> i));
  for _ = 1 to n / 2 do
    ignore (Mod_core.Dpqueue.delete_min pq)
  done;
  let sq = Mod_core.Dseq.open_or_create heap ~slot:6 in
  for i = 1 to n do
    Mod_core.Dseq.push_back sq (Pmem.Word.of_int i)
  done;
  Mod_core.Dseq.push_back_many sq (List.init 32 (fun i -> Pmem.Word.of_int i));
  Telemetry.report c

let stats_cmd =
  let run validate format out =
    match validate with
    | Some path -> validate_metrics path
    | None -> emit_metrics ~out format (stats_demo ())
  in
  let validate =
    Arg.(
      value
      & opt (some string) None
      & info [ "validate" ] ~docv:"FILE"
          ~doc:
            "Validate a $(b,--metrics json) payload: JSON parses, histograms \
             are self-consistent, and fence-stall attribution sums back to \
             the global counter.  Exits non-zero otherwise.")
  in
  let format =
    Arg.(
      value & opt string "text"
      & info [ "format"; "f" ] ~docv:"FORMAT"
          ~doc:"Output format for the demo report: json, prom or text.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the report to $(docv).")
  in
  let doc =
    "Telemetry utilities: with no arguments, run a small all-structures demo \
     and print its per-(structure x op) latency histograms and fence-stall \
     attribution; with $(b,--validate), check an exported JSON payload."
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ validate $ format $ out)

(* -- serve / killtest / fsck --------------------------------------------- *)

let kill9_workloads arg =
  let names =
    match arg with
    | "all" | "basic" -> Crashtest.Kill9.names
    | n -> [ n ]
  in
  List.iter
    (fun n ->
      if not (List.mem n Crashtest.Kill9.names || Crashtest.Workload.is_shard n)
      then begin
        Printf.eprintf
          "unknown kill9 workload %S; expected all, one of %s, or a shard \
           target shard<i>of<n>\n"
          n
          (String.concat ", " Crashtest.Kill9.names);
        exit 2
      end)
    names;
  names

(* serve --shards N: the sharded serving layer under a zipfian
   memcached-style loop.  Reports per-shard throughput and latency
   percentiles; --json additionally writes the aggregate summary plus
   one modpm-telemetry-v1 document per shard (validate each with
   `modpm stats --validate`). *)
let serve_sharded ~nshards ~file ~requests ~keyspace ~theta ~seed ~persist
    ~inline ~capacity ~json_out =
  if nshards < 1 then begin
    Printf.eprintf "--shards must be >= 1\n";
    exit 2
  end;
  let mode = if inline then Shard.Inline else Shard.Domains in
  let t =
    Shard.create ~mode ~capacity_words:capacity ~seed ?persist ?file ~nshards
      ()
  in
  let warmup = min (max (requests / 10) 100) 2000 in
  let r = Shard.run_load ~theta ~seed ~warmup ~keyspace t ~requests () in
  Printf.printf "shards      %d (%s mode)\n" nshards (Shard.mode_name mode);
  Printf.printf "requests    %d (zipfian theta=%.2f over %d keys, warmup %d)\n"
    requests theta keyspace warmup;
  Printf.printf "wall        %.3f s (%.0f req/s)\n" r.Shard.lr_wall_s
    r.Shard.lr_wall_req_s;
  Printf.printf "sim clock   makespan %.3f ms, serial-equivalent %.3f ms \
                 (%.0f req/sim-s)\n"
    (r.Shard.lr_sim_makespan_ns /. 1e6)
    (r.Shard.lr_sim_total_ns /. 1e6)
    r.Shard.lr_sim_req_s;
  Printf.printf "  shard  routed  executed  stolen   sim ms    p50 ns   p99 ns\n";
  List.iter
    (fun m ->
      Printf.printf "  %5d  %6d  %8d  %6d  %7.3f  %8.0f %8.0f\n"
        m.Shard.m_id m.Shard.m_routed m.Shard.m_executed m.Shard.m_stolen
        (m.Shard.m_sim_ns /. 1e6) m.Shard.m_p50_ns m.Shard.m_p99_ns)
    r.Shard.lr_shards;
  Gate.write (Gate.create ()) json_out ~command:"serve"
    ~config:
      [
        ("nshards", Json.Int nshards);
        ("mode", Json.String (Shard.mode_name mode));
        ("requests", Json.Int requests);
        ("theta", Json.Float theta);
        ("keyspace", Json.Int keyspace);
        ("seed", Json.Int seed);
        ("persist", Json.String (Cli.persist_name persist));
      ]
    (Json.Obj
       [
         ("wall_req_s", Json.Float r.Shard.lr_wall_req_s);
         ("sim_req_s", Json.Float r.Shard.lr_sim_req_s);
         ("sim_makespan_ns", Json.Float r.Shard.lr_sim_makespan_ns);
         ("sim_total_ns", Json.Float r.Shard.lr_sim_total_ns);
         ( "shards",
           Json.List
             (List.map
                (fun m ->
                  Json.Obj
                    [
                      ("id", Json.Int m.Shard.m_id);
                      ("routed", Json.Int m.Shard.m_routed);
                      ("executed", Json.Int m.Shard.m_executed);
                      ("stolen", Json.Int m.Shard.m_stolen);
                      ("sim_ns", Json.Float m.Shard.m_sim_ns);
                      ("fences", Json.Int m.Shard.m_fences);
                      ("p50_ns", Json.Float m.Shard.m_p50_ns);
                      ("p99_ns", Json.Float m.Shard.m_p99_ns);
                    ])
                r.Shard.lr_shards) );
       ]);
  (* one telemetry-v1 document per shard, for stats --validate *)
  Option.iter
    (fun path ->
      let base = Filename.remove_extension path in
      List.iter
        (fun m ->
          let p = Printf.sprintf "%s.shard%d.json" base m.Shard.m_id in
          let oc = open_out p in
          output_string oc (Telemetry.Export.to_json m.Shard.m_report);
          output_char oc '\n';
          close_out oc;
          Printf.printf "wrote %s\n" p)
        r.Shard.lr_shards)
    json_out;
  Shard.close t

let serve_cmd =
  let run file workload ops capacity kill_commit kill_phase persist shards
      requests keyspace theta inline seed json_out =
    match shards with
    | Some nshards ->
        serve_sharded ~nshards ~file ~requests ~keyspace ~theta ~seed ~persist
          ~inline ~capacity:(max capacity (1 lsl 21)) ~json_out
    | None ->
        let file =
          match file with
          | Some f -> f
          | None ->
              Printf.eprintf
                "serve without --shards is the kill-test worker and requires \
                 --file IMAGE\n";
              exit 2
        in
        ignore (kill9_workloads workload : string list);
        let kill =
          match (kill_commit, kill_phase) with
          | None, _ -> None
          | Some commit, phase -> (
              match Pmem.Backing.phase_of_name phase with
              | Ok phase -> Some (Crashtest.Kill9.At_sync { commit; phase })
              | Error e ->
                  Printf.eprintf "--kill-phase: %s\n" e;
                  exit 2)
        in
        Crashtest.Kill9.serve ~capacity_words:capacity ?kill ?persist
          ~path:file ~workload ~ops ~ack_fd:Unix.stdout ()
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file"; "f" ] ~docv:"IMAGE"
          ~doc:
            "Heap image file to create and run against (required without \
             $(b,--shards); with $(b,--shards N), optional base path -- \
             shard $(i,i) is file-backed at $(docv).$(i,i)).")
  in
  let workload =
    Arg.(
      value & opt string "map"
      & info [ "workload"; "w" ]
          ~doc:"Deterministic workload script to apply (worker mode).")
  in
  let ops =
    Arg.(value & opt int 60 & info [ "ops" ] ~doc:"Operations (worker mode).")
  in
  let capacity =
    Arg.(
      value
      & opt int (1 lsl 16)
      & info [ "capacity-words" ] ~doc:"Initial heap capacity in words.")
  in
  let kill_commit =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-commit" ] ~docv:"N"
          ~doc:
            "Self-SIGKILL inside the $(docv)-th file writeback batch; batch \
             1 formats the image.")
  in
  let kill_phase =
    Arg.(
      value & opt string "commit"
      & info [ "kill-phase" ]
          ~doc:
            "Writeback phase for $(b,--kill-commit): journal (before the \
             commit marker), commit (marker durable, not applied), apply \
             (half-applied) or applied (before the journal truncate).")
  in
  let requests =
    Arg.(
      value & opt int 20_000
      & info [ "requests" ] ~docv:"N"
          ~doc:"Measured requests for the sharded loop ($(b,--shards)).")
  in
  let keyspace =
    Arg.(
      value & opt int 10_000
      & info [ "keyspace" ] ~docv:"K"
          ~doc:"Distinct keys the zipfian loop draws from ($(b,--shards)).")
  in
  let theta =
    Arg.(
      value & opt float 0.99
      & info [ "theta" ]
          ~doc:"Zipfian skew in [0,1); 0 = uniform ($(b,--shards)).")
  in
  let inline =
    Arg.(
      value & flag
      & info [ "inline" ]
          ~doc:
            "Run the sharded loop on one domain (deterministic sim clocks) \
             instead of one worker domain per shard.")
  in
  let doc =
    "With $(b,--shards N): serve a zipfian memcached-style loop across N \
     shards, each owning its own heap, telemetry collector and (unless \
     $(b,--inline)) its own domain, with per-shard work queues and work \
     stealing; report per-shard throughput and p50/p99.  Without \
     $(b,--shards): the kill-test worker -- apply a deterministic workload \
     to a fresh file-backed heap, acking each durable operation on stdout \
     (meant to be forked and SIGKILLed by $(b,modpm killtest))."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ file $ workload $ ops $ capacity $ kill_commit $ kill_phase
      $ Cli.persist_arg $ Cli.shards_arg $ requests $ keyspace $ theta
      $ inline $ Cli.seed_arg ~default:42 () $ Cli.json_arg)

let killtest_cmd =
  let run workload kills ops dir keep json_out baseline persist shards =
    let gate = Gate.create ?baseline () in
    let names =
      match shard_targets shards with
      | Some names -> names
      | None -> kill9_workloads workload
    in
    let names =
      (* siblings needs multi-slot commit points and the shard targets
         are Full only, so the Backup policy rejects both; drop them from
         the sweep under --persist backup *)
      if persist = None then names
      else
        List.filter
          (fun n -> List.mem n Crashtest.Workload.backup_names)
          names
    in
    (if names = [] then begin
       Printf.eprintf
         "no selected kill9 workload supports --persist backup (expected %s)\n"
         (String.concat ", " Crashtest.Workload.backup_names);
       exit 2
     end);
    let dir =
      match dir with Some d -> d | None -> Filename.get_temp_dir_name ()
    in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let per = max 1 (kills / List.length names) in
    let swept = ref [] in
    let sweep name =
      let r =
        Crashtest.Kill9.run ~dir ~ops ~keep ~log:prerr_endline ?persist
          ~workload:name ~kills:per ()
      in
      Format.printf "%a@." Crashtest.Kill9.pp_result r;
      swept := r :: !swept;
      let failures = Crashtest.Kill9.failures r in
      {
        name;
        negative = false;
        ok = Crashtest.Kill9.ok r;
        points = List.length r.trials - 1;
        wall = r.wall_seconds;
        failures = List.length failures;
        shown = List.filteri (fun i _ -> i < 5) failures;
        counters = Crashtest.Kill9.counters r;
        fields =
          [
            ("ops", Json.Int r.ops);
            ("points_total", Json.Int r.points);
            ("stride", Json.Int r.stride);
            ( "max_reopen_ms",
              Json.Float (Crashtest.Kill9.max_reopen_ns r /. 1e6) );
          ];
      }
    in
    let section = "killtest" in
    let _, _, counters, data = report_sweeps gate ~section names sweep in
    let total f = List.fold_left (fun a r -> a + f r) 0 !swept in
    let max_reopen_ms =
      List.fold_left
        (fun a r -> Float.max a (Crashtest.Kill9.max_reopen_ns r /. 1e6))
        0.0 !swept
    in
    let n k = List.assoc k counters in
    Printf.printf
      "\nkill9 total: tested %d of %d points across %d workloads, %d \
       violations, %d escaped, %d unkilled; worst reopen %.2fms\n"
      (total (fun r -> List.length r.trials - 1))
      (total (fun r -> r.points))
      (List.length names) (n "violations") (n "escaped") (n "unkilled")
      max_reopen_ms;
    Gate.bound gate ~section ~metric:"max_reopen_ms" max_reopen_ms;
    Gate.write gate json_out ~command:"killtest"
      ~config:
        [
          ("workload", Json.String workload);
          ("shards", Json.Int (Option.value shards ~default:0));
          ("kills", Json.Int kills);
          ("ops", Json.Int ops);
          ("persist", Json.String (Cli.persist_name persist));
        ]
      data;
    Gate.finish gate
  in
  let workload =
    Arg.(
      value & opt string "all"
      & info [ "workload"; "w" ]
          ~doc:
            (Printf.sprintf
               "Workload to kill: all (sweep), one of %s, or a shard \
                target shard<i>of<n>."
               (String.concat ", " Crashtest.Kill9.names)))
  in
  let kills =
    Arg.(
      value & opt int 60
      & info [ "kills" ]
          ~doc:
            "Kill points to test, split evenly across the chosen workloads: \
             each tests its calibration run's points at the smallest even \
             stride that keeps within its share.")
  in
  let ops =
    Arg.(value & opt int 60 & info [ "ops" ] ~doc:"Operations per trial.")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Directory for image files (default: system temp).")
  in
  let keep =
    Arg.(
      value & flag
      & info [ "keep" ] ~doc:"Keep post-mortem images instead of deleting.")
  in
  let doc =
    "Real kill-9 durability test: fork a worker applying a deterministic \
     workload to a file-backed heap and have it SIGKILL itself at one kill \
     point -- a phase of one of its file commits, the formatting commit \
     included, or right after one of its acks -- reopen the image in the \
     surviving process, and check the recovered state against the \
     durable-linearizability oracle.  A calibration run lists every point \
     in event order, and the sweep tests them at an even stride, so a run \
     repeats exactly.  Every post-mortem image is also classified by \
     fsck.  With $(b,--shards N), kill each shard target shard<i>of<N> in \
     turn: its heap is the file, its siblings serve from memory.  Exits \
     non-zero on any oracle violation, escaped exception or point that \
     did not kill."
  in
  Cmd.v (Cmd.info "killtest" ~doc)
    Term.(
      const run $ workload $ kills $ ops $ dir $ keep $ Cli.json_arg
      $ Cli.baseline_arg $ Cli.persist_arg $ Cli.shards_arg)

let fsck_cmd =
  let run image repair_flag =
    let report =
      if repair_flag then Pmalloc.Fsck.repair image
      else Pmalloc.Fsck.check image
    in
    Format.printf "%s: %a@." image Pmalloc.Fsck.pp_report report;
    match report.Pmalloc.Fsck.verdict with
    | Pmalloc.Fsck.Clean | Pmalloc.Fsck.Repaired -> ()
    | Pmalloc.Fsck.Degraded -> exit 1
    | Pmalloc.Fsck.Corrupt -> exit 2
  in
  let image =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"IMAGE" ~doc:"Heap image file to check.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Rewrite the image from the surviving root-record copies, \
             quarantining unrecoverable slots, so it always reopens.")
  in
  let doc =
    "Offline heap-image checker: validate the header and whole-image \
     checksum, resolve the sidecar journal, walk every root record and its \
     reachable object graph, and report clean, degraded (single-copy roots \
     or a pending journal) or corrupt.  Exit status: 0 clean/repaired, 1 \
     degraded, 2 corrupt."
  in
  Cmd.v (Cmd.info "fsck" ~doc) Term.(const run $ image $ repair)

(* -- machine ------------------------------------------------------------- *)

let machine_cmd =
  let run () = print_endline (Pmem.Config.describe ()) in
  let doc = "Print the simulated machine configuration (Table 1)." in
  Cmd.v (Cmd.info "machine" ~doc) Term.(const run $ const ())

let () =
  let doc = "MOD: minimally ordered durable datastructures (reproduction)" in
  let info = Cmd.info "modpm" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; crashtest_cmd; check_cmd; stats_cmd;
            serve_cmd; killtest_cmd; fsck_cmd; machine_cmd;
          ]))
