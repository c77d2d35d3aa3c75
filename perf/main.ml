(* The benchmark executable: one workload, one seed, one process.

     perf/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Prints any self-check failure (with the command that replays it) on
   stderr, and as the last line of stdout one JSON object: {"correct",
   "attempted", "failed", "metrics": {name: {value, unit}}}.  --trace 0
   reports the end-to-end metrics; --trace 1 runs the same workload
   under the layer ledger and reports the per-layer metrics.  Exits 1
   when an output check or a ledger identity fails. *)

open Modperf

(* Workload sizes.  Each untraced run is set-up + [seconds] of rounds +
   the final-image crash/recovery; the deterministic prefix (the
   [sim_rounds] rounds every simulated metric comes from) is sized to
   fit well inside the default 10 s, and holds at least 50,000 ops so
   that at least 500 lie beyond the p99. *)
let upsert_sizes =
  { Streams.round_ops = 500; sim_rounds = 100; setups = 3 }

let lookup_sizes = { upsert_sizes with Streams.round_ops = 5_000; sim_rounds = 100 }

let queue_sizes =
  { Streams.round_ops = 2_000; sim_rounds = 50; setups = 15 }

let serve_sizes = { upsert_sizes with Streams.round_ops = 1_000; sim_rounds = 50 }

let sweep_sizes =
  { Sweep_bench.ops = 64; writers = 2; cops = 8; nofence_ops = 8; setups = 15 }

let workloads =
  [
    ("map-upsert", Map_bench.upsert upsert_sizes ~keys:50_000 ~check_keys:1_000);
    ("map-lookup", Map_bench.lookup lookup_sizes ~keys:50_000 ~check_keys:1_000);
    ("queue-churn", Queue_bench.churn queue_sizes ~resident:64);
    ("serve-zipf", Serve_bench.zipf serve_sizes ~nshards:2 ~keyspace:100_000 ~warmup:20_000);
    ("crash-sweep", Sweep_bench.run sweep_sizes);
  ]

let json_float x = Printf.sprintf "%.17g" x

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let o = run ~seed:!seed ~seconds:!seconds ~traced in
  let table = Metrics.table ~traced in
  let problems =
    o.Measure.problems
    @ (if List.map fst o.Measure.metrics <> Metrics.names table then
         [ "metric names differ from the Metrics table" ]
       else [])
    @ List.filter_map
        (fun (name, v) ->
          if Float.is_finite v then None
          else Some (Printf.sprintf "%s is not finite" name))
        o.Measure.metrics
  in
  let correct = o.Measure.failed = 0 && problems = [] in
  List.iter (fun p -> Printf.eprintf "check failed: %s\n" p) problems;
  if not correct then
    Printf.eprintf
      "%d of %d ops failed; replay: perf/run.sh --workload %s --seed %d \
       --seconds %g --trace %d\n"
      o.Measure.failed o.Measure.attempted !workload !seed !seconds !trace;
  let metrics =
    List.map
      (fun (name, v) ->
        let unit = Option.value ~default:"" (Metrics.unit_of table name) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
      o.Measure.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.Measure.attempted o.Measure.failed (String.concat ", " metrics);
  exit (if correct then 0 else 1)
