(* Smoke test of the benchmark: every workload at about 1/100 of
   its benchmark size, untraced and traced.  Each run must check out
   (no failed op, no violated ledger identity, the metric table's exact
   names), and a second run with the same seed must repeat every
   simulated and counted metric bit for bit. *)

open Modperf

let small = { Streams.round_ops = 100; sim_rounds = 2; setups = 3 }

let workloads =
  [
    ("map-upsert", Map_bench.upsert small ~keys:500 ~check_keys:50);
    ("map-lookup", Map_bench.lookup { small with round_ops = 500 } ~keys:500 ~check_keys:50);
    ("queue-churn", Queue_bench.churn { small with round_ops = 200 } ~resident:16);
    ( "serve-zipf",
      Serve_bench.zipf { small with round_ops = 50 } ~nshards:2 ~keyspace:1_000 ~warmup:200 );
    ( "crash-sweep",
      Sweep_bench.run
        { Sweep_bench.ops = 8; writers = 2; cops = 2; nofence_ops = 8; setups = 3 } );
  ]

let exact_bits ~traced (o : Measure.outcome) =
  List.filter_map
    (fun (name, v) ->
      List.find_map
        (fun (n, _, clock) ->
          if n = name && clock = Metrics.Exact then Some (name, Int64.bits_of_float v)
          else None)
        (Metrics.table ~traced))
    o.Measure.metrics

let case run ~traced () =
  let go () = run ~seed:7 ~seconds:0.0 ~traced in
  let a = go () in
  Alcotest.(check (list string)) "identities and checks" [] a.Measure.problems;
  Alcotest.(check int) "failed ops" 0 a.Measure.failed;
  Alcotest.(check bool) "ops attempted" true (a.Measure.attempted > 0);
  Alcotest.(check (list string))
    "metric names" (Metrics.names (Metrics.table ~traced))
    (List.map fst a.Measure.metrics);
  List.iter
    (fun (name, v) -> if not (Float.is_finite v) then Alcotest.failf "%s = %g" name v)
    a.Measure.metrics;
  let b = go () in
  Alcotest.(check (list (pair string int64)))
    "exact metrics repeat" (exact_bits ~traced a) (exact_bits ~traced b)

(* The negative control must stay caught: scored as a positive sweep,
   map-nofence's oracle violations become failed samples. *)
let test_nofence_caught () =
  let w = Crashtest.Workload.build "map-nofence" ~ops:8 in
  let as_positive = Sweep_bench.Seq { w with Crashtest.Workload.negative = false } in
  let o = Sweep_bench.round ~seed:7 [ as_positive ] (Sweep_bench.probe ()) in
  Alcotest.(check bool) "violations found" true (o.Sweep_bench.failed > 0);
  let o = Sweep_bench.round ~seed:7 [ Sweep_bench.Seq w ] (Sweep_bench.probe ()) in
  Alcotest.(check int) "caught negative scores no failure" 0 o.Sweep_bench.failed

(* The sim-identity check can fail: PM work between two spans on one
   clock is a leak. *)
let test_ledger_leak () =
  let heap = Pmalloc.Heap.create ~capacity_words:4096 () in
  let st = Pmalloc.Heap.stats heap in
  let l = Measure.Ledger.create () in
  let b = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:8 in
  Measure.Ledger.span l Measure.Fence st (fun () -> Pmalloc.Heap.sfence heap);
  Measure.Ledger.span l Measure.Fence st (fun () -> Pmalloc.Heap.sfence heap);
  Alcotest.(check int) "contiguous spans" 0 l.Measure.Ledger.leaks;
  Pmalloc.Heap.store heap b (Pmem.Word.of_int 1);
  Measure.Ledger.span l Measure.Fence st (fun () -> Pmalloc.Heap.sfence heap);
  Alcotest.(check int) "work between spans" 1 l.Measure.Ledger.leaks

(* BENCHMARK.json names every metric a run prints, with the same unit,
   and no other. *)
let test_benchmark_json () =
  let json = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let count sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length json then acc
      else go (i + 1) (if String.sub json i n = sub then acc + 1 else acc)
    in
    go 0 0
  in
  let table = Metrics.end_to_end @ Metrics.per_layer in
  List.iter
    (fun (name, unit, _) ->
      Alcotest.(check int)
        name 1
        (count (Printf.sprintf "{\"name\": %S, \"unit\": %S" name unit)))
    table;
  Alcotest.(check int) "metric count" (List.length table) (count "\"unit\":")

let test_tail_mean () =
  let xs = Array.init 200 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "slowest 1% of 1..200" 199.5 (Measure.tail_mean 0.01 xs);
  Alcotest.(check (float 0.0)) "median" 100.0 (Measure.percentile 0.5 xs)

let () =
  Alcotest.run "perf"
    [
      ( "workloads",
        List.concat_map
          (fun (name, run) ->
            [
              Alcotest.test_case (name ^ " untraced") `Quick (case run ~traced:false);
              Alcotest.test_case (name ^ " traced") `Quick (case run ~traced:true);
            ])
          workloads );
      ( "checks",
        [
          Alcotest.test_case "map-nofence stays caught" `Quick test_nofence_caught;
          Alcotest.test_case "ledger leak detection" `Quick test_ledger_leak;
          Alcotest.test_case "tail mean" `Quick test_tail_mean;
          Alcotest.test_case "BENCHMARK.json lists the metrics" `Quick test_benchmark_json;
        ] );
    ]
