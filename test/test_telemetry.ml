(* Tests for the telemetry layer: histogram bucketing and percentiles,
   span attribution (sums to the global fence-stall counter, nested-span
   suppression, null sink, foreign heaps, stats-reset rebase, one row
   per Basic entry point of each structure), and the JSON / Prometheus
   exporters. *)

module H = Telemetry.Histogram

let mk_heap ?(capacity = 1 lsl 18) () =
  Pmalloc.Heap.create ~capacity_words:capacity ()

module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)

let with_collector ?(sink = Telemetry.Sink.Memory) heap f =
  f (Pmalloc.Heap.attach_telemetry ~sink heap)

(* ------------------------------------------------------------------ *)
(* Histogram                                                          *)
(* ------------------------------------------------------------------ *)

let test_hist_bucketing () =
  let h = H.create () in
  List.iter (fun v -> H.add h v) [ 1.0; 2.0; 3.0; 1000.0 ];
  Alcotest.(check int) "count" 4 (H.count h);
  Alcotest.(check (float 1e-9)) "sum" 1006.0 (H.sum h);
  Alcotest.(check (float 1e-9)) "max" 1000.0 (H.max_value h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (H.min_value h);
  let buckets = H.buckets h in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  Alcotest.(check int) "bucket counts sum to count" 4 total;
  (* upper bounds are powers of two, ascending *)
  let rec ascending = function
    | (u1, _) :: ((u2, _) :: _ as rest) ->
        Alcotest.(check bool) "ascending bounds" true (u1 < u2);
        ascending rest
    | _ -> ()
  in
  ascending buckets;
  List.iter
    (fun (u, _) ->
      Alcotest.(check (float 1e-9)) "power-of-two bound" u
        (Float.round (Float.log2 u) |> Float.to_int |> ldexp 1.0))
    buckets

let test_hist_percentiles () =
  let h = H.create () in
  for i = 1 to 1000 do
    H.add h (float_of_int i)
  done;
  let p50 = H.percentile h 0.50 and p99 = H.percentile h 0.99 in
  (* log-bucketed: percentiles land inside the right power-of-two bucket *)
  Alcotest.(check bool) "p50 within (256, 1000]" true (p50 > 256.0 && p50 <= 1000.0);
  Alcotest.(check bool) "p99 within (512, 1000]" true (p99 > 512.0 && p99 <= 1000.0);
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99);
  Alcotest.(check (float 1e-9)) "p100 clamps to max" 1000.0 (H.percentile h 1.0);
  let single = H.create () in
  H.add single 42.0;
  Alcotest.(check (float 1e-9)) "single-sample p50 = the sample" 42.0
    (H.percentile single 0.5);
  Alcotest.(check (float 1e-9)) "empty percentile is 0" 0.0
    (H.percentile (H.create ()) 0.5);
  H.add single (-5.0);
  Alcotest.(check (float 1e-9)) "negatives clamp to 0 bucket" 0.0
    (H.min_value single)

let test_hist_merge () =
  let a = H.create () and b = H.create () in
  List.iter (H.add a) [ 1.0; 10.0 ];
  List.iter (H.add b) [ 100.0; 1000.0 ];
  H.merge ~into:a b;
  Alcotest.(check int) "merged count" 4 (H.count a);
  Alcotest.(check (float 1e-9)) "merged max" 1000.0 (H.max_value a);
  Alcotest.(check (float 1e-9)) "merged min" 1.0 (H.min_value a)

(* ------------------------------------------------------------------ *)
(* Span attribution                                                   *)
(* ------------------------------------------------------------------ *)

let run_map_ops heap n =
  let m = Imap.open_or_create heap ~slot:0 in
  for i = 1 to n do
    Imap.insert m i (i * 2)
  done;
  Imap.insert_many m (List.init n (fun i -> (n + i, i)));
  for i = 1 to n do
    ignore (Imap.find m i)
  done

let test_attribution_sums () =
  let heap = mk_heap () in
  with_collector heap (fun c ->
      run_map_ops heap 64;
      let r = Telemetry.report c in
      Alcotest.(check bool) "has rows" true (r.Telemetry.rows <> []);
      let gap =
        Float.abs
          (r.Telemetry.attributed_fence_stall_ns
          +. r.Telemetry.unattributed_fence_stall_ns
          -. r.Telemetry.total_fence_stall_ns)
      in
      Alcotest.(check bool) "attributed + unattributed = total" true
        (gap <= 1e-6);
      (* every insert goes through a span, so with all work spanned the
         unattributed remainder is exactly zero *)
      Alcotest.(check (float 1e-6)) "all stalls attributed" 0.0
        r.Telemetry.unattributed_fence_stall_ns;
      Alcotest.(check bool) "some stall was recorded" true
        (r.Telemetry.total_fence_stall_ns > 0.0);
      (* the row sum also matches the raw stats counter *)
      let stats = Pmalloc.Heap.stats heap in
      Alcotest.(check (float 1e-6)) "total matches Pmem.Stats.ns_flush"
        stats.Pmem.Stats.ns_flush r.Telemetry.total_fence_stall_ns)

let test_unattributed_remainder () =
  let heap = mk_heap () in
  with_collector heap (fun c ->
      (* stall outside any span: flush a line by hand *)
      let region = Pmalloc.Heap.region heap in
      Pmem.Region.store region 512 (Pmem.Word.of_int 1);
      Pmem.Region.clwb region 512;
      Pmem.Region.sfence region;
      run_map_ops heap 16;
      let r = Telemetry.report c in
      Alcotest.(check bool) "unattributed > 0" true
        (r.Telemetry.unattributed_fence_stall_ns > 0.0);
      let gap =
        Float.abs
          (r.Telemetry.attributed_fence_stall_ns
          +. r.Telemetry.unattributed_fence_stall_ns
          -. r.Telemetry.total_fence_stall_ns)
      in
      Alcotest.(check bool) "identity still holds" true (gap <= 1e-6))

let test_nested_spans () =
  let heap = mk_heap () in
  with_collector heap (fun c ->
      Telemetry.span_on (Some c) ~structure:"outer" ~op:"op" (fun () ->
          Telemetry.span_on (Some c) ~structure:"inner" ~op:"op" (fun () ->
              run_map_ops heap 4));
      let r = Telemetry.report c in
      let names =
        List.map (fun row -> row.Telemetry.r_structure) r.Telemetry.rows
      in
      Alcotest.(check (list string)) "only the outermost span records"
        [ "outer" ] names)

let test_batched_ops_count () =
  let heap = mk_heap () in
  with_collector heap (fun c ->
      let m = Imap.open_or_create heap ~slot:0 in
      Imap.insert_many m (List.init 32 (fun i -> (i, i)));
      let r = Telemetry.report c in
      let row =
        List.find
          (fun row -> row.Telemetry.r_op = "insert_many")
          r.Telemetry.rows
      in
      Alcotest.(check int) "one span" 1 row.Telemetry.r_spans;
      Alcotest.(check int) "32 logical ops" 32 row.Telemetry.r_ops;
      Alcotest.(check bool) "shadow allocations recorded" true
        (row.Telemetry.r_shadow_alloc_words > 0))

let test_null_sink () =
  let heap = mk_heap () in
  with_collector ~sink:Telemetry.Sink.Null heap (fun c ->
      run_map_ops heap 16;
      let r = Telemetry.report c in
      Alcotest.(check bool) "null sink aggregates nothing" true
        (r.Telemetry.rows = []))

(* A Null span runs its body with no closure and no handler record:
   10,000 outermost and 10,000 nested spans allocate less than one word
   in all, so none of them allocates. *)
let test_null_span_allocates_nothing () =
  let c = Some (Telemetry.create ~sink:Telemetry.Sink.Null (Pmem.Stats.create ())) in
  let body () = () in
  let nested () = Telemetry.span_on c ~structure:"s" ~op:"inner" body in
  let spans f =
    for _ = 1 to 10_000 do
      Telemetry.span_on c ~structure:"s" ~op:"outer" f
    done
  in
  List.iter
    (fun (name, f) ->
      spans f;
      let before = Gc.minor_words () in
      spans f;
      let words = Gc.minor_words () -. before in
      if words >= 1.0 then
        Alcotest.failf "10,000 %s Null spans allocated %.0f minor words" name
          words)
    [ ("outermost", body); ("nested", nested) ]

let test_foreign_heap () =
  let watched = mk_heap () and foreign = mk_heap () in
  with_collector watched (fun c ->
      (* all work happens on a heap the collector does not watch *)
      run_map_ops foreign 16;
      let r = Telemetry.report c in
      Alcotest.(check bool) "foreign spans ignored" true
        (r.Telemetry.rows = []);
      Alcotest.(check (float 1e-9)) "no stall charged" 0.0
        r.Telemetry.total_fence_stall_ns)

(* Every Basic entry point of the seven structures, run once on its
   structure's own heap ([*_many] with three elements), records exactly
   one span under that structure's label: set traffic is never charged
   to "dmap". *)
let test_entry_point_rows () =
  let module Iset = Mod_core.Dset.Make (Pfds.Kv.Int) in
  let module St = Mod_core.Dstack in
  let module Q = Mod_core.Dqueue in
  let module Pq = Mod_core.Dpqueue in
  let module V = Mod_core.Dvec in
  let module Sq = Mod_core.Dseq in
  let w = Pmem.Word.of_int in
  let three = [ w 2; w 3; w 4 ] in
  let cases =
    [
      ( "dmap",
        (fun heap ->
          let m = Imap.open_or_create heap ~slot:0 in
          Imap.insert m 1 10;
          Imap.insert_many m [ (2, 20); (3, 30); (4, 40) ];
          ignore (Imap.find m 1 : int option);
          ignore (Imap.mem m 2 : bool);
          ignore (Imap.remove m 3 : bool)),
        [ ("insert", 1); ("insert_many", 3); ("find", 1); ("mem", 1);
          ("remove", 1) ] );
      ( "dset",
        (fun heap ->
          let s = Iset.open_or_create heap ~slot:0 in
          Iset.add s 1;
          Iset.add_many s [ 2; 3; 4 ];
          ignore (Iset.mem s 2 : bool);
          ignore (Iset.remove s 3 : bool)),
        [ ("add", 1); ("add_many", 3); ("mem", 1); ("remove", 1) ] );
      ( "dstack",
        (fun heap ->
          let s = St.open_or_create heap ~slot:0 in
          St.push s (w 1);
          St.push_many s three;
          ignore (St.peek s : Pmem.Word.t option);
          ignore (St.pop s : Pmem.Word.t option)),
        [ ("push", 1); ("push_many", 3); ("peek", 1); ("pop", 1) ] );
      ( "dqueue",
        (fun heap ->
          let q = Q.open_or_create heap ~slot:0 in
          Q.enqueue q (w 1);
          Q.enqueue_many q three;
          ignore (Q.dequeue q : Pmem.Word.t option)),
        [ ("enqueue", 1); ("enqueue_many", 3); ("dequeue", 1) ] );
      ( "dpqueue",
        (fun heap ->
          let pq = Pq.open_or_create heap ~slot:0 in
          Pq.insert pq 1;
          Pq.insert_many pq [ 2; 3; 4 ];
          ignore (Pq.find_min pq : int option);
          ignore (Pq.delete_min pq : int option)),
        [ ("insert", 1); ("insert_many", 3); ("find_min", 1);
          ("delete_min", 1) ] );
      ( "dvec",
        (fun heap ->
          let v = V.open_or_create heap ~slot:0 in
          V.push_back v (w 1);
          V.push_back_many v three;
          V.set v 0 (w 5);
          V.swap v 0 1;
          ignore (V.get v 2 : Pmem.Word.t);
          ignore (V.pop_back v : Pmem.Word.t)),
        [ ("push_back", 1); ("push_back_many", 3); ("set", 1); ("swap", 1);
          ("get", 1); ("pop_back", 1) ] );
      ( "dseq",
        (fun heap ->
          let sq = Sq.open_or_create heap ~slot:0 in
          let other = Sq.open_or_create heap ~slot:1 in
          Sq.push_back sq (w 1);
          Sq.push_back_many sq three;
          Sq.set sq 0 (w 5);
          ignore (Sq.get sq 2 : Pmem.Word.t);
          Sq.append sq other;
          Sq.restrict sq ~pos:0 ~len:2),
        [ ("push_back", 1); ("push_back_many", 3); ("set", 1); ("get", 1);
          ("append", 1); ("restrict", 1) ] );
    ]
  in
  let row structure op spans ops =
    Printf.sprintf "%s/%s spans %d ops %d" structure op spans ops
  in
  List.iter
    (fun (structure, run, ops) ->
      let heap = mk_heap () in
      with_collector heap (fun c ->
          run heap;
          let r = Telemetry.report c in
          Alcotest.(check (list string))
            (structure ^ " rows")
            (List.sort compare
               (List.map (fun (op, n) -> row structure op 1 n) ops))
            (List.sort compare
               (List.map
                  (fun x -> row x.Telemetry.r_structure x.r_op x.r_spans x.r_ops)
                  r.Telemetry.rows));
          Alcotest.(check (float 1e-6))
            (structure ^ ": attributed + unattributed = total")
            r.Telemetry.total_fence_stall_ns
            (r.Telemetry.attributed_fence_stall_ns
            +. r.Telemetry.unattributed_fence_stall_ns)))
    cases

let test_stats_reset_rebase () =
  let heap = mk_heap () in
  with_collector heap (fun c ->
      run_map_ops heap 32;
      (* measurement restart under the collector, Backend-style *)
      Pmem.Stats.reset (Pmalloc.Heap.stats heap);
      Telemetry.reset c;
      let m = Imap.open_or_create heap ~slot:0 in
      Imap.insert m 999 1;
      let r = Telemetry.report c in
      Alcotest.(check bool) "totals rebased (no negative stall)" true
        (r.Telemetry.total_fence_stall_ns >= 0.0);
      let gap =
        Float.abs
          (r.Telemetry.attributed_fence_stall_ns
          +. r.Telemetry.unattributed_fence_stall_ns
          -. r.Telemetry.total_fence_stall_ns)
      in
      Alcotest.(check bool) "identity holds after reset" true (gap <= 1e-6))

let test_gauges_sampled () =
  let heap = mk_heap () in
  with_collector heap (fun c ->
      run_map_ops heap 16;
      let r = Telemetry.report c in
      match r.Telemetry.last_gauges with
      | None -> Alcotest.fail "no gauges sampled"
      | Some g ->
          Alcotest.(check bool) "live words > 0" true
            (g.Telemetry.g_live_words > 0);
          Alcotest.(check bool) "alloc total >= live" true
            (g.Telemetry.g_alloc_words_total >= g.Telemetry.g_live_words))

(* ------------------------------------------------------------------ *)
(* Exporters                                                          *)
(* ------------------------------------------------------------------ *)

let report_of_run () =
  let heap = mk_heap () in
  with_collector heap (fun c ->
      run_map_ops heap 64;
      Telemetry.report c)

let test_json_roundtrip () =
  let r = report_of_run () in
  let open Workloads.Report.Json in
  let doc = of_string (Telemetry.Export.to_json r) in
  Alcotest.(check (option string))
    "schema tag" (Some "modpm-telemetry-v1")
    (Option.bind (member "schema" doc) to_string_opt);
  let num path v =
    match Option.bind (member path doc) (member v) with
    | Some j -> Option.get (to_number_opt j)
    | None -> Alcotest.failf "missing %s.%s" path v
  in
  let total = num "totals" "fence_stall_ns"
  and attributed = num "totals" "attributed_fence_stall_ns"
  and unattributed = num "totals" "unattributed_fence_stall_ns" in
  Alcotest.(check bool) "attribution identity in JSON" true
    (Float.abs (attributed +. unattributed -. total) <= 1e-6);
  let rows =
    match Option.bind (member "rows" doc) to_list_opt with
    | Some rows -> rows
    | None -> Alcotest.fail "no rows array"
  in
  Alcotest.(check int) "row count matches report" (List.length r.Telemetry.rows)
    (List.length rows);
  List.iter
    (fun row ->
      let lat =
        match member "latency" row with
        | Some l -> l
        | None -> Alcotest.fail "row without latency"
      in
      let get k =
        match Option.bind (member k lat) to_number_opt with
        | Some v -> v
        | None -> Alcotest.failf "latency without %s" k
      in
      let count = get "count" in
      Alcotest.(check bool) "p50 <= p99 <= max" true
        (get "p50_ns" <= get "p99_ns" && get "p99_ns" <= get "max_ns");
      let bucket_total =
        match Option.bind (member "buckets" lat) to_list_opt with
        | None -> Alcotest.fail "latency without buckets"
        | Some bs ->
            List.fold_left
              (fun acc b ->
                acc
                +.
                match Option.bind (member "count" b) to_number_opt with
                | Some v -> v
                | None -> Alcotest.fail "bucket without count")
              0.0 bs
      in
      Alcotest.(check (float 1e-9)) "buckets sum to count" count bucket_total)
    rows

let test_prometheus_export () =
  let r = report_of_run () in
  let text = Telemetry.Export.to_prometheus r in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec scan i =
      i + nl <= tl && (String.sub text i nl = needle || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (has needle))
    [
      "# TYPE modpm_op_latency_ns histogram";
      "le=\"+Inf\"";
      "modpm_fence_stall_ns{structure=\"_unattributed\"";
      "modpm_fence_stall_total_ns";
      "modpm_ops_total";
      "modpm_cache_hit_rate";
      "modpm_allocator_words";
      "structure=\"dmap\"";
    ];
  (* every line is either a comment or "name{labels} value" / "name value" *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           Alcotest.(check bool)
             (Printf.sprintf "line has a value: %S" line)
             true
             (String.contains line ' '))

let () =
  Alcotest.run "telemetry"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucketing" `Quick test_hist_bucketing;
          Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "sums to global counter" `Quick
            test_attribution_sums;
          Alcotest.test_case "unattributed remainder" `Quick
            test_unattributed_remainder;
          Alcotest.test_case "nested spans suppressed" `Quick
            test_nested_spans;
          Alcotest.test_case "batched ops counted" `Quick
            test_batched_ops_count;
          Alcotest.test_case "null sink" `Quick test_null_sink;
          Alcotest.test_case "null span allocates nothing" `Quick
            test_null_span_allocates_nothing;
          Alcotest.test_case "foreign heap ignored" `Quick test_foreign_heap;
          Alcotest.test_case "stats reset rebases" `Quick
            test_stats_reset_rebase;
          Alcotest.test_case "gauges sampled" `Quick test_gauges_sampled;
          Alcotest.test_case "one row per Basic entry point" `Quick
            test_entry_point_rows;
        ] );
      ( "export",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "prometheus text" `Quick test_prometheus_export;
        ] );
    ]
