(* Every metric the benchmark reports, with its unit and the clock it is
   read from, in output order.  BENCHMARK.json lists the same names; a
   run whose outcome names differ from these is a benchmark bug and fails
   loudly. *)

(* [Exact] metrics come from the simulated clock or from counters: a
   pure function of the seed, bit-identical across runs and machines.
   [Host] metrics come from the host clock. *)
type clock = Exact | Host

let end_to_end =
  [
    ("sim_ns_per_op", "ns", Exact);
    ("sim_tail_ns", "ns", Exact);
    ("host_us_per_op", "us", Host);
    ("setup_s", "s", Host);
    ("pm_words_per_key", "words", Exact);
    ("recover_sim_ms", "ms", Exact);
    ("recover_ms", "ms", Host);
  ]

(* The crash-sweep's sweeps, in the order it runs them. *)
let sweep_names = [ "map"; "queue"; "vec"; "cmap"; "map-nofence" ]

let per_layer =
  [
    ("trace.sim_ns_per_op", "ns", Exact);
    ("trace.host_us_per_op", "us", Host);
    ("trace.overhead_sim_pct", "%", Exact);
    ("trace.overhead_host_pct", "%", Host);
    ("trace.unattributed_host_pct", "%", Host);
  ]
  @ List.concat_map
      (fun l ->
        let n = Measure.layer_name l in
        [ (n ^ ".sim_pct", "%", Exact); (n ^ ".host_pct", "%", Host) ])
      Measure.layers
  @ [
      ("telemetry.host_pct", "%", Host);
      ("pmalloc.allocs_per_op", "count", Exact);
      ("pmalloc.frees_per_op", "count", Exact);
      ("pmalloc.fresh_words_per_op", "words", Exact);
      ("pmalloc.pad_words_per_key", "words", Exact);
      ("pmem.loads_per_op", "count", Exact);
      ("pmem.stores_per_op", "count", Exact);
      ("pmem.clwbs_per_op", "count", Exact);
      ("pmem.fences_per_op", "count", Exact);
      ("pmem.l1d_miss_pct", "%", Exact);
      ("fence.lines_per_fence", "count", Exact);
      ("recovery_gc.sim_ns_per_word", "ns", Exact);
      ("recovery_gc.host_ns_per_word", "ns", Host);
      ("recovery_gc.live_words", "count", Exact);
      ("shard.imbalance", "ratio", Exact);
      ("shard.max_share_pct", "%", Exact);
      ("crashtest.points", "count", Exact);
      ("crashtest.samples", "count", Exact);
    ]
  @ List.map (fun s -> ("crashtest." ^ s ^ ".host_pct", "%", Host)) sweep_names

(* The table an outcome of the given mode must match. *)
let table ~traced = if traced then per_layer else end_to_end

let names t = List.map (fun (n, _, _) -> n) t
let unit_of t name = List.find_map (fun (n, u, _) -> if n = name then Some u else None) t
