(* The named metrics of BENCHMARK.json, computed from one run. *)

open Measure

let pct part whole = if whole = 0.0 then 0.0 else 100.0 *. part /. whole
let per n x = if n = 0 then 0.0 else float_of_int x /. float_of_int n

(* Untraced run.  [lat]: per-op simulated latencies of the deterministic
   prefix; [host]: host seconds per op of every round, of which the
   fastest is reported -- on a shared machine the fastest of equal
   rounds repeats far better than their mean; [words_per_key]: live PM
   words per live element of the final image before its crash. *)
let end_to_end ~lat ~host ~setup_s ~words_per_key ~(recovery : Pm.recovery) =
  [
    ("sim_ns_per_op", mean lat);
    ("sim_tail_ns", tail_mean 0.01 lat);
    ("host_us_per_op", minimum host *. 1e6);
    ("setup_s", setup_s);
    ("pm_words_per_key", words_per_key);
    ("recover_sim_ms", recovery.Pm.rec_sim_ns *. 1e-6);
    ("recover_ms", recovery.Pm.rec_host_s *. 1e3);
  ]

(* What a traced run measured.  Simulated numbers come from the
   deterministic prefix, host numbers from every traced round. *)
type traced = {
  ledger : Ledger.t;  (** every traced round *)
  layer_sim : float array;  (** ledger sim ns over the prefix *)
  traced_sim_ns : float;  (** prefix, under the ledger *)
  traced_sim_ops : int;
  plain_sim_ns : float;  (** the same prefix ops, untraced *)
  traced_host_s : float;  (** every traced round *)
  traced_ops : int;
  traced_host_per_op : float;  (** fastest traced round, s/op *)
  plain_host_per_op : float;  (** fastest untraced round, s/op *)
  telemetry_pct : float;
      (** share of an op's host time a telemetry collector costs *)
  counted : Pm.counts;  (** PM and allocator work of the untraced prefix *)
  counted_ops : int;
  keys : int;
  pad_words : int;
  recovery : Pm.recovery;
  imbalance : float;
      (** busiest heap's sim clock x heap count / summed sim clocks *)
  max_share : float;  (** busiest heap's share of the summed sim clocks *)
  points : int;
  samples : int;
  sweep_host_pct : float list;
      (** crash-sweep: each sweep's share of the untraced host time, in
          {!Metrics.sweep_names} order; empty elsewhere *)
}

(* The ledger identities: every simulated ns of the traced rounds
   ([sim_total]) falls in exactly one layer span, and the spans' host
   time fits inside the traced rounds' host time (the rest is the
   benchmark's own loop). *)
let identities (l : Ledger.t) ~sim_total ~host_total =
  let sim_sum = Ledger.sim_total l in
  let host_sum = Ledger.host_total l *. 1e-9 in
  List.filter_map Fun.id
    [
      (if l.Ledger.leaks > 0 then
         Some
           (Printf.sprintf "%d spans found sim time spent outside every layer"
              l.Ledger.leaks)
       else None);
      (if Float.abs (sim_sum -. sim_total) > 1e-9 *. sim_total then
         Some
           (Printf.sprintf "sum of layer sim ns %.3f <> traced sim total %.3f"
              sim_sum sim_total)
       else None);
      (if host_sum > host_total then
         Some
           (Printf.sprintf "layer host time %.6f s exceeds traced total %.6f s"
              host_sum host_total)
       else None);
    ]

(* Layer shares are self times: simulated shares over the prefix, host
   shares over every traced round. *)
let per_layer t =
  let sim_total = Array.fold_left ( +. ) 0.0 t.layer_sim in
  let shares =
    List.concat_map
      (fun l ->
        let i = layer_index l in
        [
          (layer_name l ^ ".sim_pct", pct t.layer_sim.(i) sim_total);
          (layer_name l ^ ".host_pct", pct (t.ledger.Ledger.host.(i) *. 1e-9) t.traced_host_s);
        ])
      layers
  in
  let c = t.counted and n = t.counted_ops in
  let attributed = Ledger.host_total t.ledger *. 1e-9 in
  [
    ("trace.sim_ns_per_op", t.traced_sim_ns /. float_of_int (max 1 t.traced_sim_ops));
    ("trace.host_us_per_op", t.traced_host_s *. 1e6 /. float_of_int (max 1 t.traced_ops));
    ("trace.overhead_sim_pct", pct (t.traced_sim_ns -. t.plain_sim_ns) t.plain_sim_ns);
    ( "trace.overhead_host_pct",
      pct (t.traced_host_per_op -. t.plain_host_per_op) t.plain_host_per_op );
    ("trace.unattributed_host_pct", pct (t.traced_host_s -. attributed) t.traced_host_s);
  ]
  @ shares
  @ [
      ("telemetry.host_pct", t.telemetry_pct);
      ("pmalloc.allocs_per_op", per n c.Pm.allocs);
      ("pmalloc.frees_per_op", per n c.Pm.frees);
      ("pmalloc.fresh_words_per_op", per n c.Pm.fresh_words);
      ("pmalloc.pad_words_per_key", per t.keys t.pad_words);
      ("pmem.loads_per_op", per n c.Pm.loads);
      ("pmem.stores_per_op", per n c.Pm.stores);
      ("pmem.clwbs_per_op", per n c.Pm.clwbs);
      ("pmem.fences_per_op", per n c.Pm.fences);
      ( "pmem.l1d_miss_pct",
        pct (float_of_int c.Pm.l1_misses) (float_of_int (c.Pm.l1_hits + c.Pm.l1_misses)) );
      ("fence.lines_per_fence", per c.Pm.fences c.Pm.drained);
      ( "recovery_gc.sim_ns_per_word",
        t.recovery.Pm.rec_sim_ns /. float_of_int (max 1 t.recovery.Pm.live_words) );
      ( "recovery_gc.host_ns_per_word",
        t.recovery.Pm.rec_host_s *. 1e9 /. float_of_int (max 1 t.recovery.Pm.live_words) );
      ("recovery_gc.live_words", float_of_int t.recovery.Pm.live_words);
      ("shard.imbalance", t.imbalance);
      ("shard.max_share_pct", 100.0 *. t.max_share);
      ("crashtest.points", float_of_int t.points);
      ("crashtest.samples", float_of_int t.samples);
    ]
  @ List.mapi
      (fun i s ->
        ( "crashtest." ^ s ^ ".host_pct",
          Option.value ~default:0.0 (List.nth_opt t.sweep_host_pct i) ))
      Metrics.sweep_names
