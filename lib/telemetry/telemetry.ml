module Histogram = Histogram

module Sink = struct
  type t = Null | Memory
end

type gauges = {
  g_live_words : int;
  g_free_words : int;
  g_deferred_words : int;
  g_high_water_words : int;
  g_alloc_words_total : int;
}

type agg = {
  mutable a_spans : int;
  mutable a_ops : int;
  a_lat : Histogram.t;
  mutable a_span_ns : float;
  mutable a_fence_stall_ns : float;
  mutable a_fences : int;
  mutable a_flushed_lines : int;
  mutable a_shadow_alloc_words : int;
  mutable a_l1_hits : int;
  mutable a_l1_misses : int;
}

type t = {
  stats : Pmem.Stats.t;
  sink : Sink.t;
  gauges_fn : (unit -> gauges) option;
  mutable depth : int;
  mutable base : Pmem.Stats.snapshot;
  table : (string * string, agg) Hashtbl.t;
  mutable last_gauges : gauges option;
}

let create ?(sink = Sink.Memory) ?gauges stats =
  {
    stats;
    sink;
    gauges_fn = gauges;
    depth = 0;
    base = Pmem.Stats.snapshot stats;
    table = Hashtbl.create 32;
    last_gauges = None;
  }

let reset t =
  Hashtbl.reset t.table;
  t.base <- Pmem.Stats.snapshot t.stats;
  t.last_gauges <- None

let find_agg t key =
  match Hashtbl.find_opt t.table key with
  | Some a -> a
  | None ->
      let a =
        {
          a_spans = 0;
          a_ops = 0;
          a_lat = Histogram.create ();
          a_span_ns = 0.0;
          a_fence_stall_ns = 0.0;
          a_fences = 0;
          a_flushed_lines = 0;
          a_shadow_alloc_words = 0;
          a_l1_hits = 0;
          a_l1_misses = 0;
        }
      in
      Hashtbl.replace t.table key a;
      a

(* Minimal JSON string escaping for span labels and sink lines. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let record t ~structure ~op ~ops ~before ~alloc_before =
  let after = Pmem.Stats.snapshot t.stats in
  let d = Pmem.Stats.diff ~before ~after in
  let shadow_words =
    match t.gauges_fn with
    | None -> 0
    | Some g ->
        let now = g () in
        t.last_gauges <- Some now;
        now.g_alloc_words_total - alloc_before
  in
  match t.sink with
  | Sink.Null -> ()
  | Sink.Memory ->
      let a = find_agg t (structure, op) in
      a.a_spans <- a.a_spans + 1;
      a.a_ops <- a.a_ops + ops;
      Histogram.add a.a_lat d.Pmem.Stats.s_now_ns;
      a.a_span_ns <- a.a_span_ns +. d.Pmem.Stats.s_now_ns;
      a.a_fence_stall_ns <- a.a_fence_stall_ns +. d.Pmem.Stats.s_ns_flush;
      a.a_fences <- a.a_fences + d.Pmem.Stats.s_fences;
      a.a_flushed_lines <- a.a_flushed_lines + d.Pmem.Stats.s_clwbs;
      a.a_shadow_alloc_words <- a.a_shadow_alloc_words + shadow_words;
      a.a_l1_hits <- a.a_l1_hits + d.Pmem.Stats.s_l1_hits;
      a.a_l1_misses <- a.a_l1_misses + d.Pmem.Stats.s_l1_misses

(* Run [f] as a span of collector [t] (already known to watch the
   right stats block). *)
let span_run t ~structure ~op ~ops f =
  if t.depth > 0 then begin
    (* nested span: the outermost one owns the whole delta *)
    t.depth <- t.depth + 1;
    match f () with
    | v ->
        t.depth <- t.depth - 1;
        v
    | exception e ->
        t.depth <- t.depth - 1;
        raise e
  end
  else
    match t.sink with
    | Sink.Null -> (
        (* Null sink: track nesting only — no snapshots, no aggregation,
           no closure — so disabled-but-installed telemetry stays within
           noise and allocates nothing per span. *)
        t.depth <- 1;
        match f () with
        | v ->
            t.depth <- 0;
            v
        | exception e ->
            t.depth <- 0;
            raise e)
    | Sink.Memory ->
        t.depth <- 1;
        let before = Pmem.Stats.snapshot t.stats in
        let alloc_before =
          match t.gauges_fn with
          | None -> 0
          | Some g -> (g ()).g_alloc_words_total
        in
        Fun.protect
          ~finally:(fun () ->
            t.depth <- 0;
            record t ~structure ~op ~ops ~before ~alloc_before)
          f

let span_on collector ~structure ~op ?(ops = 1) f =
  match collector with
  | Some t -> span_run t ~structure ~op ~ops f
  | None -> f ()

type row = {
  r_structure : string;
  r_op : string;
  r_spans : int;
  r_ops : int;
  r_lat : Histogram.t;
  r_span_ns : float;
  r_fence_stall_ns : float;
  r_fences : int;
  r_flushed_lines : int;
  r_shadow_alloc_words : int;
  r_l1_hits : int;
  r_l1_misses : int;
}

type report = {
  rows : row list;
  total_ns : float;
  total_fence_stall_ns : float;
  attributed_fence_stall_ns : float;
  unattributed_fence_stall_ns : float;
  total_fences : int;
  cache_hits : int;
  cache_misses : int;
  cache_hit_rate : float;
  last_gauges : gauges option;
}

let report t =
  let after = Pmem.Stats.snapshot t.stats in
  let d = Pmem.Stats.diff ~before:t.base ~after in
  let rows =
    Hashtbl.fold
      (fun (structure, op) a acc ->
        {
          r_structure = structure;
          r_op = op;
          r_spans = a.a_spans;
          r_ops = a.a_ops;
          r_lat = a.a_lat;
          r_span_ns = a.a_span_ns;
          r_fence_stall_ns = a.a_fence_stall_ns;
          r_fences = a.a_fences;
          r_flushed_lines = a.a_flushed_lines;
          r_shadow_alloc_words = a.a_shadow_alloc_words;
          r_l1_hits = a.a_l1_hits;
          r_l1_misses = a.a_l1_misses;
        }
        :: acc)
      t.table []
    |> List.sort (fun a b ->
           match compare a.r_structure b.r_structure with
           | 0 -> compare a.r_op b.r_op
           | c -> c)
  in
  let attributed =
    List.fold_left (fun acc r -> acc +. r.r_fence_stall_ns) 0.0 rows
  in
  let total_stall = d.Pmem.Stats.s_ns_flush in
  let hits = d.Pmem.Stats.s_l1_hits and misses = d.Pmem.Stats.s_l1_misses in
  {
    rows;
    total_ns = d.Pmem.Stats.s_now_ns;
    total_fence_stall_ns = total_stall;
    attributed_fence_stall_ns = attributed;
    unattributed_fence_stall_ns = total_stall -. attributed;
    total_fences = d.Pmem.Stats.s_fences;
    cache_hits = hits;
    cache_misses = misses;
    cache_hit_rate =
      (if hits + misses = 0 then 0.0
       else float_of_int hits /. float_of_int (hits + misses));
    last_gauges = t.last_gauges;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "%-10s %-12s %8s %8s %10s %10s %10s %10s %8s@ " "structure" "op" "spans"
    "ops" "p50_ns" "p99_ns" "max_ns" "stall_ns" "fences";
  List.iter
    (fun row ->
      Format.fprintf ppf
        "%-10s %-12s %8d %8d %10.0f %10.0f %10.0f %10.0f %8d@ " row.r_structure
        row.r_op row.r_spans row.r_ops
        (Histogram.percentile row.r_lat 0.50)
        (Histogram.percentile row.r_lat 0.99)
        (Histogram.max_value row.r_lat)
        row.r_fence_stall_ns row.r_fences)
    r.rows;
  Format.fprintf ppf
    "total %.0f ns, fence stall %.0f ns (attributed %.0f, unattributed %.0f), \
     %d fences, cache hit rate %.3f"
    r.total_ns r.total_fence_stall_ns r.attributed_fence_stall_ns
    r.unattributed_fence_stall_ns r.total_fences r.cache_hit_rate;
  Format.fprintf ppf "@]"

module Export = struct
  let buf_addf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

  let json_gauges buf = function
    | None -> Buffer.add_string buf "null"
    | Some g ->
        buf_addf buf
          "{\"live_words\":%d,\"free_words\":%d,\"deferred_words\":%d,\"high_water_words\":%d,\"alloc_words_total\":%d}"
          g.g_live_words g.g_free_words g.g_deferred_words g.g_high_water_words
          g.g_alloc_words_total

  let to_json r =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"schema\":\"modpm-telemetry-v1\",";
    buf_addf buf
      "\"totals\":{\"ns\":%.1f,\"fence_stall_ns\":%.1f,\"attributed_fence_stall_ns\":%.1f,\"unattributed_fence_stall_ns\":%.1f,\"fences\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\"cache_hit_rate\":%.6f},"
      r.total_ns r.total_fence_stall_ns r.attributed_fence_stall_ns
      r.unattributed_fence_stall_ns r.total_fences r.cache_hits r.cache_misses
      r.cache_hit_rate;
    Buffer.add_string buf "\"gauges\":";
    json_gauges buf r.last_gauges;
    Buffer.add_string buf ",\"rows\":[";
    List.iteri
      (fun i row ->
        if i > 0 then Buffer.add_char buf ',';
        buf_addf buf
          "{\"structure\":\"%s\",\"op\":\"%s\",\"spans\":%d,\"ops\":%d,"
          (json_escape row.r_structure) (json_escape row.r_op) row.r_spans
          row.r_ops;
        let h = row.r_lat in
        buf_addf buf
          "\"latency\":{\"count\":%d,\"sum_ns\":%.1f,\"p50_ns\":%.1f,\"p90_ns\":%.1f,\"p99_ns\":%.1f,\"max_ns\":%.1f,\"buckets\":["
          (Histogram.count h) (Histogram.sum h)
          (Histogram.percentile h 0.50)
          (Histogram.percentile h 0.90)
          (Histogram.percentile h 0.99)
          (Histogram.max_value h);
        List.iteri
          (fun j (le, c) ->
            if j > 0 then Buffer.add_char buf ',';
            buf_addf buf "{\"le_ns\":%.1f,\"count\":%d}" le c)
          (Histogram.buckets h);
        buf_addf buf
          "]},\"span_ns\":%.1f,\"fence_stall_ns\":%.1f,\"fences\":%d,\"flushed_lines\":%d,\"shadow_alloc_bytes\":%d,\"l1_hits\":%d,\"l1_misses\":%d}"
          row.r_span_ns row.r_fence_stall_ns row.r_fences row.r_flushed_lines
          (row.r_shadow_alloc_words * 8)
          row.r_l1_hits row.r_l1_misses)
      r.rows;
    Buffer.add_string buf "]}";
    Buffer.contents buf

  (* Prometheus label values share JSON's escaping rules for '\', '"'
     and newline, so [json_escape] is adequate. *)
  let labels row =
    Printf.sprintf "structure=\"%s\",op=\"%s\""
      (json_escape row.r_structure) (json_escape row.r_op)

  let to_prometheus r =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      "# HELP modpm_op_latency_ns Span latency per durable operation \
       (simulated ns).\n# TYPE modpm_op_latency_ns histogram\n";
    List.iter
      (fun row ->
        let l = labels row in
        let cum = ref 0 in
        List.iter
          (fun (le, c) ->
            cum := !cum + c;
            buf_addf buf "modpm_op_latency_ns_bucket{%s,le=\"%.0f\"} %d\n" l le
              !cum)
          (Histogram.buckets row.r_lat);
        buf_addf buf "modpm_op_latency_ns_bucket{%s,le=\"+Inf\"} %d\n" l
          (Histogram.count row.r_lat);
        buf_addf buf "modpm_op_latency_ns_sum{%s} %.1f\n" l
          (Histogram.sum row.r_lat);
        buf_addf buf "modpm_op_latency_ns_count{%s} %d\n" l
          (Histogram.count row.r_lat))
      r.rows;
    Buffer.add_string buf
      "# HELP modpm_fence_stall_ns Fence-stall time attributed per \
       operation (simulated ns).\n# TYPE modpm_fence_stall_ns counter\n";
    List.iter
      (fun row ->
        buf_addf buf "modpm_fence_stall_ns{%s} %.1f\n" (labels row)
          row.r_fence_stall_ns)
      r.rows;
    buf_addf buf
      "modpm_fence_stall_ns{structure=\"_unattributed\",op=\"_\"} %.1f\n"
      r.unattributed_fence_stall_ns;
    buf_addf buf
      "# HELP modpm_fence_stall_total_ns Global fence-stall time.\n\
       # TYPE modpm_fence_stall_total_ns counter\n\
       modpm_fence_stall_total_ns %.1f\n"
      r.total_fence_stall_ns;
    Buffer.add_string buf
      "# HELP modpm_ops_total Logical operations retired per entry point.\n\
       # TYPE modpm_ops_total counter\n";
    List.iter
      (fun row ->
        buf_addf buf "modpm_ops_total{%s} %d\n" (labels row) row.r_ops)
      r.rows;
    Buffer.add_string buf
      "# HELP modpm_shadow_alloc_bytes Shadow bytes allocated inside spans.\n\
       # TYPE modpm_shadow_alloc_bytes counter\n";
    List.iter
      (fun row ->
        buf_addf buf "modpm_shadow_alloc_bytes{%s} %d\n" (labels row)
          (row.r_shadow_alloc_words * 8))
      r.rows;
    buf_addf buf
      "# HELP modpm_fences_total Ordering points since create/reset.\n\
       # TYPE modpm_fences_total counter\nmodpm_fences_total %d\n"
      r.total_fences;
    buf_addf buf
      "# HELP modpm_cache_hit_rate Simulated L1D hit rate.\n\
       # TYPE modpm_cache_hit_rate gauge\nmodpm_cache_hit_rate %.6f\n"
      r.cache_hit_rate;
    (match r.last_gauges with
    | None -> ()
    | Some g ->
        buf_addf buf
          "# HELP modpm_allocator_words Allocator occupancy (words).\n\
           # TYPE modpm_allocator_words gauge\n\
           modpm_allocator_words{kind=\"live\"} %d\n\
           modpm_allocator_words{kind=\"free\"} %d\n\
           modpm_allocator_words{kind=\"deferred\"} %d\n\
           modpm_allocator_words{kind=\"high_water\"} %d\n"
          g.g_live_words g.g_free_words g.g_deferred_words g.g_high_water_words;
        buf_addf buf
          "# HELP modpm_alloc_words_total Words ever allocated.\n\
           # TYPE modpm_alloc_words_total counter\n\
           modpm_alloc_words_total %d\n"
          g.g_alloc_words_total);
    Buffer.contents buf
end
