(** Exhaustive crash-point exploration.

    A simulated power failure is injected after every single PM event
    (store / clwb / sfence) of a deterministic workload.  At each crash
    point the memory image is sampled under the three crash modes --
    [Drop_inflight] and [Keep_inflight] are deterministic corner cases;
    [Randomize] is sampled K times from explicit, replayable survival
    seeds -- then recovered and checked against the
    durable-linearizability oracle ({!Oracle.judge}).

    Sequential and concurrent sweeps share one driver whose work items
    are (schedule, crash point) pairs, and one oracle tracker per run: a
    sequential workload is the one-schedule, one-writer case, concurrent
    writers add an interleaving-schedule axis.  Each schedule runs
    exactly once, uncrashed, on one scratch heap per sweep, with a
    {!Pmem.Region.capture} armed at the points the sweep tests: at each
    one the region records the lines changed since the previous point,
    the in-flight count and the stats, and the explorer fixes the
    oracle's context (the window the tracker lists there, which the
    point's samples share).  The same run is checked
    once: its trace goes to the Section 5.4 consistency checker (for
    workloads that ask), and its final state must equal the newest
    committed model state (a failure at crash index -1).

    Sampling happens after the run, never inside it: the heap is
    rewound to its pristine snapshot ({!Pmalloc.Heap.reset_fresh}), each
    point's image is rebuilt on top of the previous point's
    ({!Pmem.Region.apply_point}), and the point is sampled through the
    region's undo journal, O(state touched) per sample.  A sweep over N
    PM events thus executes each of them once, not N/2 times on
    average.  With [jobs > 1] the work items are partitioned
    round-robin across forked worker processes that inherit the
    captures, and the per-worker reports are merged deterministically
    (identical to a sequential sweep); on platforms without [fork] the
    sweep falls back to sequential.

    Large runs can be strided or capped; whatever is skipped is reported
    through [log] rather than silently dropped. *)

type config = {
  stride : int;  (** test every [stride]-th crash point *)
  randomize_samples : int;  (** survival samples per point in Randomize *)
  seed : int;  (** master seed survival seeds are derived from *)
  max_points : int option;  (** cap on tested points (strided sweeps) *)
  jobs : int;  (** worker processes; 1 = sequential, 0 = one per core *)
  faults : bool;
      (** also sample each crash point under the fault schedule: torn
          (per-word) line persistence plus armed media faults or a
          corrupted root summary, asserting the degradation contract --
          recovery succeeds or fails with a typed error, never silently
          corrupts, and a corrupted summary alone still recovers *)
  worker_kill : int option;
      (** test hook: the given parallel worker index dies before doing
          any work, exercising the shard-resweep path *)
  log : string -> unit;
}

let default =
  {
    stride = 1;
    randomize_samples = 3;
    seed = 1;
    max_points = None;
    jobs = 1;
    faults = false;
    worker_kill = None;
    log = ignore;
  }

let modes =
  Pmem.Region.[ Drop_inflight; Keep_inflight; Randomize ]

let capacity_words = 1 lsl 14
let heap_seed = 42

let fresh_heap () =
  Pmalloc.Heap.create ~capacity_words ~trace:true ~seed:heap_seed ()

type failure = {
  workload : string;
  writers : int;  (** concurrent writers; 0 = a sequential workload *)
  ops : int;  (** per writer *)
  schedule : Interleave.schedule option;  (** [None] = sequential *)
  persist : Pmalloc.Heap.policy option;
      (** the sequential workload's commit policy; [None] = Full *)
  crash_index : int;
      (** PM event the power failed after; -1 = the uncrashed run's
          final-state check *)
  mode : Pmem.Region.crash_mode;
  survival_seed : int option;  (** Randomize line-survival seed *)
  fault : int option;
      (** the fault-schedule kind of a [faults] sample (a torn crash at
          [survival_seed] plus {!inject_fault_kind}); [None] = a plain
          crash *)
  detail : string;
}

type result = {
  workload : string;
  ops : int;
  total_events : int;
  points_tested : int;
  points_skipped : int;
  crashes_sampled : int;
  fault_samples : int;  (** fault-schedule samples (torn / media) *)
  fault_recovered : int;  (** fault samples recovery fully absorbed *)
  fault_degraded : int;  (** fault samples that failed with a typed error *)
  fault_fallbacks : int;  (** root reads rescued by the secondary copy *)
  fault_scans : int;
      (** fault-sample recoveries that found no valid root summary and
          scanned every root slot *)
  shards_resequenced : int;
      (** parallel-sweep shards re-run sequentially after a worker died *)
  wall_seconds : float;
  trace_report : Mod_core.Consistency.report option;
  failures : failure list;
}

let ok r =
  r.failures = []
  && match r.trace_report with
     | Some rep -> Mod_core.Consistency.ok rep
     | None -> true

let points_per_sec r =
  if r.wall_seconds <= 0.0 then 0.0
  else float_of_int r.points_tested /. r.wall_seconds

type cresult = {
  cr_workload : string;
  cr_writers : int;
  cr_ops : int;
  cr_schedules : int;
  cr_total_events : int;  (** summed over schedules *)
  cr_points_tested : int;
  cr_points_skipped : int;
  cr_crashes_sampled : int;
  cr_wall_seconds : float;
  cr_failures : failure list;
}

let cok r = r.cr_failures = []

let cpoints_per_sec r =
  if r.cr_wall_seconds <= 0.0 then 0.0
  else float_of_int r.cr_points_tested /. r.cr_wall_seconds

let mode_name = function
  | Pmem.Region.Drop_inflight -> "drop"
  | Pmem.Region.Keep_inflight -> "keep"
  | Pmem.Region.Randomize -> "randomize"

let mode_of_name = function
  | "drop" -> Ok Pmem.Region.Drop_inflight
  | "keep" -> Ok Pmem.Region.Keep_inflight
  | "randomize" | "random" -> Ok Pmem.Region.Randomize
  | s -> Error (Printf.sprintf "unknown crash mode %S (drop|keep|randomize)" s)

(* Survival seeds are a pure function of (master seed, crash point,
   sample index): any failure replays bit-for-bit from its triple. *)
let survival_seed cfg ~crash_index ~k =
  (cfg.seed * 1_000_003) + (crash_index * 131) + k

(* Fault-schedule seeds live in a distinct stream so torn-crash samples
   never collide with the plain Randomize samples of the same point.
   [fault_sweep_seed] inverts it, so a failure's replay command can name
   the sweep's seed. *)
let fault_seed cfg ~crash_index ~k =
  (cfg.seed * 7_368_787) + (crash_index * 257) + k

let fault_sweep_seed ~crash_index ~k seed =
  (seed - (crash_index * 257) - k) / 7_368_787

(* Per-point fault schedule: sample [k = 0..4] cycles through the five
   injection kinds on top of a torn crash. *)
let fault_kinds = 5
let summary_fault_kind = 4

(* The kind whose fault seed at [crash_index] is [seed], if any. *)
let fault_kind cfg ~crash_index seed =
  List.find_opt
    (fun k -> fault_seed cfg ~crash_index ~k = seed)
    (List.init fault_kinds Fun.id)

(* -- one run ---------------------------------------------------------------- *)

(* What a sweep drives.  The interleaving of concurrent writers is a pure
   function of the schedule, so a (subject, budget) pair reproduces the
   same interrupted image bit-for-bit. *)
type subject = Seq of Workload.t | Conc of Workload.ct * Interleave.schedule

type judge = (Workload.state, exn) Stdlib.result -> Oracle.verdict

type crashed = {
  c_heap : Pmalloc.Heap.t;
  c_recover : unit -> unit;
  c_dump : unit -> Workload.state;
  c_judge : judge;
  c_latest : unit -> Workload.state;
}

(* A subject instantiated on a heap: its body, and an oracle fixed at
   the states committed when [judge_now] is called. *)
type instance = {
  i_crashed : judge -> crashed;
  i_judge_now : unit -> judge;
  i_body : unit -> unit;
}

(* One tracker per subject.  A sequential workload is one writer: each
   op is pending while it runs, then commits its model state, or ends
   without a commit when the state is unchanged (a read). *)
let instantiate heap subject =
  let tracker, recover, dump, body =
    match subject with
    | Seq w ->
        let tr = Oracle.tracker ~writers:1 ~init:w.model.(0) in
        let inst = w.make heap in
        ( tr,
          inst.recover,
          inst.dump,
          fun () ->
            inst.init ();
            for i = 0 to w.ops - 1 do
              let state = w.model.(i + 1) in
              Oracle.track_pending tr ~writer:0 state;
              inst.run_op i;
              if state <> Oracle.latest tr then
                Oracle.track_commit tr ~writer:0 state
              else Oracle.clear_pending tr ~writer:0
            done )
    | Conc (cw, schedule) ->
        let inst = cw.cmake heap in
        ( inst.c_tracker,
          inst.c_recover,
          inst.c_dump,
          fun () ->
            inst.c_init ();
            Interleave.run (Pmalloc.Heap.region heap) ~schedule
              inst.c_writers )
  in
  {
    i_crashed =
      (fun c_judge ->
        {
          c_heap = heap;
          c_recover = recover;
          c_dump = dump;
          c_judge;
          c_latest = (fun () -> Oracle.latest tracker);
        });
    i_judge_now =
      (fun () ->
        let judge = Oracle.judge tracker in
        fun recovered -> judge ~recovered);
    i_body = body;
  }

(* Run [subject] on a fresh heap; if [budget] is given, power fails after
   that many PM events (counted from just after heap creation) and the
   interrupted execution is returned. *)
let run _cfg subject ~budget =
  let heap = fresh_heap () in
  let region = Pmalloc.Heap.region heap in
  let base_events = Pmem.Region.pm_events region in
  Option.iter (Pmem.Region.set_crash_after region) budget;
  let i = instantiate heap subject in
  let c = i.i_crashed (fun recovered -> i.i_judge_now () recovered) in
  match i.i_body () with
  | () ->
      Pmem.Region.clear_crash_point region;
      `Completed (Pmem.Region.pm_events region - base_events, c)
  | exception Pmem.Region.Crash_point -> `Crashed c

let run_until cfg w ~budget =
  match run cfg (Seq w) ~budget with
  | `Completed (events, c) -> `Completed (events, c.c_heap)
  | `Crashed c -> `Crashed c

let recover_and_check (c : crashed) =
  c.c_judge
    (match
       c.c_recover ();
       c.c_dump ()
     with
    | s -> Ok s
    | exception e -> Error e)

(* An uncrashed run must end in the newest committed model state (for
   concurrent writers, the serializability check). *)
let check_final (c : crashed) =
  match c.c_dump () with
  | final ->
      let expect = c.c_latest () in
      if final = expect then Oracle.Consistent
      else
        Oracle.Violation
          (Printf.sprintf
             "final state %s does not match the serialized model %s" final
             expect)
  | exception e ->
      Oracle.Violation
        (Printf.sprintf "reading the final state raised %s"
           (Printexc.to_string e))

(* Inject the fault of fault-schedule kind [k mod 5] after the crash:
   0 = pure torn crash, no media fault;
   1 = primary root-record line bad, which also holds the root summary
       (typed Media_error: the survivor's freshness cannot be proven, so
       the heap degrades instead of serving a possibly-stale root);
   2 = both root-record lines bad (typed Media_error path);
   3 = a seed-derived heap line bad (reachable-graph scrub path);
   4 = the root-summary word corrupted, no media fault: the records are
       intact, so recovery must scan every slot and fully recover. *)
let inject_fault_kind region ~k ~seed =
  let record_lines =
    List.map
      (fun (off, _) -> Pmem.Region.line_of_word off)
      (Pmalloc.Heap.root_record_ranges 0)
  in
  let primary_line = List.nth record_lines 0 in
  let secondary_line = List.nth record_lines 1 in
  match k mod fault_kinds with
  | 0 -> ()
  | 4 -> Pmem.Region.corrupt_word region Pmalloc.Heap.summary_off
  | 1 -> Pmem.Region.arm_media_fault region ~line:primary_line
  | 2 ->
      Pmem.Region.arm_media_fault region ~line:primary_line;
      Pmem.Region.arm_media_fault region ~line:secondary_line
  | _ ->
      let first_heap_line =
        Pmalloc.Heap.heap_start_words / Pmem.Config.words_per_line
      in
      let nlines =
        Pmem.Region.capacity_words region / Pmem.Config.words_per_line
      in
      let span = max 1 (nlines - first_heap_line) in
      let line = first_heap_line + (abs (seed * 2_654_435_761) mod span) in
      Pmem.Region.arm_media_fault region ~line

type fault_outcome =
  | Recovered
  | Degraded of Mod_core.Error.t
  | Broken of string

(* One fault sample: a torn Randomize crash at [seed], fault kind [k] on
   top, and recovery judged by the degradation contract.  Unlike the
   fault-free oracle, a typed error is an acceptable outcome here: the
   injected fault was detected and surfaced -- except under kind 4,
   whose records are intact.  What must never happen is an untyped
   exception escaping recovery, or a successfully "recovered" state the
   oracle rejects (silent corruption). *)
let sample_fault (c : crashed) ~k ~seed =
  Pmalloc.Heap.crash ~mode:Pmem.Region.Randomize ~seed ~torn:true c.c_heap;
  inject_fault_kind (Pmalloc.Heap.region c.c_heap) ~k ~seed;
  let typed = function
    | Mod_core.Error.Error te -> Some te
    | e -> Mod_core.Recovery.typed_of_exn e
  in
  let raised e =
    match typed e with
    | Some te when k mod fault_kinds = summary_fault_kind ->
        Broken
          (Printf.sprintf
             "faults(kind %d): a corrupt root summary degraded recovery: %s" k
             (Mod_core.Error.to_string te))
    | Some te -> Degraded te
    | None ->
        Broken
          (Printf.sprintf "faults(kind %d): untyped exception escaped: %s" k
             (Printexc.to_string e))
  in
  match
    c.c_recover ();
    c.c_dump ()
  with
  | exception e -> raised e
  | s -> (
      match c.c_judge (Ok s) with
      | Oracle.Consistent -> Recovered
      | Oracle.Violation d ->
          Broken (Printf.sprintf "faults(kind %d): silent corruption: %s" k d))

(* -- the sampler ---------------------------------------------------------- *)

let failure subject ~crash_index ~mode ~survival_seed ?fault detail =
  let workload, writers, ops, schedule, persist =
    match subject with
    | Seq w -> (w.Workload.name, 0, w.Workload.ops, None, w.Workload.persist)
    | Conc (cw, s) -> (cw.Workload.cname, cw.cwriters, cw.cops, Some s, None)
  in
  { workload; writers; ops; schedule; persist; crash_index; mode;
    survival_seed; fault; detail }

type point_stats = {
  p_sampled : int;
  p_fsampled : int;
  p_frecovered : int;
  p_fdegraded : int;
  p_ffallbacks : int;
  p_fscans : int;
  p_failures : failure list;
}

(* Sample one crash point: snapshot the interrupted image, then for each
   mode (and each survival seed, under Randomize) restore, crash,
   recover and consult the oracle.  With [cfg.faults] the same point is
   additionally sampled under the fault schedule (torn crashes and armed
   media faults) against the weaker degradation contract.  The heap is
   left holding the interrupted image again, and the snapshot released. *)
let sample_point cfg subject ~crash_index (c : crashed) =
  let region = Pmalloc.Heap.region c.c_heap in
  let snap = Pmem.Region.snapshot region in
  let sampled = ref 0 in
  let failures = ref [] in
  let fail ~mode ~survival_seed ?fault detail =
    failures :=
      failure subject ~crash_index ~mode ~survival_seed ?fault detail
      :: !failures
  in
  List.iter
    (fun mode ->
      let samples =
        match mode with
        | Pmem.Region.Randomize -> cfg.randomize_samples
        | Pmem.Region.Drop_inflight | Pmem.Region.Keep_inflight -> 1
      in
      for k = 0 to samples - 1 do
        Pmem.Region.restore region snap;
        let seed =
          match mode with
          | Pmem.Region.Randomize ->
              Some (survival_seed cfg ~crash_index ~k)
          | _ -> None
        in
        Pmalloc.Heap.crash ~mode ?seed c.c_heap;
        incr sampled;
        match recover_and_check c with
        | Oracle.Consistent -> ()
        | Oracle.Violation detail -> fail ~mode ~survival_seed:seed detail
      done)
    modes;
  let fsampled = ref 0 in
  let frecovered = ref 0 in
  let fdegraded = ref 0 in
  let ffallbacks = ref 0 in
  let fscans = ref 0 in
  if cfg.faults then
    for k = 0 to fault_kinds - 1 do
      Pmem.Region.restore region snap;
      let seed = fault_seed cfg ~crash_index ~k in
      incr fsampled;
      let fb0 = Pmalloc.Heap.root_fallbacks c.c_heap in
      let sc0 = Pmalloc.Heap.summary_fallbacks c.c_heap in
      (match sample_fault c ~k ~seed with
      | Recovered -> incr frecovered
      | Degraded _ -> incr fdegraded
      | Broken d ->
          fail ~mode:Pmem.Region.Randomize ~survival_seed:(Some seed) ~fault:k
            d);
      ffallbacks := !ffallbacks + Pmalloc.Heap.root_fallbacks c.c_heap - fb0;
      fscans := !fscans + Pmalloc.Heap.summary_fallbacks c.c_heap - sc0;
      Pmem.Region.clear_media_faults region
    done;
  Pmem.Region.restore region snap;
  Pmem.Region.release region snap;
  {
    p_sampled = !sampled;
    p_fsampled = !fsampled;
    p_frecovered = !frecovered;
    p_fdegraded = !fdegraded;
    p_ffallbacks = !ffallbacks;
    p_fscans = !fscans;
    p_failures = List.rev !failures;
  }

(* -- the sweep driver ----------------------------------------------------- *)

(* A sweep's heap, rewound to its pristine snapshot before each run: a
   fresh heap per run, in O(state touched), with cold caches.  A fresh
   [Heap.create] costs little more, but its caches hold the root
   directory, and the recovery sim times the sweeps pin were taken from
   cold caches. *)
type scratch = { s_heap : Pmalloc.Heap.t; s_pristine : Pmem.Region.snapshot }

let rewind s = Pmalloc.Heap.reset_fresh s.s_heap ~pristine:s.s_pristine

(* A tested crash point: its captured image, the PM event the power
   would fail after, and the oracle fixed there. *)
type point = { image : Pmem.Region.point; crash_index : int; judge : judge }

(* A schedule's one execution, and the checks of its completed run. *)
type captured = {
  subject : subject;
  instance : instance;
  events : int;  (** PM events of the whole run *)
  points : point array;
  trace : Mod_core.Consistency.report option;
  final : failure option;  (** a wrong final state, at crash index -1 *)
}

(* Run [subject] once, uncrashed, on the rewound scratch heap, capturing
   every crash point the sweep tests (stride and cap included), then
   check the completed run while the heap still holds its final image:
   its trace goes to the Section 5.4 checker (when [trace]) before the
   final-state dump, so the checker reads the run's own trace. *)
let capture_run cfg scratch ~trace subject =
  rewind scratch;
  let heap = scratch.s_heap in
  let region = Pmalloc.Heap.region heap in
  let base_events = Pmem.Region.pm_events region in
  let i = instantiate heap subject in
  let marks = ref [] in
  Pmem.Region.capture region ~stride:cfg.stride ?max_points:cfg.max_points
    (fun () ->
      marks :=
        (Pmem.Region.pm_events region - base_events, i.i_judge_now ())
        :: !marks);
  i.i_body ();
  let points =
    Array.map2
      (fun image (crash_index, judge) -> { image; crash_index; judge })
      (Pmem.Region.captured region)
      (Array.of_list (List.rev !marks))
  in
  let events = Pmem.Region.pm_events region - base_events in
  let trace =
    if trace then Some (Mod_core.Consistency.check (Pmalloc.Heap.trace heap))
    else None
  in
  let final =
    match check_final (i.i_crashed (fun r -> i.i_judge_now () r)) with
    | Oracle.Consistent -> None
    | Oracle.Violation d ->
        Some
          (failure subject ~crash_index:(-1) ~mode:Pmem.Region.Keep_inflight
             ~survival_seed:None d)
  in
  { subject; instance = i; events; points; trace; final }

type chunk = {
  ch_tested : int;
  ch_sampled : int;
  ch_fsampled : int;
  ch_frecovered : int;
  ch_fdegraded : int;
  ch_ffallbacks : int;
  ch_fscans : int;
  ch_resweeps : int;  (** shards re-run sequentially after worker death *)
  ch_failures : (int * failure) list;
      (** tagged with their schedule's index, in work-item order *)
}

(* Sample every (schedule index, point index) item of [items], in order,
   on the scratch heap: each schedule's points are rebuilt from the
   pristine image up, and [sample_point] hands each tested point's image
   back, so the next point applies on top of it. *)
let sweep_chunk cfg scratch (runs : captured array) items =
  let region = Pmalloc.Heap.region scratch.s_heap in
  let tested = ref 0 in
  let sampled = ref 0 in
  let fsampled = ref 0 in
  let frecovered = ref 0 in
  let fdegraded = ref 0 in
  let ffallbacks = ref 0 in
  let fscans = ref 0 in
  let failures = ref [] in
  let schedule = ref (-1) and applied = ref 0 in
  List.iter
    (fun (si, k) ->
      let r = runs.(si) in
      if si <> !schedule then begin
        rewind scratch;
        schedule := si;
        applied := 0
      end;
      while !applied <= k do
        Pmem.Region.apply_point region r.points.(!applied).image;
        incr applied
      done;
      incr tested;
      let { crash_index; judge; _ } = r.points.(k) in
      let p =
        sample_point cfg r.subject ~crash_index (r.instance.i_crashed judge)
      in
      sampled := !sampled + p.p_sampled;
      fsampled := !fsampled + p.p_fsampled;
      frecovered := !frecovered + p.p_frecovered;
      fdegraded := !fdegraded + p.p_fdegraded;
      ffallbacks := !ffallbacks + p.p_ffallbacks;
      fscans := !fscans + p.p_fscans;
      List.iter (fun f -> failures := (si, f) :: !failures) p.p_failures)
    items;
  {
    ch_tested = !tested;
    ch_sampled = !sampled;
    ch_fsampled = !fsampled;
    ch_frecovered = !frecovered;
    ch_fdegraded = !fdegraded;
    ch_ffallbacks = !ffallbacks;
    ch_fscans = !fscans;
    ch_resweeps = 0;
    ch_failures = List.rev !failures;
  }

(* Fork one worker per partition of the work items; each inherits the
   scratch heap and the captures and marshals its chunk back over a
   pipe.  Round-robin partitioning plus a stable merge keyed on
   (schedule, crash index) reproduces the sequential failure order
   exactly (within one crash point all samples come from the same
   worker, in canonical mode/seed order).

   A worker that dies -- killed by the OS, or crashing before it could
   marshal its chunk -- must not abort the sweep: its partition is
   re-swept sequentially in the parent (work items are pure inputs, so
   the re-run is identical to what the worker would have produced) and
   the rescue is counted in the summary. *)
let sweep_parallel cfg scratch runs items ~jobs =
  let parts = Array.make jobs [] in
  List.iteri (fun i x -> parts.(i mod jobs) <- x :: parts.(i mod jobs)) items;
  flush stdout;
  flush stderr;
  let children =
    Array.to_list parts
    |> List.mapi (fun idx part -> (idx, List.rev part))
    |> List.filter_map (fun (idx, part) ->
           if part = [] then None
           else
             let rd, wr = Unix.pipe () in
             match Unix.fork () with
             | 0 ->
                 Unix.close rd;
                 if cfg.worker_kill = Some idx then Unix._exit 117;
                 let status =
                   match sweep_chunk cfg scratch runs part with
                   | chunk ->
                       let oc = Unix.out_channel_of_descr wr in
                       Marshal.to_channel oc chunk [];
                       flush oc;
                       close_out oc;
                       0
                   | exception e ->
                       Printf.eprintf "crashtest worker: %s\n%!"
                         (Printexc.to_string e);
                       1
                 in
                 (* not [exit]: at_exit handlers would replay the parent's
                    buffered output *)
                 Unix._exit status
             | pid ->
                 Unix.close wr;
                 Some (pid, rd, part))
  in
  let chunks, resweeps =
    List.fold_left
      (fun (chunks, resweeps) (pid, rd, part) ->
        let ic = Unix.in_channel_of_descr rd in
        let chunk =
          match (Marshal.from_channel ic : chunk) with
          | c -> Some c
          | exception (End_of_file | Failure _) -> None
        in
        close_in ic;
        let _, status = Unix.waitpid [] pid in
        match (chunk, status) with
        | Some c, Unix.WEXITED 0 -> (c :: chunks, resweeps)
        | _ ->
            cfg.log
              (Printf.sprintf
                 "explorer: worker pid %d died (%s); re-sweeping its %d \
                  point(s) sequentially"
                 pid
                 (match status with
                 | Unix.WEXITED n -> Printf.sprintf "exit %d" n
                 | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
                 | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)
                 (List.length part));
            (sweep_chunk cfg scratch runs part :: chunks, resweeps + 1))
      ([], 0) children
  in
  let chunks = List.rev chunks in
  let sum f = List.fold_left (fun a c -> a + f c) 0 chunks in
  {
    ch_tested = sum (fun c -> c.ch_tested);
    ch_sampled = sum (fun c -> c.ch_sampled);
    ch_fsampled = sum (fun c -> c.ch_fsampled);
    ch_frecovered = sum (fun c -> c.ch_frecovered);
    ch_fdegraded = sum (fun c -> c.ch_fdegraded);
    ch_ffallbacks = sum (fun c -> c.ch_ffallbacks);
    ch_fscans = sum (fun c -> c.ch_fscans);
    ch_resweeps = resweeps;
    ch_failures = List.concat_map (fun c -> c.ch_failures) chunks;
  }

let resolve_jobs cfg =
  let requested =
    if cfg.jobs = 0 then Domain.recommended_domain_count () else cfg.jobs
  in
  let requested = max 1 requested in
  if requested > 1 && not Sys.unix then begin
    cfg.log "explorer: no fork on this platform, falling back to sequential";
    1
  end
  else requested

type swept = {
  total_events : int;  (** summed over schedules *)
  skipped : int;
  chunk : chunk;
  trace_report : Mod_core.Consistency.report option;
  failures : failure list;
  wall_seconds : float;
}

(* The one sweep body: capture and check one run per subject, then
   sample every captured point of every run, sequentially or across
   forked workers. *)
let sweep cfg subjects ~name ~concurrent ~trace =
  let t0 = Unix.gettimeofday () in
  let heap = fresh_heap () in
  let scratch =
    { s_heap = heap; s_pristine = Pmalloc.Heap.pristine_snapshot heap }
  in
  let runs =
    Array.of_list (List.map (capture_run cfg scratch ~trace) subjects)
  in
  let items =
    List.concat
      (List.mapi
         (fun si r -> List.init (Array.length r.points) (fun k -> (si, k)))
         (Array.to_list runs))
  in
  let jobs = min (resolve_jobs cfg) (max 1 (List.length items)) in
  let chunk =
    if jobs > 1 then sweep_parallel cfg scratch runs items ~jobs
    else sweep_chunk cfg scratch runs items
  in
  let total_events = Array.fold_left (fun n r -> n + r.events) 0 runs in
  let skipped = max 0 (total_events - chunk.ch_tested) in
  if skipped > 0 then
    cfg.log
      (Printf.sprintf
         "%s: tested %d of %d %scrash points (stride %d%s), %d skipped" name
         chunk.ch_tested total_events
         (if concurrent then "concurrent " else "")
         cfg.stride
         (match cfg.max_points with
         | Some m when concurrent -> Printf.sprintf ", cap %d/schedule" m
         | Some m -> Printf.sprintf ", cap %d" m
         | None -> "")
         skipped);
  (* by schedule, then crash index (each run's final check, index -1,
     first); samples of one point keep their order *)
  let failures =
    List.concat
      (List.mapi
         (fun si r -> List.map (fun f -> (si, f)) (Option.to_list r.final))
         (Array.to_list runs))
    @ chunk.ch_failures
    |> List.stable_sort (fun (si, (a : failure)) (sj, (b : failure)) ->
           compare (si, a.crash_index) (sj, b.crash_index))
    |> List.map snd
  in
  {
    total_events;
    skipped;
    chunk;
    trace_report = Array.to_list runs |> List.find_map (fun r -> r.trace);
    failures;
    wall_seconds = Unix.gettimeofday () -. t0;
  }

let explore ?(cfg = default) (w : Workload.t) =
  let s =
    sweep cfg [ Seq w ] ~name:w.name ~concurrent:false ~trace:w.check_trace
  in
  {
    workload = w.name;
    ops = w.ops;
    total_events = s.total_events;
    points_tested = s.chunk.ch_tested;
    points_skipped = s.skipped;
    crashes_sampled = s.chunk.ch_sampled;
    fault_samples = s.chunk.ch_fsampled;
    fault_recovered = s.chunk.ch_frecovered;
    fault_degraded = s.chunk.ch_fdegraded;
    fault_fallbacks = s.chunk.ch_ffallbacks;
    fault_scans = s.chunk.ch_fscans;
    shards_resequenced = s.chunk.ch_resweeps;
    wall_seconds = s.wall_seconds;
    trace_report = s.trace_report;
    failures = s.failures;
  }

(* The default schedule set: round-robin at co-prime quanta (tight
   alternation through coarse slices) plus seeded random walks. *)
let default_schedules =
  [
    Interleave.Round_robin 1;
    Interleave.Round_robin 3;
    Interleave.Round_robin 7;
    Interleave.Seeded 1;
    Interleave.Seeded 2;
  ]

let explore_concurrent ?(cfg = default) ?(schedules = default_schedules)
    (cw : Workload.ct) =
  let s =
    sweep cfg
      (List.map (fun schedule -> Conc (cw, schedule)) schedules)
      ~name:cw.cname ~concurrent:true ~trace:false
  in
  {
    cr_workload = cw.cname;
    cr_writers = cw.cwriters;
    cr_ops = cw.cops;
    cr_schedules = List.length schedules;
    cr_total_events = s.total_events;
    cr_points_tested = s.chunk.ch_tested;
    cr_points_skipped = s.skipped;
    cr_crashes_sampled = s.chunk.ch_sampled;
    cr_wall_seconds = s.wall_seconds;
    cr_failures = s.failures;
  }

let pp_failure ppf (f : failure) =
  Format.fprintf ppf "%s" f.workload;
  Option.iter
    (fun s ->
      Format.fprintf ppf " (%d writers, schedule %s)" f.writers
        (Interleave.schedule_name s))
    f.schedule;
  Format.fprintf ppf ": ";
  if f.crash_index >= 0 then
    Format.fprintf ppf "crash after PM event %d (mode %s%s): " f.crash_index
      (mode_name f.mode)
      (match f.survival_seed with
      | Some s -> Printf.sprintf ", survival seed %d" s
      | None -> "");
  Format.pp_print_string ppf f.detail

let pp_result ppf r =
  Format.fprintf ppf
    "%-12s %5d events, %5d points tested (%d skipped), %6d crash samples in \
     %.2fs (%.0f points/s), %s%s%s%s"
    r.workload r.total_events r.points_tested r.points_skipped
    r.crashes_sampled r.wall_seconds (points_per_sec r)
    (match r.trace_report with
    | Some rep when not (Mod_core.Consistency.ok rep) ->
        Printf.sprintf "trace: %d violation(s), "
          (List.length rep.Mod_core.Consistency.violations)
    | Some _ -> "trace: ok, "
    | None -> "")
    (match r.failures with
    | [] -> "oracle: ok"
    | fs -> Printf.sprintf "oracle: %d violation(s)" (List.length fs))
    (if r.fault_samples > 0 then
       Printf.sprintf ", faults: %d samples (%d recovered, %d degraded, %d \
                       root fallbacks, %d summary fallbacks)"
         r.fault_samples r.fault_recovered r.fault_degraded r.fault_fallbacks
         r.fault_scans
     else "")
    (if r.shards_resequenced > 0 then
       Printf.sprintf ", %d shard(s) re-swept after worker death"
         r.shards_resequenced
     else "")

let pp_cresult ppf r =
  Format.fprintf ppf
    "%-12s %d writers x %d ops, %d schedules, %5d events, %5d points tested \
     (%d skipped), %6d crash samples in %.2fs (%.0f points/s), %s"
    r.cr_workload r.cr_writers r.cr_ops r.cr_schedules r.cr_total_events
    r.cr_points_tested r.cr_points_skipped r.cr_crashes_sampled
    r.cr_wall_seconds (cpoints_per_sec r)
    (match r.cr_failures with
    | [] -> "oracle: ok"
    | fs -> Printf.sprintf "oracle: %d violation(s)" (List.length fs))
