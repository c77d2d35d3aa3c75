(** Minimal-repro replay and shrinking.

    Every explorer failure is identified by a small tuple: (workload,
    ops, crash event index, mode, survival seed), plus the commit policy
    for sequential workloads and (writers, interleaving schedule) for
    concurrent ones.  [replay] re-runs
    exactly that crash deterministically, [command] prints the CLI
    incantation that does the same, and [minimize] shrinks the workload
    to the smallest operation count that still reproduces the failure.

    Replay always executes on a fresh heap and crashes the live image
    directly -- no snapshots, no workers -- so a repro command reproduces
    bit-for-bit regardless of the [jobs] ([--jobs]) setting the sweep
    that found it ran under. *)

(* Re-run one fault sample: [None] when the crash index lies beyond the
   run's last PM event. *)
let replay_fault ?(cfg = Explorer.default) subject ~crash_index ~k ~seed =
  match Explorer.run cfg subject ~budget:(Some crash_index) with
  | `Completed _ -> None
  | `Crashed c -> Some (Explorer.sample_fault c ~k ~seed)

(* Re-run one crash point, single sample.  [None] means the crash index
   lies beyond the run's last PM event (nothing to inject); index -1
   replays the uncrashed final-state check.  A fault sample is judged as
   the sweep judges it: a typed error passes. *)
let replay ?(cfg = Explorer.default) subject ~crash_index ~mode ?seed ?fault
    () =
  match fault with
  | Some k ->
      let seed =
        match seed with
        | Some s -> s
        | None -> invalid_arg "Replay.replay: a fault sample needs its seed"
      in
      Option.map
        (function
          | Explorer.Recovered | Explorer.Degraded _ -> Oracle.Consistent
          | Explorer.Broken d -> Oracle.Violation d)
        (replay_fault ~cfg subject ~crash_index ~k ~seed)
  | None when crash_index < 0 -> (
      match Explorer.run cfg subject ~budget:None with
      | `Completed (_, c) -> Some (Explorer.check_final c)
      | `Crashed _ -> None)
  | None -> (
      match Explorer.run cfg subject ~budget:(Some crash_index) with
      | `Completed _ -> None
      | `Crashed c ->
          Pmalloc.Heap.crash ~mode ?seed c.Explorer.c_heap;
          Some (Explorer.recover_and_check c))

let command (f : Explorer.failure) =
  let writers, schedule =
    match f.schedule with
    | Some s ->
        ( Printf.sprintf " --writers %d" f.writers,
          Printf.sprintf " --schedule %s" (Interleave.schedule_name s) )
    | None -> ("", "")
  in
  Printf.sprintf
    "modpm crashtest --workload %s%s --ops %d%s%s --replay%s%d --mode %s%s"
    f.workload writers f.ops schedule
    (match f.persist with
    | Some p -> " --persist " ^ Pmalloc.Heap.policy_name p
    | None -> "")
    (* a bare -1 would parse as an option *)
    (if f.crash_index < 0 then "=" else " ")
    f.crash_index
    (Explorer.mode_name f.mode)
    (match (f.fault, f.survival_seed) with
    | Some k, Some s ->
        Printf.sprintf " --faults --seed %d --survival-seed %d"
          (Explorer.fault_sweep_seed ~crash_index:f.crash_index ~k s)
          s
    | _, Some s -> Printf.sprintf " --survival-seed %d" s
    | _, None -> "")

(* The failing run, rebuilt with [ops] operations (per writer). *)
let subject_of (f : Explorer.failure) ~ops =
  match f.schedule with
  | None -> Explorer.Seq (Workload.build ?persist:f.persist f.workload ~ops)
  | Some s ->
      Explorer.Conc (Workload.cbuild f.workload ~writers:f.writers ~ops, s)

(* The failure's crash point replayed with [ops] operations. *)
let rerun ?cfg (f : Explorer.failure) ~ops =
  replay ?cfg (subject_of f ~ops) ~crash_index:f.crash_index ~mode:f.mode
    ?seed:f.survival_seed ?fault:f.fault ()

let reproduces ?cfg (f : Explorer.failure) =
  match rerun ?cfg f ~ops:f.ops with
  | Some (Oracle.Violation _) -> true
  | Some Oracle.Consistent | None -> false

(* Shrink the workload length: try 1, 2, 4, ... operations and keep the
   first count whose execution still reaches the crash index and still
   violates the oracle there (the crash index and survival seed are
   preserved, so the repro stays bit-for-bit deterministic). *)
let minimize ?cfg (f : Explorer.failure) =
  let rec go ops =
    if ops >= f.ops then f
    else
      match rerun ?cfg f ~ops with
      | Some (Oracle.Violation detail) -> { f with ops; detail }
      | Some Oracle.Consistent | None -> go (ops * 2)
  in
  go 1
