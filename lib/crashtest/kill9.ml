(** Real kill-9 crash harness.

    Everything the explorer proves is simulated: crashes are exceptions
    and the "durable image" is an array in the same process.  This
    harness makes the durability claim external.  A forked worker
    ([serve]) applies a deterministic {!Workload} script to a
    {e file-backed} heap, acking each completed operation over a pipe;
    the driver ([run]) SIGKILLs it -- at a random instant of the
    worker's run, or deterministically {e inside} the file backend's writeback protocol
    via the {!Pmem.Backing.sync_phase} hook -- then reopens the image in
    the surviving process ({!Mod_core.Recovery.open_file}), dumps the
    recovered abstract state and checks it against the durable-
    linearizability oracle.

    The oracle window for a real kill.  Let [A] be the highest acked
    operation.  Op [A]'s commit fenced before its root swing, so every
    root write up to the last state-changing op [m <= A] {e before} it
    was drained -- the file holds [model.(A)] once op [A+1]'s fence
    commits, and the newest state before it that differs
    ([model.(m-1)]) until then.  Op [A+1]'s own root swing can never
    reach the file (that needs op [A+2]'s fence, which needs the ack we
    did not get), so the window is exactly {!Oracle.check}'s over the
    acked prefix: latest committed state or the previous distinct one.
    A mid-writeback kill resolves to one edge of the same window: a
    committed journal replays forward to [model.(A)], a torn one
    discards back.  A kill before the worker's first ack may predate
    the image's formatting commit; only then is a typed open error
    acceptable.  A worker that completes fences once more and acks
    [done], pinning the file to exactly [model.(ops)]. *)

type plan =
  | Complete  (** no kill: calibration + exact-final-state check *)
  | Timer of float  (** SIGKILL after this many wall-clock seconds *)
  | At_sync of { commit : int; phase : Pmem.Backing.sync_phase }
      (** worker SIGKILLs itself inside its [commit]-th file batch *)

let plan_name = function
  | Complete -> "complete"
  | Timer s -> Printf.sprintf "timer %.1fms" (s *. 1e3)
  | At_sync { commit; phase } ->
      Printf.sprintf "sync %d/%s" commit (Pmem.Backing.phase_name phase)

(* Workloads whose recovery path is self-contained (no PM-STM transaction
   handle to rebuild in a fresh process); the shard targets are too. *)
let names = Workload.basic_names @ [ "batched"; "siblings" ]

(* -- the worker (runs in the forked child, or standalone via modpm serve) *)

let write_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

(* Apply [workload] against a fresh file-backed heap at [path], acking
   progress on [ack_fd]: "r" once the image is formatted (first commit
   done), "i" after workload init, "1".."ops" per completed operation,
   then "done <file-commits>" after a final fence pins the image to the
   last state.  [kill_at] arms a self-SIGKILL inside the given file
   batch, for deterministic mid-writeback kills. *)
let serve ?(capacity_words = 1 lsl 16) ?kill_at ?persist ~path ~workload ~ops
    ~ack_fd () =
  let w = Workload.build ?persist workload ~ops in
  let heap = Pmalloc.Heap.create ~capacity_words ~file:path () in
  (match kill_at with
  | None -> ()
  | Some (commit, phase) ->
      Pmem.Region.set_file_sync_hook (Pmalloc.Heap.region heap)
        (fun p ordinal ->
          if ordinal = commit && p = phase then
            Unix.kill (Unix.getpid ()) Sys.sigkill));
  write_line ack_fd "r";
  let inst = w.Workload.make heap in
  inst.Workload.init ();
  write_line ack_fd "i";
  for i = 0 to ops - 1 do
    inst.Workload.run_op i;
    write_line ack_fd (string_of_int (i + 1))
  done;
  (* drain the last root write so the image is exactly model.(ops) *)
  Pmalloc.Heap.sfence heap;
  write_line ack_fd
    (Printf.sprintf "done %d"
       (Pmem.Region.file_commits (Pmalloc.Heap.region heap)));
  Pmalloc.Heap.close heap

(* -- per-trial bookkeeping ----------------------------------------------- *)

type outcome =
  | Consistent of int option
      (** matched the oracle window; the model index when unique *)
  | Violation of string
  | Typed_error of string  (** typed degradation (only OK pre-format) *)
  | Escaped of string  (** a raw exception leaked somewhere *)

type trial = {
  t_index : int;
  t_workload : string;
  t_plan : plan;
  t_acked : int;  (** completed ops acked; -1 = killed before format *)
  t_completed : bool;
  t_journal : [ `None | `Replayed of int | `Discarded ] option;
  t_reopen_ns : float;  (** 0 when the image never reopened *)
  t_fsck : Pmalloc.Fsck.verdict;
  t_outcome : outcome;
}

type result = {
  workload : string;
  ops : int;
  kills : int;
  trials : trial list;
  violations : int;
  escaped : int;
  typed_errors : int;  (** typed degradations on pre-format kills (benign) *)
  completed_runs : int;
  replayed : int;
  discarded : int;
  clean_journals : int;
  fsck_clean : int;
  fsck_degraded : int;
  fsck_corrupt : int;
  max_reopen_ns : float;
  mean_reopen_ns : float;
  run_span : float;  (** the calibration worker's run, in seconds *)
  wall_seconds : float;
}

let ok r = r.violations = 0 && r.escaped = 0

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>kill9 %s: %d trials (%d completed), %d violations, %d escaped@ \
     journals: %d replayed, %d discarded, %d clean; fsck: %d clean, %d \
     degraded, %d corrupt@ reopen: mean %.2fms, max %.2fms; wall %.1fs@]"
    r.workload r.kills r.completed_runs r.violations r.escaped r.replayed
    r.discarded r.clean_journals r.fsck_clean r.fsck_degraded r.fsck_corrupt
    (r.mean_reopen_ns /. 1e6) (r.max_reopen_ns /. 1e6) r.wall_seconds

(* -- the driver ---------------------------------------------------------- *)

let is_done line = String.starts_with ~prefix:"done " line

(* Read acks until EOF; for [Timer] plans, SIGKILL the child when the
   deadline passes and keep reading (the pipe still holds everything the
   child wrote before dying).  Also returns the worker's run as a Timer
   deadline counts it: seconds to its done ack, or to EOF without one. *)
let collect_acks rfd pid plan =
  let buf = Buffer.create 512 in
  let bytes = Bytes.create 4096 in
  let t0 = Unix.gettimeofday () in
  let finished = ref None in
  let deadline =
    match plan with
    | Timer s -> Some (t0 +. s)
    | Complete | At_sync _ -> None
  in
  let deadline = ref deadline in
  let rec loop () =
    let timeout =
      match !deadline with
      | None -> -1.0
      | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
    in
    let fire () =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      deadline := None
    in
    match Unix.select [ rfd ] [] [] timeout with
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | [], _, _ ->
        fire ();
        loop ()
    | _ -> (
        match Unix.read rfd bytes 0 (Bytes.length bytes) with
        | exception Unix.Unix_error (EINTR, _, _) -> loop ()
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf bytes 0 n;
            if
              !finished = None
              && List.exists is_done
                   (String.split_on_char '\n' (Buffer.contents buf))
            then finished := Some (Unix.gettimeofday ());
            loop ())
  in
  loop ();
  let finished = Option.value !finished ~default:(Unix.gettimeofday ()) in
  ( String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> ""),
    finished -. t0 )

type acks = {
  a_ready : bool;
  a_acked : int;
  a_done : int option;  (** the file commits of a worker that finished *)
  a_exn : string option;
}

let parse_acks lines =
  List.fold_left
    (fun a line ->
      match line with
      | "r" -> { a with a_ready = true }
      | "i" -> a
      | _ when is_done line ->
          let commits = String.sub line 5 (String.length line - 5) in
          { a with a_done = int_of_string_opt commits }
      | _ when String.length line >= 3 && String.sub line 0 3 = "exn" ->
          { a with a_exn = Some line }
      | n -> (
          match int_of_string_opt n with
          | Some k -> { a with a_acked = max a.a_acked k }
          | None -> a))
    { a_ready = false; a_acked = 0; a_done = None; a_exn = None }
    lines

(* One forked kill trial: spawn the worker on a fresh image, execute the
   kill plan, fsck the raw post-mortem image, reopen it, and judge the
   recovered state.  Also returns the file commits a finished worker
   reported and its run's seconds. *)
let trial ~dir ~keep ~capacity_words ?persist (w : Workload.t) ~index plan =
  let path = Filename.concat dir (Printf.sprintf "kill_%04d.img" index) in
  let rfd, wfd = Unix.pipe ~cloexec:false () in
  let kill_at =
    match plan with
    | At_sync { commit; phase } -> Some (commit, phase)
    | Complete | Timer _ -> None
  in
  (match Unix.fork () with
  | 0 -> (
      Unix.close rfd;
      match
        serve ~capacity_words ?kill_at ?persist ~path
          ~workload:w.Workload.name ~ops:w.Workload.ops ~ack_fd:wfd ()
      with
      | () -> Unix._exit 0
      | exception e ->
          write_line wfd ("exn " ^ Printexc.to_string e);
          Unix._exit 3)
  | pid -> (
      Unix.close wfd;
      let lines, span = collect_acks rfd pid plan in
      Unix.close rfd;
      ignore (Unix.waitpid [] pid);
      let acks = parse_acks lines in
      (* the raw post-mortem image, journal and all, before the reopen
         mutates it *)
      let fsck =
        match Pmalloc.Fsck.check path with
        | r -> r.Pmalloc.Fsck.verdict
        | exception e ->
            (* fsck must classify every image without crashing *)
            ignore (Printexc.to_string e : string);
            Pmalloc.Fsck.Corrupt
      in
      let journal = ref None in
      let reopen_ns = ref 0.0 in
      let outcome =
        match acks.a_exn with
        | Some m -> Escaped m
        | None -> (
            match Mod_core.Recovery.open_file ~path () with
            | Error e ->
                (* only a kill that predates the formatting commit can
                   leave an unopenable (virgin) image behind *)
                if acks.a_ready then
                  Violation
                    (Printf.sprintf "formatted image failed to reopen: %s"
                       (Mod_core.Error.to_string e))
                else Typed_error (Mod_core.Error.to_string e)
            | Ok report -> (
                journal := Some report.Mod_core.Recovery.journal;
                reopen_ns := report.Mod_core.Recovery.reopen_ns;
                let heap = report.Mod_core.Recovery.heap in
                let recovered =
                  match
                    let inst = w.Workload.make heap in
                    inst.Workload.dump ()
                  with
                  | s -> Ok s
                  | exception e -> Error e
                in
                Pmalloc.Heap.close heap;
                let model = w.Workload.model in
                (* the acked prefix, newest first: the oracle's window
                   over it is the one argued in the header *)
                let history =
                  if acks.a_done <> None then [ model.(w.Workload.ops) ]
                  else
                    let a = max 0 acks.a_acked in
                    List.init (a + 1) (fun i -> model.(a - i))
                in
                match Oracle.check ~history ~pending:None ~recovered with
                | Oracle.Consistent ->
                    let idx =
                      match recovered with
                      | Ok s ->
                          let found = ref None in
                          Array.iteri
                            (fun j m -> if !found = None && m = s then
                                found := Some j)
                            model;
                          !found
                      | Error _ -> None
                    in
                    Consistent idx
                | Oracle.Violation d ->
                    Violation
                      (Printf.sprintf "%s (acked %d, plan %s)" d acks.a_acked
                         (plan_name plan))))
      in
      if not keep then begin
        if Sys.file_exists path then Sys.remove path;
        let j = path ^ ".journal" in
        if Sys.file_exists j then Sys.remove j
      end;
      ( {
          t_index = index;
          t_workload = w.Workload.name;
          t_plan = plan;
          t_acked = (if acks.a_ready then acks.a_acked else -1);
          t_completed = acks.a_done <> None;
          t_journal = !journal;
          t_reopen_ns = !reopen_ns;
          t_fsck = fsck;
          t_outcome = outcome;
        },
        acks.a_done,
        span ))
  | exception e ->
      Unix.close rfd;
      Unix.close wfd;
      raise e)

let phases =
  [|
    Pmem.Backing.Journal_torn; Pmem.Backing.Journal_committed;
    Pmem.Backing.Mid_apply; Pmem.Backing.Applied;
  |]

let run ?(dir = Filename.get_temp_dir_name ()) ?(ops = 60) ?(seed = 7)
    ?(keep = false) ?(capacity_words = 1 lsl 16) ?(log = ignore) ?persist
    ~workload ~kills () =
  if not (List.mem workload names || Workload.is_shard workload) then
    invalid_arg
      (Printf.sprintf
         "Kill9.run: unsupported workload %S (expected %s, or a shard target)"
         workload (String.concat ", " names));
  let w = Workload.build ?persist workload ~ops in
  let rng = Random.State.make [| seed; Hashtbl.hash workload |] in
  let t0 = Unix.gettimeofday () in
  (* calibration trial: complete run, exact final state, commit count,
     and the worker's run time (no fork, fsck, reopen or judge), the
     span Timer deadlines fall in *)
  let calib, calib_commits, run_span =
    trial ~dir ~keep ~capacity_words ?persist w ~index:0 Complete
  in
  (* the deterministic run's file commits, the last of them the final
     fence before its done ack *)
  let commits = max 2 (Option.value calib_commits ~default:2) in
  let make_plan i =
    if i land 1 = 0 then Timer (Random.State.float rng run_span)
    else
      (* ordinal 1 is the formatting commit inside Heap.create, which
         precedes hook installation: draw from [2, commits] *)
      At_sync
        {
          commit = 2 + Random.State.int rng (commits - 1);
          phase = phases.(Random.State.int rng (Array.length phases));
        }
  in
  let trials = ref [ calib ] in
  for i = 1 to kills do
    let t, _, _ =
      trial ~dir ~keep ~capacity_words ?persist w ~index:i (make_plan i)
    in
    trials := t :: !trials;
    if i mod 25 = 0 then
      log (Printf.sprintf "kill9 %s: %d/%d trials" workload i kills)
  done;
  let trials = List.rev !trials in
  let count f = List.length (List.filter f trials) in
  let reopens = List.filter (fun t -> t.t_reopen_ns > 0.0) trials in
  let sum_reopen =
    List.fold_left (fun a t -> a +. t.t_reopen_ns) 0.0 reopens
  in
  {
    workload;
    ops;
    kills = List.length trials;
    trials;
    violations =
      count (fun t ->
          match t.t_outcome with Violation _ -> true | _ -> false);
    escaped =
      count (fun t -> match t.t_outcome with Escaped _ -> true | _ -> false);
    typed_errors =
      count (fun t ->
          match t.t_outcome with Typed_error _ -> true | _ -> false);
    completed_runs = count (fun t -> t.t_completed);
    replayed =
      count (fun t ->
          match t.t_journal with Some (`Replayed _) -> true | _ -> false);
    discarded =
      count (fun t -> t.t_journal = Some `Discarded);
    clean_journals = count (fun t -> t.t_journal = Some `None);
    fsck_clean = count (fun t -> t.t_fsck = Pmalloc.Fsck.Clean);
    fsck_degraded = count (fun t -> t.t_fsck = Pmalloc.Fsck.Degraded);
    fsck_corrupt = count (fun t -> t.t_fsck = Pmalloc.Fsck.Corrupt);
    max_reopen_ns =
      List.fold_left (fun a t -> Float.max a t.t_reopen_ns) 0.0 trials;
    mean_reopen_ns =
      (if reopens = [] then 0.0
       else sum_reopen /. float_of_int (List.length reopens));
    run_span;
    wall_seconds = Unix.gettimeofday () -. t0;
  }

let failures r =
  List.filter_map
    (fun t ->
      match t.t_outcome with
      | Violation m | Escaped m ->
          Some
            (Printf.sprintf "trial %d (%s, plan %s, acked %d): %s" t.t_index
               t.t_workload (plan_name t.t_plan) t.t_acked m)
      | Consistent _ | Typed_error _ -> None)
    r.trials
