(** Real kill-9 crash harness.

    Everything the explorer proves is simulated: crashes are exceptions
    and the "durable image" is an array in the same process.  This
    harness makes the durability claim external.  A forked worker
    ([serve]) applies a deterministic {!Workload} script to a
    {e file-backed} heap, acking each completed operation over a pipe;
    the driver ([run]) has it SIGKILL itself at one kill point, then
    reopens the image in the surviving process
    ({!Mod_core.Recovery.open_file}), dumps the recovered abstract state
    and checks it against the durable-linearizability oracle.

    The kill points.  The worker's run is deterministic, so one
    calibration run lists every point in event order: the four
    writeback phases ({!Pmem.Backing.sync_phase}) of each file commit,
    the formatting commit inside {!Pmalloc.Heap.create} included, and
    each ack boundary, right after the worker acked an operation.  A
    SIGKILL keeps the page cache, so a kill leaves the image either
    between two commits or at a syscall boundary inside one, and reopen
    resolves it to the state before or after that commit: the phases
    reach both sides of every commit, through a torn and a committed
    journal, and an ack boundary pairs the image between commits with
    the newest ack (the only pairing when the next op commits nothing).
    A sweep tests the points at an even stride, the way the explorer
    strides PM events.

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
    discards back.  A kill inside the formatting commit precedes the
    worker's first ack; only then is a typed open error acceptable.  A
    worker that completes fences once more and acks [done], pinning the
    file to exactly [model.(ops)]. *)

type point =
  | At_sync of { commit : int; phase : Pmem.Backing.sync_phase }
  | After_ack of int

let point_name = function
  | At_sync { commit; phase } ->
      Printf.sprintf "sync %d/%s" commit (Pmem.Backing.phase_name phase)
  | After_ack i -> Printf.sprintf "ack %d" i

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
   done), "i" after workload init, "<i> <file-commits>" per completed
   operation, then "done <file-commits>" after a final fence pins the
   image to the last state.  [kill] makes the worker SIGKILL itself at
   that point. *)
let serve ?(capacity_words = 1 lsl 16) ?kill ?persist ~path ~workload ~ops
    ~ack_fd () =
  let w = Workload.build ?persist workload ~ops in
  let die () = Unix.kill (Unix.getpid ()) Sys.sigkill in
  let sync_hook =
    match kill with
    | Some (At_sync { commit; phase }) ->
        Some (fun p ordinal -> if ordinal = commit && p = phase then die ())
    | Some (After_ack _) | None -> None
  in
  let heap = Pmalloc.Heap.create ~capacity_words ?sync_hook ~file:path () in
  let commits () = Pmem.Region.file_commits (Pmalloc.Heap.region heap) in
  write_line ack_fd "r";
  let inst = w.Workload.make heap in
  inst.Workload.init ();
  write_line ack_fd "i";
  for i = 1 to ops do
    inst.Workload.run_op (i - 1);
    write_line ack_fd (Printf.sprintf "%d %d" i (commits ()));
    if kill = Some (After_ack i) then die ()
  done;
  (* drain the last root write so the image is exactly model.(ops) *)
  Pmalloc.Heap.sfence heap;
  write_line ack_fd (Printf.sprintf "done %d" (commits ()));
  Pmalloc.Heap.close heap

(* -- per-trial bookkeeping ----------------------------------------------- *)

type outcome =
  | Consistent of int option
  | Violation of string
  | Typed_error of string
  | Escaped of string

type trial = {
  t_point : point option;
  t_index : int;
  t_acked : int;
  t_completed : bool;
  t_journal : [ `None | `Replayed of int | `Discarded ] option;
  t_reopen_ns : float;
  t_fsck : Pmalloc.Fsck.verdict;
  t_outcome : outcome;
}

type result = {
  workload : string;
  ops : int;
  persist : Pmalloc.Heap.policy option;
  dir : string;
  kills : int;
  points : int;
  stride : int;
  trials : trial list;
  wall_seconds : float;
}

(* Why a trial fails the sweep: a violation, an escaped exception, a
   point that did not kill, or a calibration run that did not finish. *)
let failure t =
  match (t.t_outcome, t.t_point, t.t_completed) with
  | (Violation m | Escaped m), _, _ -> Some m
  | _, Some _, true ->
      Some "the worker ran to completion: the point did not kill"
  | _, None, false -> Some "the calibration run did not complete"
  | (Consistent _ | Typed_error _), _, _ -> None

let ok r = List.for_all (fun t -> failure t = None) r.trials

let count r f = List.length (List.filter f r.trials)

let counters r =
  let outcome p = count r (fun t -> p t.t_outcome) in
  [
    ("violations", outcome (function Violation _ -> true | _ -> false));
    ("escaped", outcome (function Escaped _ -> true | _ -> false));
    ("typed_errors", outcome (function Typed_error _ -> true | _ -> false));
    ("unkilled", count r (fun t -> t.t_point <> None && t.t_completed));
    ( "journal_replayed",
      count r (fun t ->
          match t.t_journal with Some (`Replayed _) -> true | _ -> false) );
    ("journal_discarded", count r (fun t -> t.t_journal = Some `Discarded));
    ("journal_clean", count r (fun t -> t.t_journal = Some `None));
    ("fsck_clean", count r (fun t -> t.t_fsck = Pmalloc.Fsck.Clean));
    ("fsck_degraded", count r (fun t -> t.t_fsck = Pmalloc.Fsck.Degraded));
    ("fsck_corrupt", count r (fun t -> t.t_fsck = Pmalloc.Fsck.Corrupt));
  ]

let max_reopen_ns r =
  List.fold_left (fun a t -> Float.max a t.t_reopen_ns) 0.0 r.trials

let mean_reopen_ns r =
  match List.filter (fun t -> t.t_reopen_ns > 0.0) r.trials with
  | [] -> 0.0
  | ts ->
      List.fold_left (fun a t -> a +. t.t_reopen_ns) 0.0 ts
      /. float_of_int (List.length ts)

let pp_result ppf r =
  let c = counters r in
  let n k = List.assoc k c in
  Format.fprintf ppf
    "@[<v>kill9 %s: tested %d of %d points (stride %d), %d violations, %d \
     escaped, %d unkilled@ journals: %d replayed, %d discarded, %d clean; \
     fsck: %d clean, %d degraded, %d corrupt; %d typed errors@ reopen: mean \
     %.2fms, max %.2fms; wall %.1fs@]"
    r.workload
    (List.length r.trials - 1)
    r.points r.stride (n "violations") (n "escaped") (n "unkilled")
    (n "journal_replayed") (n "journal_discarded") (n "journal_clean")
    (n "fsck_clean") (n "fsck_degraded") (n "fsck_corrupt") (n "typed_errors")
    (mean_reopen_ns r /. 1e6)
    (max_reopen_ns r /. 1e6) r.wall_seconds

(* -- the driver ---------------------------------------------------------- *)

(* Every ack line the worker wrote before it exited or died: the pipe
   still holds them after a SIGKILL. *)
let collect_acks rfd =
  let buf = Buffer.create 512 in
  let bytes = Bytes.create 4096 in
  let rec loop () =
    match Unix.read rfd bytes 0 (Bytes.length bytes) with
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf bytes 0 n;
        loop ()
  in
  loop ();
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

type acks = {
  a_ready : bool;
  a_acked : int;
  a_marks : (int * int) list;
      (** (op, file commits done at its ack), newest first *)
  a_done : int option;  (** the file commits of a worker that finished *)
  a_exn : string option;
}

let parse_acks lines =
  List.fold_left
    (fun a line ->
      match String.split_on_char ' ' line with
      | [ "r" ] -> { a with a_ready = true }
      | [ "done"; c ] -> { a with a_done = int_of_string_opt c }
      | "exn" :: _ -> { a with a_exn = Some line }
      | [ i; c ] -> (
          match (int_of_string_opt i, int_of_string_opt c) with
          | Some i, Some c ->
              let a_marks = (i, c) :: a.a_marks in
              { a with a_acked = max a.a_acked i; a_marks }
          | _ -> a)
      | _ -> a)
    { a_ready = false; a_acked = 0; a_marks = []; a_done = None; a_exn = None }
    lines

(* The image of the trial at point [index], or of the calibration (-1). *)
let image_path ~dir ~workload index =
  Filename.concat dir
    (if index < 0 then workload ^ "_complete.img"
     else Printf.sprintf "%s_%04d.img" workload index)

(* [path]'s image and its journal, copied to [dst]'s names ([dst] keeps
   no journal when [path] has none). *)
let copy_image path ~dst =
  let copy src dst =
    let data = In_channel.with_open_bin src In_channel.input_all in
    Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)
  in
  copy path dst;
  let j = path ^ ".journal" and dj = dst ^ ".journal" in
  if Sys.file_exists j then copy j dj
  else if Sys.file_exists dj then Sys.remove dj

let remove_image path =
  if Sys.file_exists path then Sys.remove path;
  let j = path ^ ".journal" in
  if Sys.file_exists j then Sys.remove j

(* One forked trial: spawn the worker on a fresh image, let it run to
   [point] (or to completion), fsck the raw post-mortem image, reopen
   it, and judge the recovered state.  Also returns the worker's acks.
   With [keep], the raw image and its journal stay under [path], the
   name a failure's replay line prints, and the reopen, which replays or
   discards the journal, works on a copy made before its timer starts. *)
let trial ~dir ~keep ~capacity_words ?persist (w : Workload.t) ~index point =
  let path = image_path ~dir ~workload:w.Workload.name index in
  let rfd, wfd = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 -> (
      Unix.close rfd;
      match
        serve ~capacity_words ?kill:point ?persist ~path
          ~workload:w.Workload.name ~ops:w.Workload.ops ~ack_fd:wfd ()
      with
      | () -> Unix._exit 0
      | exception e ->
          write_line wfd ("exn " ^ Printexc.to_string e);
          Unix._exit 3)
  | pid ->
      Unix.close wfd;
      let acks = parse_acks (collect_acks rfd) in
      Unix.close rfd;
      ignore (Unix.waitpid [] pid);
      (* the raw post-mortem image, journal and all, before the reopen
         mutates it *)
      let fsck =
        match Pmalloc.Fsck.check path with
        | r -> r.Pmalloc.Fsck.verdict
        | exception _ ->
            (* fsck must classify every image without crashing *)
            Pmalloc.Fsck.Corrupt
      in
      let journal = ref None in
      let reopen_ns = ref 0.0 in
      let reopened =
        if keep && Sys.file_exists path then begin
          let copy = path ^ ".reopened" in
          copy_image path ~dst:copy;
          copy
        end
        else path
      in
      let outcome =
        match acks.a_exn with
        | Some m -> Escaped m
        | None -> (
            match Mod_core.Recovery.open_file ~path:reopened () with
            | Error e ->
                (* only a kill inside the formatting commit can leave an
                   unopenable image behind *)
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
                    let a = acks.a_acked in
                    List.init (a + 1) (fun i -> model.(a - i))
                in
                match Oracle.check ~history ~pending:None ~recovered with
                | Oracle.Consistent ->
                    Consistent
                      (match recovered with
                      | Ok s -> Array.find_index (String.equal s) model
                      | Error _ -> None)
                | Oracle.Violation d ->
                    Violation (Printf.sprintf "%s (acked %d)" d acks.a_acked)))
      in
      (* the reopened copy goes, and the image too unless kept *)
      if reopened <> path || not keep then remove_image reopened;
      ( {
          t_point = point;
          t_index = index;
          t_acked = (if acks.a_ready then acks.a_acked else -1);
          t_completed = acks.a_done <> None;
          t_journal = !journal;
          t_reopen_ns = !reopen_ns;
          t_fsck = fsck;
          t_outcome = outcome;
        },
        acks )
  | exception e ->
      Unix.close rfd;
      Unix.close wfd;
      raise e

let phases =
  [
    Pmem.Backing.Journal_torn; Pmem.Backing.Journal_committed;
    Pmem.Backing.Mid_apply; Pmem.Backing.Applied;
  ]

(* Every kill point of a run of [commits] file commits whose op [i] was
   acked after [c] of them, for each (i, c) of [marks], in event order:
   commit [k]'s phases, then the acks that follow it. *)
let points_of ~commits ~marks =
  List.init commits (fun k -> k + 1)
  |> List.concat_map (fun k ->
         List.map (fun phase -> At_sync { commit = k; phase }) phases
         @ List.filter_map
             (fun (i, c) -> if c = k then Some (After_ack i) else None)
             marks)
  |> Array.of_list

let run ?(dir = Filename.get_temp_dir_name ()) ?(ops = 60) ?(keep = false)
    ?(capacity_words = 1 lsl 16) ?(log = ignore) ?persist ~workload ~kills ()
    =
  if not (List.mem workload names || Workload.is_shard workload) then
    invalid_arg
      (Printf.sprintf
         "Kill9.run: unsupported workload %S (expected %s, or a shard target)"
         workload (String.concat ", " names));
  let w = Workload.build ?persist workload ~ops in
  let t0 = Unix.gettimeofday () in
  let trial = trial ~dir ~keep ~capacity_words ?persist w in
  (* the calibration run: exact final state, and the run's kill points *)
  let calib, acks = trial ~index:(-1) None in
  let all =
    points_of
      ~commits:(Option.value acks.a_done ~default:0)
      ~marks:(List.rev acks.a_marks)
  in
  let points = Array.length all in
  let kills = max 1 kills in
  let stride = max 1 ((points + kills - 1) / kills) in
  let tested = (points + stride - 1) / stride in
  let trials =
    List.init tested (fun j ->
        let index = j * stride in
        if (j + 1) mod 25 = 0 then
          log (Printf.sprintf "kill9 %s: %d/%d points" workload (j + 1) tested);
        fst (trial ~index (Some all.(index))))
  in
  {
    workload;
    ops;
    persist;
    dir;
    kills;
    points;
    stride;
    trials = calib :: trials;
    wall_seconds = Unix.gettimeofday () -. t0;
  }

(* The options that rebuild [r]'s workload script. *)
let script r =
  Printf.sprintf "-w %s --ops %d%s" r.workload r.ops
    (match r.persist with
    | Some p -> " --persist " ^ Pmalloc.Heap.policy_name p
    | None -> "")

let failures r =
  let rerun =
    Printf.sprintf "modpm killtest %s --kills %d --keep --dir %s" (script r)
      r.kills (Filename.quote r.dir)
  in
  List.filter_map
    (fun t ->
      match (failure t, t.t_point) with
      | None, _ -> None
      | Some m, None -> Some ("calibration run: " ^ m, rerun)
      | Some m, Some p ->
          let image = image_path ~dir:r.dir ~workload:r.workload t.t_index in
          let image = Filename.quote image in
          let worker =
            match p with
            | At_sync { commit; phase } ->
                Printf.sprintf
                  "; worker alone: modpm serve --file %s %s --kill-commit %d \
                   --kill-phase %s"
                  image (script r) commit
                  (Pmem.Backing.phase_name phase)
            | After_ack _ -> ""
          in
          Some
            ( Printf.sprintf "point %d (%s), acked %d: %s" t.t_index
                (point_name p) t.t_acked m,
              Printf.sprintf "%s  # point %d, image %s%s" rerun t.t_index image
                worker ))
    r.trials
