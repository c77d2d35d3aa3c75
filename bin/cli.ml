(* Shared argument surface for the modpm subcommands.

   One definition of the cross-cutting flags -- --persist, --writers,
   --json, --baseline, --seed, --shards -- instead of the per-subcommand
   copies that had drifted apart: every subcommand that accepts one of
   these spells it, parses it and documents it identically.  (bench's
   hand-rolled parser mirrors the same names.) *)

open Cmdliner

(* --persist: commit policy for whatever structure the subcommand
   drives.  "full" maps to None (the structures' default) so
   policy-free paths stay untouched. *)
let persist_name = function
  | None -> "full"
  | Some p -> Pmalloc.Heap.policy_name p

let persist_conv =
  let parse = function
    | "full" -> Ok None
    | "backup" -> Ok (Some Pmalloc.Heap.Backup)
    | s -> Error (`Msg (Printf.sprintf "unknown --persist %S (full|backup)" s))
  in
  let print ppf p = Format.pp_print_string ppf (persist_name p) in
  Arg.conv (parse, print)

let persist_arg =
  let doc =
    "Commit policy for the driven structure(s): $(b,full) (persist every \
     node eagerly, the default) or $(b,backup) (persist only the backup \
     data and a bounded op log; recovery reconstructs the interior nodes)."
  in
  Arg.(value & opt persist_conv None & info [ "persist" ] ~docv:"POLICY" ~doc)

let seed_arg ?(default = 1) () =
  let doc = "Master seed all of the run's determinism derives from." in
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

let json_arg =
  let doc = "Write a machine-readable summary to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let baseline_arg =
  let doc =
    "Gate the run against a baseline file (schema modpm-baseline/2, the \
     bench/BASELINE.json shape: a flat list of section/metric bounds).  \
     Exits 1 when a bound is violated, 2 when the file is unreadable, \
     malformed, or has no entry for a metric the command checks."
  in
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)

let writers_arg =
  let doc =
    "Concurrent writers (0 = sequential): sweep this many interleaved \
     writers per workload, judged by the oracle."
  in
  Arg.(value & opt int 0 & info [ "writers" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Shard count for the serving layer.  $(b,serve) partitions keys across \
     $(docv) heaps (one telemetry collector and, where applicable, one \
     domain each) instead of the single-instance path; $(b,crashtest) and \
     $(b,killtest) take the $(docv) shard targets shard<i>of<$(docv)> as \
     their workloads, in place of $(b,--workload)."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)
