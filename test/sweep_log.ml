(* An append-only log of lines that forked sweep workers share with the
   test process: every [add] is a single write to a file opened
   O_APPEND, so lines from concurrent processes never interleave, and
   [take] sees what every worker logged. *)

type t = { path : string; fd : Unix.file_descr }

let create () =
  let path = Filename.temp_file "crashtest" ".log" in
  { path; fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o600 }

let add t line =
  let s = line ^ "\n" in
  let n = Unix.write_substring t.fd s 0 (String.length s) in
  assert (n = String.length s)

(* Every line logged since the last [take], oldest first; empties the
   log. *)
let take t =
  let text = In_channel.with_open_bin t.path In_channel.input_all in
  Unix.ftruncate t.fd 0;
  List.filter (fun l -> l <> "") (String.split_on_char '\n' text)

let close t =
  Unix.close t.fd;
  Sys.remove t.path

let with_log f =
  let t = create () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let phase_name = function
  | Pmem.Stats.Flush -> "flush"
  | Pmem.Stats.Log -> "log"
  | Pmem.Stats.Other -> "other"

(* Run [recover] on [heap] and log what it started from -- every stats
   field, floats as bits -- and the simulated time it took. *)
let recovery t heap recover =
  let st = Pmalloc.Heap.stats heap in
  let bits f = Int64.bits_of_float f in
  let before =
    Pmem.Stats.(
      Printf.sprintf "%Lx %Lx %Lx %Lx %d %d %d %d %d %d %d %d %d %s %d %d %d"
        (bits st.now_ns) (bits st.ns_flush) (bits (ns_log st))
        (bits (ns_other st)) st.loads st.stores st.l1_hits st.l1_misses
        st.clwbs st.fences st.lines_drained st.log_writes st.commits
        (phase_name st.cur_phase) st.file_commits st.file_lines
        st.file_fsyncs)
  in
  let s0 = st.Pmem.Stats.now_ns in
  recover ();
  add t
    (Printf.sprintf "%s | %Lx" before (bits (st.Pmem.Stats.now_ns -. s0)))

(* The recoveries logged since the last [take] must be [expect], line for
   line: in order when the sweep ran in-process, as a multiset when
   forked workers logged them concurrently. *)
let check_recoveries t ~what ~jobs expect =
  let got = take t in
  let got, expect =
    if jobs = 1 then (got, expect)
    else (List.sort compare got, List.sort compare expect)
  in
  Alcotest.(check (list string))
    (what ^ ": recovery stats and sim ns, bit for bit")
    expect got
