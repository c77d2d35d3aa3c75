(* A tour of MOD's failure-atomicity machinery: what exactly survives a
   power failure, how leaked shadows are collected, how recovery reports
   corruption as typed errors instead of exceptions, and how a heap
   image outlives the process that wrote it.

   Run with: dune exec examples/crash_recovery.exe *)

module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)

(* Every recovery entry point has a typed-result form: corruption comes
   back as [Error (e : Mod_core.Error.t)], never as an exception.  The
   example threads all its recoveries through this one handler. *)
let recovered what = function
  | Ok report -> report
  | Error e ->
      Printf.eprintf "%s: degraded with typed error: %s\n" what
        (Mod_core.Error.to_string e);
      exit 1

let () =
  (* trace everything so the checker can audit the run afterwards *)
  let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 20) ~trace:true () in
  let m = Imap.open_or_create heap ~slot:0 in

  (* 1. committed state survives any crash mode *)
  for k = 1 to 100 do
    Imap.insert m k (k * k)
  done;
  Pmalloc.Heap.sfence heap;
  (* close the epoch *)
  Pmalloc.Heap.crash ~mode:Pmem.Region.Drop_inflight heap;
  let report =
    recovered "worst-case crash" (Mod_core.Recovery.recover heap)
  in
  Format.printf "1. worst-case crash: %a@." Mod_core.Recovery.pp_report report;
  let m = Imap.open_or_create heap ~slot:0 in
  Printf.printf "   all %d entries intact, 50 -> %d\n" (Imap.cardinal m)
    (Option.get (Imap.find m 50));

  (* 2. an interrupted FASE leaks only memory, never consistency *)
  let doomed_shadow =
    Imap.insert_pure heap (Mod_core.Handle.current m) 777 0
  in
  ignore (doomed_shadow : Pmem.Word.t);
  (* ... power failure before Commit *)
  let report =
    recovered "interrupted FASE" (Mod_core.Recovery.crash_and_recover heap)
  in
  Format.printf "2. interrupted FASE: %a@." Mod_core.Recovery.pp_report report;
  let m = Imap.open_or_create heap ~slot:0 in
  Printf.printf "   key 777 absent: %b; map still has %d entries\n"
    (Imap.find m 777 = None)
    (Imap.cardinal m);

  (* 3. multi-datastructure FASEs are all-or-nothing *)
  let tx = Pmstm.Tx.create heap ~version:Pmstm.Tx.V1_5 in
  let other = Imap.open_or_create heap ~slot:1 in
  ignore (other : Imap.t);
  let v0 = Mod_core.Handle.current m in
  let v1 = Mod_core.Handle.current (Imap.open_or_create heap ~slot:1) in
  let value = Option.get (Imap.find_in heap v0 1) in
  let v0', _ = Imap.remove_pure heap v0 1 in
  let v1' = Imap.insert_pure heap v1 1 value in
  Mod_core.Commit.unrelated heap tx [ (0, v0'); (1, v1') ];
  let report =
    recovered "cross-map move"
      (Mod_core.Recovery.crash_and_recover ~stm:true heap)
  in
  Format.printf "3. cross-map move + crash: %a@." Mod_core.Recovery.pp_report
    report;
  let m = Imap.open_or_create heap ~slot:0 in
  let other = Imap.open_or_create heap ~slot:1 in
  Printf.printf "   key 1 in exactly one map: %b\n"
    (Imap.mem m 1 <> Imap.mem other 1);

  (* 4. the whole execution passes the Section 5.4 audit *)
  let audit = Mod_core.Consistency.check (Pmalloc.Heap.trace heap) in
  Format.printf "4. %a@." Mod_core.Consistency.pp_report audit;

  (* 5. a file-backed heap outlives the process.  Every fence batches the
     dirty cachelines through a journaled, failure-atomic writeback to the
     image file; reopening replays or discards whatever a kill left
     behind.  (modpm killtest does this with a real fork + SIGKILL.) *)
  let path = Filename.temp_file "mod_example" ".img" in
  let fheap = Pmalloc.Heap.create ~capacity_words:(1 lsl 16) ~file:path () in
  let fm = Imap.open_or_create fheap ~slot:0 in
  for k = 1 to 100 do
    Imap.insert fm k (k * 7)
  done;
  Pmalloc.Heap.close fheap;
  (* ... process exits; a new one reopens the image *)
  (match Mod_core.Recovery.open_file ~path () with
  | Error e ->
      Printf.eprintf "reopen failed: %s\n" (Mod_core.Error.to_string e);
      exit 1
  | Ok open_report ->
      let fheap = open_report.Mod_core.Recovery.heap in
      let fm = Imap.open_or_create fheap ~slot:0 in
      Printf.printf
        "5. file-backed reopen (%s journal, %.2f ms): %d entries back, 50 \
         -> %d\n"
        (match open_report.Mod_core.Recovery.journal with
        | `None -> "no"
        | `Replayed n -> Printf.sprintf "replayed %d-line" n
        | `Discarded -> "discarded torn")
        (open_report.Mod_core.Recovery.reopen_ns /. 1e6)
        (Imap.cardinal fm)
        (Option.get (Imap.find fm 50));
      let fsck = Pmalloc.Fsck.check path in
      Printf.printf "   fsck: %s\n"
        (Pmalloc.Fsck.verdict_name fsck.Pmalloc.Fsck.verdict);
      Pmalloc.Heap.close fheap);

  (* 6. unusable images degrade to a typed error, never an exception *)
  let oc = open_out path in
  output_string oc "not a heap image";
  close_out oc;
  (match Mod_core.Recovery.open_file ~path () with
  | Ok _ -> Printf.eprintf "garbage image opened?!\n"
  | Error e ->
      Printf.printf "6. garbage image: typed %s\n"
        (Mod_core.Error.to_string e));
  Sys.remove path
