(* Quickstart: the MOD Basic interface in five minutes.

   Every update below is a self-contained failure-atomic section with a
   single ordering point; a power failure at any instant leaves each
   datastructure in exactly its pre- or post-operation state.

   Run with: dune exec examples/quickstart.exe *)

module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)

let () =
  (* A persistent heap: on real hardware this would be a DAX-mapped file
     on Optane DCPMM; here it is the simulated region. *)
  let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 20) () in

  (* Datastructures live in root slots so they can be found again after a
     restart.  [open_or_create] binds an existing structure or installs an
     empty one. *)
  let inventory = Imap.open_or_create heap ~slot:0 in
  let backlog = Mod_core.Dqueue.open_or_create heap ~slot:1 in
  let history = Mod_core.Dstack.open_or_create heap ~slot:2 in

  (* Updates look like updates on ordinary mutable containers. *)
  Imap.insert inventory 1001 25;
  Imap.insert inventory 1002 7;
  Imap.insert inventory 1001 24;
  (* overwrite *)
  Printf.printf "item 1001 stock: %s\n"
    (match Imap.find inventory 1001 with
    | Some n -> string_of_int n
    | None -> "-");

  Mod_core.Dqueue.enqueue backlog (Pmem.Word.of_int 555);
  Mod_core.Dstack.push history (Pmem.Word.of_int 1);

  (* Each of those calls was one FASE: one fence, no logging.  Check the
     claim live with the Fase profiler. *)
  let _, profile =
    Mod_core.Fase.run heap (fun () -> Imap.insert inventory 1003 3)
  in
  Format.printf "one insert cost: %a@." Mod_core.Fase.pp_profile profile;

  (* Simulate a power failure and recover: root slots still lead to the
     committed state, leaked shadows are collected.  (The fence closes the
     current epoch; without it, the very last update's root write may
     still be in flight and legitimately roll back one operation.) *)
  Pmalloc.Heap.sfence heap;
  let report = Mod_core.Recovery.crash_and_recover_exn heap in
  Format.printf "after crash: %a@." Mod_core.Recovery.pp_report report;

  (* Reopening after a restart is the moment things can be wrong (stale
     slot number, a different structure's root): [open_result] validates
     and returns a typed error instead of trusting the slot. *)
  let inventory =
    match Imap.open_result heap ~slot:0 with
    | Ok m -> m
    | Error e -> failwith (Mod_core.Error.to_string e)
  in
  Printf.printf "recovered inventory size: %d\n" (Imap.cardinal inventory);
  Printf.printf "recovered backlog length: %d\n"
    (Mod_core.Dqueue.length (Mod_core.Dqueue.open_or_create heap ~slot:1));
  Printf.printf "recovered history length: %d\n"
    (Mod_core.Dstack.length (Mod_core.Dstack.open_or_create heap ~slot:2));

  (* Metrics: attach a telemetry collector to the heap and every
     Basic-interface call on it reports itself -- per-(structure x op)
     latency histograms and a fence-stall attribution that sums back to
     the global counter.  The CLI equivalents: `modpm run map --metrics
     json` and `modpm stats`. *)
  let collector = Pmalloc.Heap.attach_telemetry heap in
  for i = 0 to 199 do
    Imap.insert inventory (2000 + i) i
  done;
  Imap.insert_many inventory (List.init 32 (fun i -> (3000 + i, i)));
  Pmalloc.Heap.set_telemetry heap None;
  Format.printf "@.%a@." Telemetry.pp_report (Telemetry.report collector)
