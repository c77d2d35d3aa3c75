(** Crash recovery for MOD heaps (Sections 5.2-5.3).

    After a power failure the durable image may contain, per root slot,
    either the pre-FASE or the post-FASE version -- never a torn one --
    plus leaked shadow allocations from any interrupted FASE.  Recovery:

    1. rolls back an interrupted PM-STM transaction, if the heap hosts
       one (CommitUnrelated and the PMDK baseline use the undo log);
    2. runs the reachability analysis from the root directory, recomputing
       reference counts and reclaiming every leaked block
       ({!Pmalloc.Recovery_gc}).

    [crash_and_recover] drives the whole cycle against the simulated
    hardware and is what the crash-injection tests exercise. *)

type report = {
  stm_rolled_back : bool;
  gc : Pmalloc.Recovery_gc.report;
  crash_seed : int option;
}

(* Map the raw fault exceptions of the lower layers to their typed
   forms, so callers of the typed paths see [Error.t] and nothing else. *)
let typed_of_exn = function
  | Pmalloc.Heap.Torn_root { slot } ->
      Some
        (Error.Torn_root
           { slot; detail = "both root-record copies failed validation" })
  | Pmalloc.Heap.Corrupt_policy { slot; word } ->
      Some
        (Error.Corrupt_root
           {
             slot;
             detail =
               Printf.sprintf "policy word %d is neither Full nor Backup"
                 (Pmem.Word.bits word);
           })
  | Pmem.Region.Media_fault { off } ->
      Some (Error.Media_error { off; detail = "unrecoverable read fault" })
  | Pmem.Backing.Bad_image { path; detail } ->
      Some (Error.Bad_image { path; detail })
  | _ -> None

let recover_exn ?(stm = false) ?(norec = false) heap =
  match
    let stm_rolled_back = stm && Pmstm.Tx.recover heap in
    (* a committed-but-unretired NOrec redo log replays forward (the
       mirror image of the undo rollback above) before reachability *)
    let norec_replayed = if norec then Pmstm.Norec.recover heap else false in
    let gc = Pmalloc.Recovery_gc.recover heap in
    { stm_rolled_back = stm_rolled_back || norec_replayed; gc;
      crash_seed = None }
  with
  | report -> report
  | exception e -> (
      match typed_of_exn e with
      | Some te -> raise (Error.Error te)
      | None -> raise e)

(* Recovery failures are heap-wide, not slot-scoped: surface whatever the
   reachability analysis or the undo-log rollback tripped over as a
   [Corrupt_root] with [slot = -1]; torn roots and media faults keep
   their own constructors. *)
let wrap_corruption f =
  match f () with
  | r -> Ok r
  | exception Error.Error e -> Error e
  | exception (Invalid_argument detail | Failure detail) ->
      Error (Error.Corrupt_root { slot = -1; detail })
  | exception e when typed_of_exn e <> None ->
      Error (Option.get (typed_of_exn e))

let recover ?stm ?norec heap =
  wrap_corruption (fun () -> recover_exn ?stm ?norec heap)

let crash_and_recover_exn ?mode ?seed ?torn ?stm ?norec heap =
  Pmalloc.Heap.crash ?mode ?seed ?torn heap;
  let crash_seed = Pmem.Region.last_crash_seed (Pmalloc.Heap.region heap) in
  { (recover_exn ?stm ?norec heap) with crash_seed }

let crash_and_recover ?mode ?seed ?torn ?stm ?norec heap =
  wrap_corruption (fun () ->
      crash_and_recover_exn ?mode ?seed ?torn ?stm ?norec heap)

(* -- file-backed reopen -------------------------------------------------- *)

type open_report = {
  heap : Pmalloc.Heap.t;
  journal : [ `None | `Replayed of int | `Discarded ];
  recovery : report;
  reopen_ns : float;  (** wall-clock open + journal resolution + GC *)
}

(* The full externally-durable recovery cycle: reopen the image file
   (journal replay/discard + checksum verification), then rebuild the
   volatile allocator with the reachability analysis.  Every way an
   unusable image can fail -- missing/truncated/corrupt file, torn roots,
   unscannable block graph -- comes back as a typed [Error.t]; no
   exception escapes for any image. *)
let open_file ?trace ?seed ~path () =
  wrap_corruption (fun () ->
      let t0 = Unix.gettimeofday () in
      let heap, journal = Pmalloc.Heap.open_file ?trace ?seed ~path () in
      match
        Pmalloc.Heap.span heap ~structure:"heap" ~op:"reopen" (fun () ->
            recover_exn heap)
      with
      | recovery ->
          {
            heap;
            journal;
            recovery;
            reopen_ns = (Unix.gettimeofday () -. t0) *. 1e9;
          }
      | exception e ->
          (* do not leak descriptors when the image opens but its content
             fails recovery *)
          Pmalloc.Heap.close heap;
          raise e)

let pp_report ppf r =
  Format.fprintf ppf "%a%s%s" Pmalloc.Recovery_gc.pp_report r.gc
    (if r.stm_rolled_back then " (rolled back an interrupted transaction)"
     else "")
    (match r.crash_seed with
    | Some s -> Printf.sprintf " (crash seed %d)" s
    | None -> "")
