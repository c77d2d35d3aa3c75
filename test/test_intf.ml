(* Signature-conformance tests for the unified {!Mod_core.Intf.DURABLE}
   interface: one functor exercised over all seven durable structures,
   plus the typed open-path errors ({!Mod_core.Error.t}). *)

let mk_heap ?(capacity = 1 lsl 18) () =
  Pmalloc.Heap.create ~capacity_words:capacity ()

module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)
module Iset = Mod_core.Dset.Make (Pfds.Kv.Int)

(* The conformance suite itself: everything here is written against
   DURABLE alone, so it compiles once and runs for each structure. *)
module Conf (D : Mod_core.Intf.DURABLE) (E : sig
  val mk : int -> D.elt
end) =
struct
  (* With [?persist:Backup] the slot is promoted before the suite runs,
     so every check below exercises the Backup commit path (op-log
     appends, checkpoint on add_many's batch) and the descriptor-aware
     open/validate path. *)
  let run ?persist () =
    let heap = mk_heap () in
    (match persist with
    | None -> ()
    | Some p -> ignore (D.open_or_create ~persist:p heap ~slot:0));
    let t =
      match D.open_result heap ~slot:0 with
      | Ok t -> t
      | Error e ->
          Alcotest.failf "%s: open_result on fresh slot: %s" D.structure
            (Mod_core.Error.to_string e)
    in
    Alcotest.(check bool) "fresh is_empty" true (D.is_empty t);
    Alcotest.(check int) "fresh size" 0 (D.size t);
    D.add t (E.mk 1);
    D.add_many t (List.map E.mk [ 2; 3; 4 ]);
    Alcotest.(check int) "size after add + add_many" 4 (D.size t);
    Alcotest.(check bool) "non-empty" false (D.is_empty t);
    let seen = ref 0 in
    D.iter_elts t (fun _ -> incr seen);
    Alcotest.(check int) "iter_elts visits size elements" 4 !seen;
    (* a populated root must re-validate *)
    (match D.open_result heap ~slot:0 with
    | Ok t2 -> Alcotest.(check int) "reopen size" 4 (D.size t2)
    | Error e ->
        Alcotest.failf "%s: reopen: %s" D.structure
          (Mod_core.Error.to_string e));
    (* Composition interface: pure insertion into a fresh empty version *)
    let v = D.add_pure heap (D.empty_version heap) (E.mk 42) in
    Alcotest.(check int) "size_in of pure singleton" 1 (D.size_in heap v);
    (* handle projection exists and is bound to the slot *)
    Alcotest.(check bool)
      "handle is non-null after inserts" false
      (Pmem.Word.is_null (Mod_core.Handle.current (D.handle t)));
    (* out-of-range slot is a typed error, not an exception *)
    match D.open_result heap ~slot:Pmalloc.Heap.root_slots with
    | Error (Mod_core.Error.Slot_out_of_range _) -> ()
    | Ok _ -> Alcotest.failf "%s: out-of-range slot opened" D.structure
    | Error e ->
        Alcotest.failf "%s: out-of-range slot: wrong error %s" D.structure
          (Mod_core.Error.to_string e)

  (* The open matrix on a Backup slot holding a checkpoint and a log
     tail: a Full open would drop the tail, so it is refused. *)
  let backup_slot () =
    let heap = mk_heap () in
    let t = D.open_or_create ~persist:Pmalloc.Heap.Backup heap ~slot:0 in
    D.add t (E.mk 1);
    D.add_many t (List.map E.mk [ 2; 3 ]);
    D.add t (E.mk 4);
    heap

  let full_open_refused () =
    let heap = backup_slot () in
    match D.open_or_create ~persist:Pmalloc.Heap.Full heap ~slot:0 with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: Full open of a Backup slot accepted" D.structure

  (* With its volatile state dropped, as after a restart, an open that
     names no policy follows the slot's and replays its log. *)
  let reopen_reconstructs () =
    let heap = backup_slot () in
    Pmalloc.Heap.clear_backup_runtime heap;
    let t = D.open_or_create heap ~slot:0 in
    Alcotest.(check int) "size after reconstruction" 4 (D.size t)

  (* A valid log entry whose opcode the structure does not define (as an
     untagged descriptor another structure wrote can hold) is a typed
     [Corrupt_root] naming the layout, from both open paths. *)
  let unknown_opcode () =
    let heap = backup_slot () in
    let st = Option.get (Pmalloc.Heap.backup_state heap 0) in
    Pmalloc.Backup.append heap ~log:st.Pmalloc.Heap.b_log
      ~nonce:st.Pmalloc.Heap.b_nonce ~index:st.Pmalloc.Heap.b_count ~opcode:99
      ~a0:Pmem.Word.zero ~a1:Pmem.Word.zero;
    Pmalloc.Heap.sfence heap;
    Pmalloc.Heap.clear_backup_runtime heap;
    (match D.open_result heap ~slot:0 with
    | Error (Mod_core.Error.Corrupt_root { slot; detail }) ->
        Alcotest.(check int) "error names the slot" 0 slot;
        Alcotest.(check string)
          "error names the layout and the opcode"
          (String.capitalize_ascii D.structure
          ^ " Backup log entry, unknown opcode 99")
          detail
    | Ok _ -> Alcotest.failf "%s: unknown opcode replayed" D.structure
    | Error e ->
        Alcotest.failf "%s: wrong error %s" D.structure
          (Mod_core.Error.to_string e));
    match D.open_or_create heap ~slot:0 with
    | exception Mod_core.Error.Error (Mod_core.Error.Corrupt_root _) -> ()
    | exception e ->
        Alcotest.failf "%s: open_or_create raised %s" D.structure
          (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: unknown opcode replayed" D.structure

  (* This structure as the owner of a 5-element Backup slot, and as an
     opener of slot 0 through both open paths. *)
  let cross =
    let five () =
      let heap = mk_heap () in
      let t = D.open_or_create ~persist:Pmalloc.Heap.Backup heap ~slot:0 in
      List.iter (fun i -> D.add t (E.mk i)) [ 1; 2; 3; 4; 5 ];
      heap
    in
    let size heap =
      match D.open_result heap ~slot:0 with
      | Ok t -> D.size t
      | Error e -> Alcotest.failf "%s: %s" D.structure (Mod_core.Error.to_string e)
    in
    let open_result heap = Result.map ignore (D.open_result heap ~slot:0) in
    let open_or_create heap = ignore (D.open_or_create heap ~slot:0 : D.t) in
    (D.structure, five, size, open_result, open_or_create)

  let open_cases =
    [
      Alcotest.test_case (D.structure ^ ": Full open refused") `Quick
        full_open_refused;
      Alcotest.test_case (D.structure ^ ": reopen reconstructs") `Quick
        reopen_reconstructs;
      Alcotest.test_case (D.structure ^ ": unknown log opcode") `Quick
        unknown_opcode;
    ]
end

module Conf_map =
  Conf
    (Imap)
    (struct
      let mk i = (i, i * 10)
    end)

module Conf_set =
  Conf
    (Iset)
    (struct
      let mk i = i
    end)

module Word_elt = struct
  let mk i = Pmem.Word.of_int i
end

module Conf_vec = Conf (Mod_core.Dvec) (Word_elt)
module Conf_stack = Conf (Mod_core.Dstack) (Word_elt)
module Conf_queue = Conf (Mod_core.Dqueue) (Word_elt)
module Conf_seq = Conf (Mod_core.Dseq) (Word_elt)

module Conf_pqueue =
  Conf
    (Mod_core.Dpqueue)
    (struct
      let mk i = i
    end)

(* ------------------------------------------------------------------ *)
(* Typed open-path errors                                             *)
(* ------------------------------------------------------------------ *)

(* Each structure's 5-element Backup slot, opened as each of the other
   six, live and after a restart (volatile state dropped): both open
   paths refuse it with [Codec_mismatch] and leave it to its owner. *)
let test_foreign_backup_slot () =
  let all =
    [
      Conf_map.cross; Conf_set.cross; Conf_vec.cross; Conf_stack.cross;
      Conf_queue.cross; Conf_seq.cross; Conf_pqueue.cross;
    ]
  in
  List.iter
    (fun (owner, five, size, _, _) ->
      List.iter
        (fun (opener, _, _, open_result, open_or_create) ->
          if opener <> owner then
            List.iter
              (fun restart ->
                let heap = five () in
                if restart then Pmalloc.Heap.clear_backup_runtime heap;
                (match open_result heap with
                | Error (Mod_core.Error.Codec_mismatch _) -> ()
                | Ok () ->
                    Alcotest.failf "%s's Backup slot opened as %s" owner opener
                | Error e ->
                    Alcotest.failf "%s's Backup slot as %s: %s" owner opener
                      (Mod_core.Error.to_string e));
                (match open_or_create heap with
                | exception
                    Mod_core.Error.Error (Mod_core.Error.Codec_mismatch _) ->
                    ()
                | exception e ->
                    Alcotest.failf "%s's Backup slot as %s raised %s" owner
                      opener (Printexc.to_string e)
                | () ->
                    Alcotest.failf "%s's Backup slot bound as %s" owner opener);
                Alcotest.(check int)
                  (Printf.sprintf "%s still opens after %s" owner opener)
                  5 (size heap))
              [ false; true ])
        all)
    all

let test_scalar_root () =
  let heap = mk_heap () in
  Pmalloc.Heap.root_set heap 3 (Pmem.Word.of_int 17);
  match Mod_core.Dvec.open_result heap ~slot:3 with
  | Error (Mod_core.Error.Corrupt_root { slot; _ }) ->
      Alcotest.(check int) "error names the slot" 3 slot
  | Ok _ -> Alcotest.fail "scalar root accepted as a vector"
  | Error e ->
      Alcotest.failf "wrong error: %s" (Mod_core.Error.to_string e)

let test_codec_mismatch () =
  let heap = mk_heap () in
  (* a vector descriptor is 4 scanned words; the RRB and stack layouts
     differ, so opening the same slot as those structures must fail *)
  let v = Mod_core.Dvec.open_or_create heap ~slot:0 in
  Mod_core.Dvec.push_back v (Pmem.Word.of_int 1);
  (match Mod_core.Dseq.open_result heap ~slot:0 with
  | Error (Mod_core.Error.Codec_mismatch { slot; expected; found }) ->
      Alcotest.(check int) "slot" 0 slot;
      Alcotest.(check bool) "expected is non-empty" true (expected <> "");
      Alcotest.(check bool) "found is non-empty" true (found <> "")
  | Ok _ -> Alcotest.fail "vector root accepted as an RRB sequence"
  | Error e ->
      Alcotest.failf "wrong error: %s" (Mod_core.Error.to_string e));
  match Mod_core.Dstack.open_result heap ~slot:0 with
  | Error (Mod_core.Error.Codec_mismatch _) -> ()
  | Ok _ -> Alcotest.fail "vector root accepted as a stack"
  | Error e ->
      Alcotest.failf "wrong error: %s" (Mod_core.Error.to_string e)

let test_error_strings () =
  let open Mod_core.Error in
  Alcotest.(check bool)
    "Slot_out_of_range mentions the limit" true
    (let s = to_string (Slot_out_of_range { slot = 99; limit = 16 }) in
     String.length s > 0);
  Alcotest.(check bool)
    "get_ok returns the payload" true
    (get_ok (Ok true));
  match get_ok (Error (Corrupt_root { slot = 1; detail = "boom" })) with
  | exception Error _ -> ()
  | _ -> Alcotest.fail "get_ok on Error did not raise"

let test_recover_result () =
  let heap = mk_heap () in
  let m = Imap.open_or_create heap ~slot:0 in
  Imap.insert m 1 2;
  match Mod_core.Recovery.recover heap with
  | Ok _report -> ()
  | Error e ->
      Alcotest.failf "recover on a consistent heap: %s"
        (Mod_core.Error.to_string e)

let () =
  Alcotest.run "intf"
    [
      ( "durable-conformance",
        [
          Alcotest.test_case "dmap" `Quick (Conf_map.run ?persist:None);
          Alcotest.test_case "dset" `Quick (Conf_set.run ?persist:None);
          Alcotest.test_case "dvec" `Quick (Conf_vec.run ?persist:None);
          Alcotest.test_case "dstack" `Quick (Conf_stack.run ?persist:None);
          Alcotest.test_case "dqueue" `Quick (Conf_queue.run ?persist:None);
          Alcotest.test_case "dseq" `Quick (Conf_seq.run ?persist:None);
          Alcotest.test_case "dpqueue" `Quick (Conf_pqueue.run ?persist:None);
        ] );
      ( "durable-conformance-backup",
        (let backup = Pmalloc.Heap.Backup in
         [
           Alcotest.test_case "dmap" `Quick (Conf_map.run ~persist:backup);
           Alcotest.test_case "dset" `Quick (Conf_set.run ~persist:backup);
           Alcotest.test_case "dvec" `Quick (Conf_vec.run ~persist:backup);
           Alcotest.test_case "dstack" `Quick
             (Conf_stack.run ~persist:backup);
           Alcotest.test_case "dqueue" `Quick
             (Conf_queue.run ~persist:backup);
           Alcotest.test_case "dseq" `Quick (Conf_seq.run ~persist:backup);
           Alcotest.test_case "dpqueue" `Quick
             (Conf_pqueue.run ~persist:backup);
         ]
         @ List.concat
             [
               Conf_map.open_cases;
               Conf_set.open_cases;
               Conf_vec.open_cases;
               Conf_stack.open_cases;
               Conf_queue.open_cases;
               Conf_seq.open_cases;
               Conf_pqueue.open_cases;
             ]) );
      (* Backup x concurrent commit: skipped by design, with the reason
         encoded as the Invalid_argument the combination raises -- a
         Backup slot's commit order is its op-log append order, which a
         lock-free root CAS cannot serialize. *)
      ( "durable-conformance-backup-cas",
        [
          Alcotest.test_case "backup slot rejects update_cas" `Quick
            (fun () ->
              let heap = mk_heap () in
              let m = Imap.open_or_create heap ~slot:0 in
              Imap.insert m 1 2;
              Mod_core.Commit.enable heap ~slot:0
                ~tag:(Mod_core.Commit.layout_tag "Dmap");
              let h = Mod_core.Handle.make heap ~slot:0 in
              match
                Mod_core.Handle.update_cas h ~build:(fun _ -> None)
              with
              | exception Invalid_argument msg ->
                  Alcotest.(check bool)
                    "reason names the policy" true
                    (String.length msg > 0)
              | (_ : int) ->
                  Alcotest.fail
                    "update_cas on a Backup slot should raise \
                     Invalid_argument");
        ] );
      ( "typed-errors",
        [
          Alcotest.test_case "scalar root" `Quick test_scalar_root;
          Alcotest.test_case "codec mismatch" `Quick test_codec_mismatch;
          Alcotest.test_case "another structure's Backup slot" `Quick
            test_foreign_backup_slot;
          Alcotest.test_case "error strings" `Quick test_error_strings;
          Alcotest.test_case "recover returns result" `Quick
            test_recover_result;
        ] );
    ]
