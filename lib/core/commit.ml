(** Commit: the single ordering point of every MOD failure-atomic section.

    A FASE built from MOD datastructures has two parts (Section 4.3.2):
    Update -- pure, out-of-place operations that flush their writes with
    unordered clwbs -- and Commit, which (1) fences once so every shadow is
    durable and (2) atomically swings the persistent pointer(s) from the
    old version(s) to the new.  Three implementations cover the paper's
    cases (Figure 8):

    - {!single}: one datastructure, one or more updates.  One fence, one
      8-byte atomic root write.
    - {!siblings}: several datastructures hanging off one parent object.
      A fresh parent is built pointing at all the shadows, flushed, then
      installed with one fence and one atomic write.
    - {!unrelated}: datastructures with no common parent.  The shadows are
      fenced once, then a short PM-STM transaction updates the root
      pointers -- the only case that needs more ordering points.

    Reclamation (Section 5.3): after the root moves, the superseded
    version and any intermediate shadows are released; reference counts
    make sure structurally shared nodes survive.

    Every commit binds its slots in the heap's root summary
    ({!Pmalloc.Heap.bind}) before its fence, so a slot's first commit
    makes its summary bit durable with the shadows, at no extra fence,
    and later commits pay one bit test. *)

let release_version heap w =
  if Pmem.Word.is_ptr w && not (Pmem.Word.is_null w) then
    Pmalloc.Heap.release heap (Pmem.Word.to_ptr w)

let mark_commit heap fn =
  let trace = Pmalloc.Heap.trace heap in
  Pmem.Trace.emit trace Pmem.Trace.Commit_begin;
  let result = fn () in
  Pmem.Trace.emit trace Pmem.Trace.Commit_end;
  let stats = Pmalloc.Heap.stats heap in
  stats.Pmem.Stats.commits <- stats.Pmem.Stats.commits + 1;
  result

(* CommitSingle (Figure 8b).  [intermediates] are the superseded shadows
   of a multi-update FASE, oldest first; [latest] is the version to
   install (ownership transfers to the root slot).  [reclaim:false] is an
   ablation knob: skip reference-count reclamation and leave superseded
   versions to recovery-time GC. *)
let single ?(intermediates = []) ?(reclaim = true) heap ~slot latest =
  Pmalloc.Heap.bind heap slot;
  Pmalloc.Heap.sfence heap;
  (* the one ordering point *)
  let old = Pmalloc.Heap.root_get heap slot in
  mark_commit heap (fun () -> Pmalloc.Heap.root_set heap slot latest);
  if reclaim then begin
    release_version heap old;
    List.iter (release_version heap) intermediates
  end

(* The lock-free concurrent commit: retry the shadow rebuild on root
   conflict instead of holding a lock across the FASE.  [build old]
   re-runs the pure update against the version the root currently
   holds, returning [Some (latest, intermediates)] (ownership of both
   passes in) or [None] when the op is a no-op against [old] (e.g.
   removing an absent key) and nothing should be installed.  Each
   attempt fences its shadows durable, then tries a single counted-CAS
   root swing ({!Pmalloc.Heap.root_cas}, carrying the record sequence
   read alongside [old] as the ABA tag); a lost CAS releases the
   discarded shadows and rebuilds against the new root.  Returns the
   number of build attempts (1 = no conflict).

   [before_swing] runs after the fence, immediately before the CAS of
   an attempt, and [after_swing] runs right after a winning CAS before
   any reclamation; both must be straight-line OCaml with no PM events
   (no store/clwb/sfence), because under the interleaving explorer any
   PM event yields to the other writer.  The crash oracle's tracker uses
   them to keep its pending/linearized bookkeeping exactly in step with
   the root. *)
let commit_cas ?(reclaim = true) ?(before_swing = ignore)
    ?(after_swing = ignore) heap ~slot ~build =
  let trace = Pmalloc.Heap.trace heap in
  let rec attempt n =
    let old, old_seq = Pmalloc.Heap.root_get_versioned heap slot in
    match build old with
    | None -> n
    | Some (latest, intermediates)
      when Pmem.Word.bits latest = Pmem.Word.bits old ->
        (* the rebuild returned the input version un-owned (MOD pure
           updates do this for no-ops): nothing to install or release
           beyond the attempt's intermediates *)
        if reclaim then List.iter (release_version heap) intermediates;
        n
    | Some (latest, intermediates) ->
        Pmalloc.Heap.bind heap slot;
        Pmalloc.Heap.sfence heap;
        (* shadows durable; from here to the CAS: no PM events *)
        before_swing ();
        Pmem.Trace.emit trace Pmem.Trace.Commit_begin;
        let won =
          Pmalloc.Heap.root_cas heap slot ~expected:old ~expected_seq:old_seq
            ~desired:latest
        in
        Pmem.Trace.emit trace Pmem.Trace.Commit_end;
        if won then begin
          after_swing ();
          let stats = Pmalloc.Heap.stats heap in
          stats.Pmem.Stats.commits <- stats.Pmem.Stats.commits + 1;
          if reclaim then begin
            release_version heap old;
            List.iter (release_version heap) intermediates
          end;
          n
        end
        else begin
          (* conflict: another writer swung the root after our read.
             Drop this attempt's shadows (reference counts keep shared
             substructure alive) and rebuild against the new root. *)
          release_version heap latest;
          List.iter (release_version heap) intermediates;
          attempt (n + 1)
        end
  in
  attempt 1

(* -- "Don't Persist All": the Backup commit policy ----------------------- *)

(* A Backup-policy slot's root points at a 4-word descriptor
   [magic; nonce; anchor; log] ({!Pmalloc.Backup}).  Committing an
   operation appends one checksummed entry to the log -- a single clwb --
   instead of flushing the whole shadow path; interior nodes stay
   volatile-clean (parked in the heap's backlog) until the next
   {!checkpoint} re-anchors the structure.  After a crash the volatile
   current version is rebuilt by replaying the log's valid prefix from
   the anchor ({!reconstruct}). *)

(* The installed version a reader should see: the durable root for Full
   slots, the volatile (log-covered) current version for Backup slots. *)
let current_of heap ~slot =
  match Pmalloc.Heap.get_policy heap slot with
  | Pmalloc.Heap.Full -> Pmalloc.Heap.root_get heap slot
  | Pmalloc.Heap.Backup -> (
      match Pmalloc.Heap.backup_state heap slot with
      | Some st -> st.Pmalloc.Heap.b_current
      | None ->
          failwith
            (Printf.sprintf
               "slot %d: Backup policy but no volatile state; call the \
                structure's reconstruct first"
               slot))

(* -- Layout tags ----------------------------------------------------------- *)

(* The structures whose Backup descriptors name their owner, by tag
   (word 0, beside {!Pmalloc.Backup.magic}).  Tag 0 is a descriptor
   written before tags existed; any structure opens it. *)
let layout_names =
  [| "untagged"; "Dmap"; "Dset"; "Dstack"; "Dqueue"; "Dvec"; "Dseq"; "Dpqueue" |]

let layout_tag name =
  let rec find i =
    if i >= Array.length layout_names then
      invalid_arg ("Commit.layout_tag: no tag for " ^ name)
    else if String.equal layout_names.(i) name then i
    else find (i + 1)
  in
  find 1

let describe_tag tag =
  if tag >= 0 && tag < Array.length layout_names then
    "Backup descriptor of " ^ layout_names.(tag)
  else Printf.sprintf "Backup descriptor with unknown tag %d" tag

(* A Backup slot whose descriptor carries [found] opens as the structure
   of [tag] only when the two agree, or the descriptor is untagged. *)
let check_tag ~slot ~tag found =
  if found <> 0 && found <> tag then
    raise
      (Error.Error
         (Error.Codec_mismatch
            { slot; expected = describe_tag tag; found = describe_tag found }))

(* Build and flush a fresh descriptor + empty op log anchored at
   [anchor].  No fence here: the caller's CommitSingle drains the
   descriptor, log-header and policy clwbs before swinging the root, so
   a durable descriptor root implies all of them are durable.  Must run
   outside any backup-update bracket (the descriptor itself needs its
   eager flush). *)
let build_descriptor heap ~slot ~tag anchor =
  let log =
    Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw
      ~words:Pmalloc.Backup.log_alloc_words
  in
  (* header lines only: entries validate through their own nonce-bound
     checksums, so the garbage body needs no scrub *)
  Pmalloc.Heap.clwb_range heap
    (Pmalloc.Block.header_of_body log)
    Pmalloc.Block.header_words;
  let nonce = Pmalloc.Heap.next_root_seq heap slot in
  let desc = Pfds.Node.alloc heap ~words:Pmalloc.Backup.desc_words in
  Pfds.Node.set heap desc Pmalloc.Backup.d_magic
    (Pmalloc.Backup.magic_word ~tag);
  Pfds.Node.set heap desc Pmalloc.Backup.d_nonce (Pmem.Word.of_int nonce);
  Pfds.Node.set_shared heap desc Pmalloc.Backup.d_anchor anchor;
  Pfds.Node.set heap desc Pmalloc.Backup.d_log (Pmem.Word.of_ptr log);
  Pfds.Node.finish heap desc;
  (desc, log, nonce)

(* Re-anchor a Backup slot at [latest]: flush everything the bracket
   suppressed, install a fresh descriptor + empty log with one
   CommitSingle, and reset the volatile state.  Ownership of [latest]
   transfers: the descriptor takes an anchor reference and the volatile
   current keeps the caller's. *)
let checkpoint ?(intermediates = []) heap ~slot latest =
  Pmalloc.Heap.flush_backlog heap;
  let old = Pmalloc.Heap.backup_state heap slot in
  let tag = match old with Some st -> st.Pmalloc.Heap.b_tag | None -> 0 in
  let desc, log, nonce = build_descriptor heap ~slot ~tag latest in
  (* releases the old descriptor, cascading into the old anchor and log *)
  single ~intermediates heap ~slot (Pmem.Word.of_ptr desc);
  (match old with
  | Some st
    when Pmem.Word.bits st.Pmalloc.Heap.b_current <> Pmem.Word.bits latest ->
      release_version heap st.Pmalloc.Heap.b_current
  | _ -> ());
  Pmalloc.Heap.install_backup_state heap slot ~current:latest ~count:0 ~nonce
    ~desc ~log ~tag

(* Promote a slot to the Backup policy: durably flip its policy word,
   then install a descriptor anchored at whatever version the slot
   holds (null for an empty structure).  The policy word's clwb drains
   at the promotion commit's fence, before the root swing's own clwb is
   launched -- so a crash can leave Backup-policy + pre-promotion root
   (re-promoted on next open, see [reconstruct]) but never a descriptor
   root with a Full policy word.  A slot no commit has bound yet pays
   one extra fence here: its root-summary bit must be durable before
   the policy word says Backup. *)
let enable heap ~slot ~tag =
  let root = Pmalloc.Heap.root_get heap slot in
  Pmalloc.Heap.set_policy_durable heap slot Pmalloc.Heap.Backup;
  let desc, log, nonce = build_descriptor heap ~slot ~tag root in
  (* the volatile current keeps a reference of its own, alongside the
     anchor reference the descriptor just took *)
  if Pmem.Word.is_ptr root && not (Pmem.Word.is_null root) then
    Pmalloc.Heap.retain heap (Pmem.Word.to_ptr root);
  single heap ~slot (Pmem.Word.of_ptr desc);
  Pmalloc.Heap.install_backup_state heap slot ~current:root ~count:0 ~nonce
    ~desc ~log ~tag

(* The Backup commit: one log entry, one clwb, zero shadow flushes.
   The fence comes FIRST -- it drains the {e previous} entry's clwb,
   giving exactly Full commit's epoch-durability window (op k becomes
   durable at op k+1's commit, or at any explicit fence).  Appending
   and fencing in the same commit would make op k durable before its
   caller is told it happened, which the kill-9 oracle rightly flags:
   a crash between the fence and the acknowledgement would expose a
   state the application never observed. *)
let backup_append ?(intermediates = []) heap st ~opcode ~a0 ~a1 ~latest =
  Pmalloc.Heap.sfence heap;
  mark_commit heap (fun () ->
      Pmalloc.Backup.append heap ~log:st.Pmalloc.Heap.b_log
        ~nonce:st.Pmalloc.Heap.b_nonce ~index:st.Pmalloc.Heap.b_count ~opcode
        ~a0 ~a1);
  st.Pmalloc.Heap.b_count <- st.Pmalloc.Heap.b_count + 1;
  let old = st.Pmalloc.Heap.b_current in
  st.Pmalloc.Heap.b_current <- latest;
  if Pmem.Word.bits old <> Pmem.Word.bits latest then release_version heap old;
  List.iter (release_version heap) intermediates

(* Rebuild a Backup slot's volatile current version after a crash (or on
   first open by a fresh process): read the descriptor, replay the log's
   valid entry prefix from the anchor through the structure's [apply],
   and install the result.  Idempotent; no durable writes -- the replayed
   versions stay volatile-clean exactly as the originals did, covered by
   the same log entries. *)
let reconstruct heap ~slot ~tag ~apply =
  match Pmalloc.Heap.get_policy heap slot with
  | Pmalloc.Heap.Full -> ()
  | Pmalloc.Heap.Backup -> (
      match Pmalloc.Heap.backup_state heap slot with
      | Some st -> check_tag ~slot ~tag st.Pmalloc.Heap.b_tag
      | None ->
          let root = Pmalloc.Heap.root_get heap slot in
          let word0 =
            if Pmem.Word.is_ptr root && not (Pmem.Word.is_null root) then
              Pmalloc.Heap.load heap
                (Pmem.Word.to_ptr root + Pmalloc.Backup.d_magic)
            else Pmem.Word.null
          in
          if not (Pmalloc.Backup.is_magic word0) then
            (* promotion tear: the policy word persisted but the
               descriptor swing did not; the root is the pre-promotion
               (Full-shaped, possibly null) version.  Promote again. *)
            enable heap ~slot ~tag
          else begin
            check_tag ~slot ~tag (Pmalloc.Backup.tag_of word0);
            let body = Pmem.Word.to_ptr root in
            let nonce =
              Pmem.Word.to_int
                (Pmalloc.Heap.load heap (body + Pmalloc.Backup.d_nonce))
            in
            let anchor =
              Pmalloc.Heap.load heap (body + Pmalloc.Backup.d_anchor)
            in
            let log =
              Pmem.Word.to_ptr
                (Pmalloc.Heap.load heap (body + Pmalloc.Backup.d_log))
            in
            let entries =
              Pmalloc.Backup.valid_entries
                ~load:(Pmalloc.Heap.load heap)
                ~log ~nonce
            in
            if Pmem.Word.is_ptr anchor && not (Pmem.Word.is_null anchor) then
              Pmalloc.Heap.retain heap (Pmem.Word.to_ptr anchor);
            let current = ref anchor in
            Pmalloc.Heap.enter_backup_update heap;
            Fun.protect
              ~finally:(fun () -> Pmalloc.Heap.exit_backup_update heap)
              (fun () ->
                List.iter
                  (fun (opcode, a0, a1) ->
                    let next = apply !current ~opcode ~a0 ~a1 in
                    if Pmem.Word.bits next <> Pmem.Word.bits !current then begin
                      release_version heap !current;
                      current := next
                    end)
                  entries);
            Pmalloc.Heap.install_backup_state heap slot ~current:!current
              ~count:(List.length entries) ~nonce ~desc:body ~log ~tag
          end)

(* The Update half of CommitSiblings: build and flush a fresh parent that
   points at the [fields] shadows and shares every other field of the old
   parent.  Returns the owned fresh-parent word; no fence here, so batched
   commits can fold several parents under one ordering point. *)
let sibling_shadow heap ~slot fields =
  let old_parent_w = Pmalloc.Heap.root_get heap slot in
  if Pmem.Word.is_null old_parent_w || not (Pmem.Word.is_ptr old_parent_w) then
    invalid_arg
      (Printf.sprintf
         "Commit.siblings: root slot %d holds no parent object (%s)" slot
         (if Pmem.Word.is_null old_parent_w then "null" else "scalar word"));
  let old_parent = Pmem.Word.to_ptr old_parent_w in
  let used = Pmalloc.Allocator.used_of (Pmalloc.Heap.allocator heap) old_parent in
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= used then
        invalid_arg
          (Printf.sprintf
             "Commit.siblings: field %d outside the %d-word parent" i used))
    fields;
  let fresh = Pfds.Node.alloc heap ~words:used in
  for i = 0 to used - 1 do
    match List.assoc_opt i fields with
    | Some shadow -> Pfds.Node.set heap fresh i shadow
    | None -> Pfds.Node.set_shared heap fresh i (Pfds.Node.get heap old_parent i)
  done;
  Pfds.Node.finish heap fresh;
  Pmem.Word.of_ptr fresh

(* CommitSiblings (Figure 8c).  The root slot holds a parent object whose
   fields point at MOD datastructures; [fields] gives (field index, owned
   shadow) replacements.  The fresh parent is itself a shadow: built,
   flushed, then installed after the single fence. *)
let siblings heap ~slot fields =
  let old_parent_w = Pmalloc.Heap.root_get heap slot in
  let fresh = sibling_shadow heap ~slot fields in
  Pmalloc.Heap.bind heap slot;
  Pmalloc.Heap.sfence heap;
  (* the one ordering point *)
  mark_commit heap (fun () -> Pmalloc.Heap.root_set heap slot fresh);
  release_version heap old_parent_w

(* CommitUnrelated (Figure 8d).  [updates] pairs each root slot with its
   owned shadow.  One fence makes the shadows durable; a short PM-STM
   transaction then updates the persistent pointers atomically, at the
   cost of the transaction's own ordering points. *)
let unrelated heap tx updates =
  List.iter (fun (slot, _) -> Pmalloc.Heap.bind heap slot) updates;
  Pmalloc.Heap.sfence heap;
  let olds = List.map (fun (slot, _) -> Pmalloc.Heap.root_get heap slot) updates in
  mark_commit heap (fun () ->
      Pmstm.Tx.run tx (fun () ->
          List.iter
            (fun (slot, shadow) ->
              (* undo-log both copies of the ping-pong root record, then
                 write the stale copy through the transaction *)
              List.iter
                (fun (off, words) -> Pmstm.Tx.add tx ~off ~words)
                (Pmalloc.Heap.root_record_ranges slot);
              List.iter
                (fun (off, w) -> Pmstm.Tx.store tx off w)
                (Pmalloc.Heap.root_record_stores heap slot shadow))
            updates));
  (* the transaction (or its rollback) rewrote record words outside the
     heap's view; force full validation on the next root access *)
  Pmalloc.Heap.invalidate_root_cache heap;
  List.iter (release_version heap) olds
