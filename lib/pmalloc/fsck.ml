(** Offline image checker and repairer ([modpm fsck]).

    Works on the {e effective} image -- the file with a committed sidecar
    journal applied in memory, or a torn one ignored, exactly what a
    reopening process would end up reading -- without mutating anything
    on disk unless [--repair] is requested.  Four layers of validation:

    + file structure: magic, version, header checksum, size (delegated to
      {!Pmem.Backing}; failures are [Corrupt] with a [Bad_image] detail);
    + content integrity: the whole-image checksum maintained by the
      commit protocol, which catches out-of-band corruption of any line,
      not just root records;
    + root directory: both record copies of every slot validated against
      their (value, slot, seq) checksums, every policy word Full or
      Backup, and the root summary valid and covering every slot with a
      live root or a Backup policy word;
    + object graph: a bounds- and header-validating reachability walk
      from every readable root.

    Verdicts: [Clean] (everything above passes, no journal pending,
    full root redundancy), [Degraded] (openable, but redundancy reduced,
    the root summary invalid so recovery will scan all 64 slots, or a
    journal is awaiting replay/discard), [Corrupt] (the open path would
    fail, serve detectably damaged data, or reclaim a live slot the
    summary omits), and -- only with repair -- [Repaired] (the image was
    rewritten and now reopens).

    Repair is deliberately lossy-but-safe: resolve the journal, restore
    dual-copy redundancy from each slot's surviving copy, quarantine
    slots with no usable copy, a corrupt policy word or an unwalkable
    object graph (nulling them), rewrite the root summary to cover every
    remaining live or Backup slot, and atomically rewrite the image
    (fresh header and checksum, temp file + rename, journal dropped).
    The result always reopens; quarantined roots are reported, not
    silently resurrected. *)

type verdict = Clean | Repaired | Degraded | Corrupt

let verdict_name = function
  | Clean -> "clean"
  | Repaired -> "repaired"
  | Degraded -> "degraded"
  | Corrupt -> "corrupt"

type slot_status =
  | Dual  (** both record copies validate *)
  | Single of int  (** only copy 0 or copy 1 validates *)
  | Dead  (** neither copy validates *)

type report = {
  verdict : verdict;
  detail : string list;  (** human-readable findings, worst first *)
  journal : Pmem.Backing.journal_status;
  checksum_ok : bool;
  slots : (int * slot_status) list;  (** non-[Dual] slots only *)
  unreachable_slots : int list;  (** slots whose object walk failed *)
  live_blocks : int;
  summary : int list option;
      (** slots the root summary covers; [None] when it is invalid *)
  quarantined : int list;  (** repair only: slots nulled *)
}

let pp_journal ppf = function
  | Pmem.Backing.Jnone -> Format.pp_print_string ppf "none"
  | Pmem.Backing.Jcommitted n -> Format.fprintf ppf "committed (%d lines)" n
  | Pmem.Backing.Jtorn -> Format.pp_print_string ppf "torn"

let pp_report ppf r =
  Format.fprintf ppf "@[<v>verdict: %s@ journal: %a@ image checksum: %s@ \
                      live blocks: %d@ root summary: %s@]"
    (verdict_name r.verdict) pp_journal r.journal
    (if r.checksum_ok then "ok" else "MISMATCH")
    r.live_blocks
    (match r.summary with
    | None -> "invalid"
    | Some [] -> "no slots"
    | Some slots -> "slots " ^ String.concat ", " (List.map string_of_int slots));
  List.iter (fun d -> Format.fprintf ppf "@ - %s" d) r.detail;
  (match r.quarantined with
  | [] -> ()
  | q ->
      Format.fprintf ppf "@ quarantined slots: %s"
        (String.concat ", " (List.map string_of_int q)))

(* -- root-record validation on a raw word array -------------------------- *)

let read_copy words ~slot ~copy =
  let off = Heap.record_copy_off ~copy slot in
  if off + 2 >= Array.length words then Error `Oob
  else
    let v = Pmem.Word.raw words.(off) in
    let seq = words.(off + 1) in
    let c = words.(off + 2) in
    if seq >= 0 && Heap.record_checksum ~slot ~seq v = c then Ok (seq, v)
    else Error `Torn

let slot_status words slot =
  match (read_copy words ~slot ~copy:0, read_copy words ~slot ~copy:1) with
  | Ok _, Ok _ -> Dual
  | Ok _, Error _ -> Single 0
  | Error _, Ok _ -> Single 1
  | Error _, Error _ -> Dead

(* The value [Heap.root_get] would serve: the valid copy with the newest
   sequence number; [None] when the slot is dead. *)
let slot_value words slot =
  match (read_copy words ~slot ~copy:0, read_copy words ~slot ~copy:1) with
  | Ok (s0, v0), Ok (s1, v1) -> Some (if s0 >= s1 then v0 else v1)
  | Ok (_, v), Error _ | Error _, Ok (_, v) -> Some v
  | Error _, Error _ -> None

(* -- validating reachability walk ---------------------------------------- *)

(* Walk the object graph hanging off [root], enforcing the invariants the
   trusting recovery walk (Recovery_gc) assumes: headers inside bounds
   and plausibly encoded, bodies inside the image, pointer words in
   scanned payloads landing back inside the heap.  Returns the set of
   bodies visited, or a description of the first violation. *)
let walk_root words ~visited root =
  let cap = Array.length words in
  let heap_start = Heap.heap_start_words in
  let pending = Stack.create () in
  let newly = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let visit body =
    if Hashtbl.mem visited body then Ok ()
    else
      let header = Block.header_of_body body in
      if header < heap_start || body >= cap then
        fail "block body %d outside the heap" body
      else
        match Block.decode_info (Pmem.Word.raw words.(header)) with
        | exception _ -> fail "unreadable block header at %d" header
        | capacity, kind, _allocated ->
            if capacity < Block.min_capacity || header + capacity > cap then
              fail "block at %d has implausible capacity %d" header capacity
            else begin
              Hashtbl.replace visited body ();
              newly := body :: !newly;
              Stack.push (body, header, capacity, kind) pending;
              Ok ()
            end
  in
  let scan (body, header, capacity, kind) =
    match Block.decode_used (Pmem.Word.raw words.(header)) with
    | exception _ -> fail "unreadable used-count at %d" header
    | used ->
        if used < 0 || used > capacity - Block.header_words then
          fail "block at %d claims %d used words of %d" header used capacity
        else if kind = Block.Raw then Ok ()
        else
          let rec go i =
            if i = used then Ok ()
            else
              let w = Pmem.Word.raw words.(body + i) in
              if Pmem.Word.is_ptr w && not (Pmem.Word.is_null w) then
                match visit (Pmem.Word.to_ptr w) with
                | Ok () -> go (i + 1)
                | Error _ as e -> e
              else go (i + 1)
          in
          go 0
  in
  let rec drain () =
    if Stack.is_empty pending then Ok ()
    else
      match scan (Stack.pop pending) with
      | Ok () -> drain ()
      | Error _ as e -> e
  in
  match visit root with
  | Error _ as e ->
      e
  | Ok () -> (
      match drain () with
      | Ok () -> Ok ()
      | Error _ as e -> e)

(* -- commit-policy / Backup-descriptor validation ------------------------- *)

(* [None] for a word that is neither Full nor Backup. *)
let policy_of words slot =
  Heap.policy_of_word (Pmem.Word.raw words.(Heap.policy_off slot))

let bad_policies words =
  List.filter
    (fun slot -> policy_of words slot = None)
    (List.init Heap.root_slots Fun.id)

(* -- root summary ----------------------------------------------------------- *)

let summary_of words =
  Heap.decode_summary (Pmem.Word.raw words.(Heap.summary_off))

(* The slots recovery must find in the summary: a live root or a Backup
   policy word. *)
let bound_slots words =
  List.filter
    (fun slot ->
      (match slot_value words slot with
      | Some w -> not (Pmem.Word.is_null w)
      | None -> false)
      || policy_of words slot = Some Heap.Backup)
    (List.init Heap.root_slots Fun.id)

let needed_lines words =
  List.fold_left (fun lines slot -> lines lor Heap.summary_bit slot) 0
    (bound_slots words)

(* Slots a valid summary omits although recovery must walk them. *)
let unsummarized words lines =
  List.filter
    (fun slot -> lines land Heap.summary_bit slot = 0)
    (bound_slots words)

(* Shape-check the descriptor a Backup slot's root points at and count
   its log's committed entries.  The generic reachability walk already
   proves the descriptor, the anchor subtree and the log block are
   well-formed blocks; this enforces the Backup-specific layout on top:
   a 4-word Scanned body [magic; nonce; anchor; log->Raw].  An image
   whose interiors were never flushed still passes everything here --
   interior-absent is Clean by design; a damaged anchor (leaf-absent) or
   log pointer is Corrupt. *)
let check_descriptor words body =
  let cap = Array.length words in
  let header = Block.header_of_body body in
  let word i = Pmem.Word.raw words.(body + i) in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match Block.decode_info (Pmem.Word.raw words.(header)) with
  | exception _ -> fail "unreadable descriptor header at %d" header
  | _, kind, _ ->
      if kind <> Block.Scanned then fail "descriptor block is not Scanned"
      else if
        Block.decode_used (Pmem.Word.raw words.(header)) <> Backup.desc_words
      then fail "descriptor is not %d words" Backup.desc_words
      else if not (Backup.is_magic (word Backup.d_magic)) then
        fail "descriptor magic mismatch"
      else
        let nonce_w = word Backup.d_nonce in
        let anchor = word Backup.d_anchor in
        let log_w = word Backup.d_log in
        if Pmem.Word.is_ptr nonce_w || Pmem.Word.to_int nonce_w < 0 then
          fail "descriptor nonce is not a non-negative scalar"
        else if not (Pmem.Word.is_ptr anchor) then
          fail "descriptor anchor is a scalar"
        else if (not (Pmem.Word.is_ptr log_w)) || Pmem.Word.is_null log_w then
          fail "descriptor log pointer missing"
        else
          let log = Pmem.Word.to_ptr log_w in
          let lheader = Block.header_of_body log in
          match Block.decode_info (Pmem.Word.raw words.(lheader)) with
          | exception _ -> fail "unreadable log header at %d" lheader
          | _, lkind, _ ->
              if lkind <> Block.Raw then fail "op log is not a Raw block"
              else
                let load off =
                  if off >= 0 && off < cap then Pmem.Word.raw words.(off)
                  else Pmem.Word.zero
                in
                let nonce = Pmem.Word.to_int nonce_w in
                Ok (List.length (Backup.valid_entries ~load ~log ~nonce))

(* Validate every slot's graph.  A failed slot poisons [visited] with the
   blocks it reached before failing; to keep slots independent we re-walk
   with a fresh table per slot and merge only successful walks. *)
let walk_all words =
  let merged = Hashtbl.create 1024 in
  let bad = ref [] in
  let details = ref [] in
  for slot = Heap.root_slots - 1 downto 0 do
    match slot_value words slot with
    | None -> ()
    | Some w ->
        if Pmem.Word.is_ptr w && not (Pmem.Word.is_null w) then begin
          let body = Pmem.Word.to_ptr w in
          let visited = Hashtbl.create 256 in
          (match walk_root words ~visited body with
          | Ok () ->
              Hashtbl.iter (fun b () -> Hashtbl.replace merged b ()) visited
          | Error m ->
              bad := slot :: !bad;
              details := Printf.sprintf "slot %d: %s" slot m :: !details);
          (* Backup slots: the root must be a well-formed descriptor
             (the only exception is a crash between the policy write and
             the descriptor swing, which leaves the pre-promotion root
             -- a valid Full-shaped state the open path re-promotes). *)
          if
            policy_of words slot = Some Heap.Backup
            && (not (List.mem slot !bad))
            && Block.header_of_body body >= Heap.heap_start_words
            && body < Array.length words
            && Backup.is_magic (Pmem.Word.raw words.(body + Backup.d_magic))
          then
            match check_descriptor words body with
            | Ok _entries -> ()
            | Error m ->
                bad := slot :: !bad;
                details :=
                  Printf.sprintf "slot %d (backup): %s" slot m :: !details
        end
        else if not (Pmem.Word.is_ptr w) then begin
          (* a scalar in a root slot is not a version of anything *)
          bad := slot :: !bad;
          details :=
            Printf.sprintf "slot %d: scalar %d where a pointer belongs" slot
              (Pmem.Word.bits w)
            :: !details
        end
  done;
  (Hashtbl.length merged, !bad, !details)

(* -- check --------------------------------------------------------------- *)

let corrupt_of_bad_image path detail =
  {
    verdict = Corrupt;
    detail = [ Printf.sprintf "%s: %s" path detail ];
    journal = Pmem.Backing.Jnone;
    checksum_ok = false;
    slots = [];
    unreachable_slots = [];
    live_blocks = 0;
    summary = None;
    quarantined = [];
  }

let check path =
  match Pmem.Backing.inspect ~path with
  | exception Pmem.Backing.Bad_image { path; detail } ->
      corrupt_of_bad_image path detail
  | img ->
      let words = img.Pmem.Backing.i_words in
      let detail = ref [] in
      let push fmt = Printf.ksprintf (fun m -> detail := m :: !detail) fmt in
      let checksum_ok = img.Pmem.Backing.i_checksum_ok in
      if not checksum_ok then
        push "image checksum mismatch: content corrupted out-of-band";
      if Array.length words < Heap.heap_start_words then
        push "image smaller than the root + policy directory";
      let degraded_slots = ref [] in
      let dead = ref [] in
      if Array.length words >= Heap.heap_start_words then
        for slot = Heap.root_slots - 1 downto 0 do
          match slot_status words slot with
          | Dual -> ()
          | Single c ->
              degraded_slots := (slot, Single c) :: !degraded_slots;
              push "slot %d: single surviving record copy (%d)" slot c
          | Dead ->
              degraded_slots := (slot, Dead) :: !degraded_slots;
              dead := slot :: !dead;
              push "slot %d: both record copies invalid" slot
        done;
      let has_directory = Array.length words >= Heap.heap_start_words in
      let bad_policy = if has_directory then bad_policies words else [] in
      List.iter
        (fun slot ->
          push "slot %d: policy word %d is neither Full nor Backup" slot
            words.(Heap.policy_off slot))
        bad_policy;
      let summary = if has_directory then summary_of words else None in
      let omitted =
        match summary with
        | Some lines -> unsummarized words lines
        | None ->
            if has_directory then
              push "root summary invalid: recovery will scan all %d slots"
                Heap.root_slots;
            []
      in
      List.iter
        (fun slot ->
          push "slot %d: bound but missing from the root summary (recovery \
                would reclaim it)"
            slot)
        omitted;
      let live_blocks, unreachable, walk_details =
        if has_directory then walk_all words else (0, [], [])
      in
      List.iter (fun m -> push "%s" m) walk_details;
      (match img.Pmem.Backing.i_journal with
      | Jnone -> ()
      | Jcommitted n -> push "committed journal pending replay (%d lines)" n
      | Jtorn -> push "torn journal pending discard");
      let verdict =
        if
          (not checksum_ok)
          || !dead <> [] || unreachable <> [] || bad_policy <> []
          || omitted <> [] || not has_directory
        then Corrupt
        else if
          !degraded_slots <> [] || summary = None
          || img.Pmem.Backing.i_journal <> Jnone
        then Degraded
        else Clean
      in
      {
        verdict;
        detail = List.rev !detail;
        journal = img.Pmem.Backing.i_journal;
        checksum_ok;
        slots = !degraded_slots;
        unreachable_slots = unreachable;
        live_blocks;
        summary = Option.map Heap.summary_slots summary;
        quarantined = [];
      }

(* -- repair -------------------------------------------------------------- *)

(* Write a valid record triple into one copy cell of [slot]. *)
let write_record words ~slot ~copy ~seq v =
  let off = Heap.record_copy_off ~copy slot in
  words.(off) <- Pmem.Word.bits v;
  words.(off + 1) <- seq;
  words.(off + 2) <- Heap.record_checksum ~slot ~seq v

(* Nulling a slot must also demote its policy word: a quarantined Backup
   slot has lost its descriptor, and leaving the policy at Backup would
   make the reopened null slot look like an interrupted promotion. *)
let quarantine words slot =
  write_record words ~slot ~copy:0 ~seq:0 Pmem.Word.null;
  write_record words ~slot ~copy:1 ~seq:0 Pmem.Word.null;
  words.(Heap.policy_off slot) <- Pmem.Word.bits (Pmem.Word.of_int 0)

(* Repair = resolve journal (inspect already applied/ignored it), restore
   dual-copy redundancy, quarantine dead slots, corrupt policy words and
   unwalkable slots, make the summary cover every remaining live or
   Backup slot, atomically rewrite the image.  Returns the post-repair
   report ([Repaired] verdict when anything was fixed; an already-clean
   image stays [Clean]). *)
let repair path =
  match Pmem.Backing.inspect ~path with
  | exception Pmem.Backing.Bad_image { path = p; detail } ->
      (* nothing below the header survives: an unusable file cannot be
         rebuilt into the heap it once held *)
      corrupt_of_bad_image p detail
  | img ->
      let words = Array.copy img.Pmem.Backing.i_words in
      if Array.length words < Heap.heap_start_words then
        corrupt_of_bad_image path "image smaller than the root + policy directory"
      else begin
        let touched = ref (img.Pmem.Backing.i_journal <> Jnone) in
        let quarantined = ref [] in
        let quarantine slot =
          quarantine words slot;
          if not (List.mem slot !quarantined) then
            quarantined := slot :: !quarantined;
          touched := true
        in
        if not img.Pmem.Backing.i_checksum_ok then touched := true;
        (* dual-copy redundancy: copy the survivor over the bad cell *)
        for slot = 0 to Heap.root_slots - 1 do
          match
            (read_copy words ~slot ~copy:0, read_copy words ~slot ~copy:1)
          with
          | Ok _, Ok _ -> ()
          | Ok (seq, v), Error _ ->
              write_record words ~slot ~copy:1 ~seq v;
              touched := true
          | Error _, Ok (seq, v) ->
              write_record words ~slot ~copy:0 ~seq v;
              touched := true
          | Error _, Error _ -> quarantine slot
        done;
        List.iter quarantine (bad_policies words);
        (* unwalkable graphs: null the offending root *)
        let rec stabilize () =
          let _, bad, _ = walk_all words in
          if bad <> [] then begin
            List.iter quarantine bad;
            stabilize ()
          end
        in
        stabilize ();
        (* a slot the summary omits keeps its root: only the summary
           grows (quarantined slots may keep a stale bit, which costs
           recovery one more slot and nothing else) *)
        let needed = needed_lines words in
        let lines =
          match summary_of words with
          | Some lines when lines land needed = needed -> None
          | Some lines -> Some (lines lor needed)
          | None -> Some needed
        in
        Option.iter
          (fun lines ->
            words.(Heap.summary_off) <-
              Pmem.Word.bits (Heap.encode_summary lines);
            touched := true)
          lines;
        if !touched then Pmem.Backing.rewrite ~path ~words;
        let r = check path in
        {
          r with
          verdict = (if !touched then Repaired else r.verdict);
          quarantined = List.sort compare !quarantined;
        }
      end
