(** A persistent heap: a simulated PM region, an allocator, and a small
    durable root directory through which applications locate their
    recoverable datastructures across crashes (the paper's "root pointer,
    one for each persistent heap", Section 5.1).

    Root-record format (fault tolerance).  Each of the [root_slots] roots
    is stored as a checksummed {e ping-pong} pair of record copies rather
    than a bare word.  A copy is three words -- value, sequence number,
    checksum over (value, slot, seq) -- padded to a 4-word cell so it
    never straddles a cacheline:

    - copy 0 of slot [s]: words [4*s .. 4*s + 2];
    - copy 1: the same cell one bank ([copy_bank_words]) later.

    [root_set] writes {e only the stale copy} with the next sequence
    number, so at most one copy is ever dirty when a crash hits: a torn
    crash (per-word persistence) or a media-bad line can invalidate at
    most the in-flight copy, and [root_get] falls back to the other,
    which holds the previous committed value -- exactly the state the
    unfenced root swing would have re-exposed anyway.  Only when both
    copies fail validation (double corruption, or a media fault paired
    with a tear) does the heap give up, with a typed [Torn_root] or a
    re-raised [Media_fault] -- never a silently wrong root.

    Root summary.  The otherwise unused fourth word of slot 0's copy-0
    cell holds one checksummed word recording which record lines the
    heap has ever bound (line [k] of a bank holds slots [2k] and
    [2k+1]).  A slot's bit is durable before any copy of its record
    holds a non-null value and before its policy word says Backup, so
    recovery reads the summary and validates only the bound slots; when
    the word fails its check or its line faults, it scans all of
    them. *)

let root_slots = 64

(* A record copy is 3 words padded to a 4-word cell: cells are 4-aligned
   and lines hold 8 words, so a copy never straddles a line. *)
let copy_stride = 4
let copy_bank_words = copy_stride * root_slots
let root_directory_words = 2 * copy_bank_words

let copy_off ~copy slot = (copy * copy_bank_words) + (copy_stride * slot)

(* "Don't Persist All" commit policy, one durable word per slot right
   after the record banks: 0 = Full (every shadow node flushed before
   the fence), 1 = Backup (only the op log and checkpoint anchors are
   flushed; interior nodes stay volatile-clean and are reconstructed at
   recovery by replaying the log).  The word is written once, when a
   slot is promoted, with an ordinary store + clwb drained by the
   promotion commit's fence. *)
type policy = Full | Backup

let policy_name = function Full -> "full" | Backup -> "backup"
let policy_words = root_slots
let policy_off slot = root_directory_words + slot
let heap_start_words = root_directory_words + policy_words

(* Avalanche mix (murmur3-finalizer flavoured, 63-bit) binding the root
   value to its slot and sequence number: a stale-but-valid copy from
   another slot or an earlier epoch of this slot still fails validation.
   Constants are 60-bit so the literals fit OCaml's int. *)
let checksum ~slot ~seq w =
  let x =
    Pmem.Word.bits w
    lxor ((slot + 1) * 0x9E3779B97F4A7C1)
    lxor (seq * 0xD1B54A32D192ED0)
  in
  let x = x lxor (x lsr 33) in
  let x = x * 0xFF51AFD7ED558C1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xC4CEB9FE1A85EC5 in
  x lxor (x lsr 32)

(* The root summary: one word, so a torn crash cannot split it.  Bits
   31..62 hold the bitmap of bound record lines (32 lines per bank),
   bits 0..30 a check over it whose top bit is always set: the all-zero
   word of a fresh region or of an image written before the summary
   existed never validates, and [Pmem.Region.corrupt_word] (xor 0x55)
   flips check bits only, so it never turns a valid word into another
   valid one. *)
let summary_off = copy_stride - 1

(* Every commit tests its slot's bit, so the bits are tabled once. *)
let summary_bits =
  Array.init root_slots (fun slot ->
      1 lsl (copy_stride * slot / Pmem.Config.words_per_line))

let summary_bit slot = summary_bits.(slot)
let check_bits = 31
let check_top = 1 lsl (check_bits - 1)

let summary_check lines =
  let x = (lines + 1) * 0x9E3779B97F4A7C1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xFF51AFD7ED558C1 in
  let x = x lxor (x lsr 32) in
  (x land (check_top - 1)) lor check_top

let encode_summary lines =
  Pmem.Word.raw ((lines lsl check_bits) lor summary_check lines)

let decode_summary w =
  let bits = Pmem.Word.bits w in
  let lines = bits lsr check_bits in
  if bits land ((1 lsl check_bits) - 1) = summary_check lines then Some lines
  else None

(* Consed from the highest slot down, so the list comes out ascending. *)
let summary_slots lines =
  let rec from slot acc =
    if slot < 0 then acc
    else
      from (slot - 1)
        (if lines land summary_bits.(slot) <> 0 then slot :: acc else acc)
  in
  from (root_slots - 1) []

(* A fresh heap's summary already covers line 0, the line that holds the
   summary itself: recovery loads it anyway, and slots 0 and 1 -- where
   structures and benchmarks put their roots -- never pay a bind. *)
let fresh_lines = summary_bit 0

exception Torn_root of { slot : int }
exception Corrupt_policy of { slot : int; word : Pmem.Word.t }

(* Volatile per-slot state of a Backup-policy structure.  The durable
   side is a 4-word descriptor node the root slot points at (magic,
   nonce, anchor version, op-log pointer; see {!Backup}); this record
   caches what replaying the log would rebuild, so the hot path never
   re-reads the log.  Lost at crash/reset; rebuilt by the structure's
   [reconstruct] after recovery. *)
type backup_state = {
  mutable b_current : Pmem.Word.t;
      (* root of the live (possibly never-flushed) version *)
  mutable b_count : int;  (* valid entries appended to the durable log *)
  b_nonce : int;  (* the nonce every valid entry's checksum is bound to *)
  b_desc : int;  (* descriptor body offset *)
  b_log : int;  (* op-log (Raw block) body offset *)
  b_tag : int;  (* the layout tag the descriptor carries *)
}

type t = {
  region : Pmem.Region.t;
  allocator : Allocator.t;
  (* degradation diagnostics (volatile): how often validation caught a
     bad record copy, and how often the surviving copy rescued the slot *)
  mutable root_torn_detected : int;
  mutable root_fallbacks : int;
  (* commit-policy machinery (volatile; durable policy words are the
     source of truth, this is a cache refreshed by recovery) *)
  policies : policy array;
  backup : (int, backup_state) Hashtbl.t;
  backlog : (int, unit) Hashtbl.t;
      (* Scanned bodies whose flush was suppressed inside a Backup
         update; flushed in bulk at the next checkpoint *)
  mutable backup_depth : int;
  (* instance-scoped telemetry: the collector metering this heap, if
     any.  Carried here (not in a process-wide ref) so N shard heaps in
     one process each keep their own histograms and attribution. *)
  mutable telemetry : Telemetry.t option;
  (* Incremental root-record cache (volatile).  Re-validating both
     3-word copies on every root read/swing costs ~12 PM loads per
     commit; once a slot has been seen with both copies valid, the
     winning (value, seq) and the next swing's (target copy, seq) are
     remembered here and a one-field root update recomputes only the
     touched record's checksum -- 3 stores + 1 clwb, no re-reads.  An
     entry is trusted only while the region's integrity epoch matches
     the fill-time epoch: crashes, restores, injected corruption and
     media-fault arming all bump the epoch, and [root_record_stores]
     (whose stores land outside this module's view) invalidates its
     slot, so every path that can falsify the cache forces the next
     access back through full two-copy validation. *)
  rcache_epoch : int array; (* fill-time integrity epoch; -1 = empty *)
  rcache_value : Pmem.Word.t array;
  rcache_seq : int array;
  rcache_target : int array; (* copy the next swing overwrites *)
  rcache_tseq : int array; (* sequence the next swing stamps *)
  (* Root-summary lines (volatile, seeded by recovery; see [bind]):
     [sum_bound] every summary this heap writes must cover,
     [sum_stored] the summary word holds in the volatile view with its
     flush launched, [sum_fenced] a fence has made durable.  Each set
     contains the next; they differ only between a bind and its fence,
     or after a recovery that had to scan. *)
  mutable sum_bound : int;
  mutable sum_stored : int;
  mutable sum_fenced : int;
  mutable summary_fallbacks : int;
}

let region t = t.region
let allocator t = t.allocator
let stats t = Pmem.Region.stats t.region
let trace t = Pmem.Region.trace t.region
let telemetry t = t.telemetry
let set_telemetry t c = t.telemetry <- c

let telemetry_gauges t () =
  {
    Telemetry.g_live_words = Allocator.live_words t.allocator;
    g_free_words = Allocator.free_words t.allocator;
    g_deferred_words = Allocator.deferred_words t.allocator;
    g_high_water_words = Allocator.high_water_words t.allocator;
    g_alloc_words_total = Allocator.alloc_words_total t.allocator;
  }

let attach_telemetry ?sink t =
  let c =
    Telemetry.create ?sink ~gauges:(telemetry_gauges t)
      (Pmem.Region.stats t.region)
  in
  t.telemetry <- Some c;
  c

let span t ~structure ~op ?ops f =
  Telemetry.span_on t.telemetry ~structure ~op ?ops f
let root_torn_detected t = t.root_torn_detected
let root_fallbacks t = t.root_fallbacks
let summary_fallbacks t = t.summary_fallbacks

let check_slot slot =
  if slot < 0 || slot >= root_slots then
    invalid_arg (Printf.sprintf "Heap: root slot %d out of range" slot)

(* -- root summary ---------------------------------------------------------- *)

(* Bind [slot]: make sure the summary word covers its line.  A bound
   slot costs one bit test.  Otherwise store the widened word and launch
   its flush, with no fence: commit paths bind before the fence they
   already issue, so the bit is durable before their record write.  The
   store and clwb run as one atomic section (a CAS on the summary word
   in a real heap): a concurrent writer never sees the bit before its
   flush is launched, so that writer's own commit fence drains it. *)
let bind t slot =
  check_slot slot;
  let bit = summary_bit slot in
  if t.sum_stored land bit = 0 then begin
    let lines = t.sum_bound lor bit in
    Pmem.Region.atomic t.region (fun () ->
        Pmem.Region.store t.region summary_off (encode_summary lines);
        Pmem.Region.clwb t.region summary_off);
    t.sum_bound <- lines;
    t.sum_stored <- lines
  end

(* A fence drains every summary flush launched before it.  The stored
   set is read before the fence: under the interleaving explorer another
   writer may bind while this one yields at the fence event. *)
let fence_summary t =
  let stored = t.sum_stored in
  Pmem.Region.sfence t.region;
  t.sum_fenced <- t.sum_fenced lor stored

(* The ordering rule every record and policy writer obeys: a slot's bit
   is durable before any copy of its record holds a non-null value and
   before its policy word says Backup.  Commit paths find the bit
   already fenced.  A writer with no commit fence in front of it (a
   direct [root_set], enabling Backup on a fresh slot) binds and fences
   here, once per slot per heap.  A bit stored but not yet fenced means
   its bind came after the caller's commit fence: a misordered commit,
   refused instead of being patched with a second fence. *)
let ensure_bound t slot =
  let bit = summary_bit slot in
  if t.sum_fenced land bit = 0 then begin
    if t.sum_stored land bit <> 0 then
      invalid_arg
        (Printf.sprintf "Heap: slot %d was bound after its commit fence" slot);
    bind t slot;
    fence_summary t
  end

let rcache_valid t slot =
  t.rcache_epoch.(slot) = Pmem.Region.integrity_epoch t.region

let rcache_invalidate t slot = t.rcache_epoch.(slot) <- -1
let invalidate_root_cache t = Array.fill t.rcache_epoch 0 root_slots (-1)

(* Fill a slot's cache entry from a both-copies-valid read.  A slot with
   a torn or media-bad copy keeps paying full validation on every access
   until a swing repairs it, and nothing is cached while any media fault
   is armed (a fault on the record's own line must surface as
   [Media_fault] on the very next read, not be papered over). *)
let rcache_fill t slot ~s0 ~v0 ~s1 ~v1 =
  if Pmem.Region.media_fault_count t.region = 0 then begin
    let value, seq = if s0 >= s1 then (v0, s0) else (v1, s1) in
    t.rcache_value.(slot) <- value;
    t.rcache_seq.(slot) <- seq;
    t.rcache_target.(slot) <- (if s0 <= s1 then 0 else 1);
    t.rcache_tseq.(slot) <- 1 + max s0 s1;
    t.rcache_epoch.(slot) <- Pmem.Region.integrity_epoch t.region
  end

(* Read one copy of a root record.  [Error `Torn] = checksum mismatch,
   [Error `Media] = the copy's line faulted on read. *)
let read_copy t ~slot ~copy =
  let off = copy_off ~copy slot in
  match
    let v = Pmem.Region.load t.region off in
    let s = Pmem.Region.load t.region (off + 1) in
    let c = Pmem.Region.load t.region (off + 2) in
    (v, s, c)
  with
  | exception Pmem.Region.Media_fault _ -> Error `Media
  | v, s, c ->
      let seq = Pmem.Word.bits s in
      if seq >= 0 && checksum ~slot ~seq v = Pmem.Word.bits c then
        Ok (seq, v)
      else Error `Torn

let count_torn t = t.root_torn_detected <- t.root_torn_detected + 1

(* Why torn copies fall back but media-bad copies do not.  Only the
   in-flight copy of a record is ever dirty, so a torn crash can
   invalidate at most that copy and the survivor holds the latest or the
   previous committed value -- both inside the durable-linearizability
   window of an unfenced root swing.  A media fault is different: it can
   kill the *up-to-date* copy while a torn crash reverts the in-flight
   one to its fully-old (still valid) contents, leaving a survivor two
   commits stale.  Freshness of the survivor cannot be established, so a
   faulting record line surfaces as a typed [Media_fault] instead of a
   silently stale root. *)
let root_get_versioned t slot =
  check_slot slot;
  if rcache_valid t slot then (t.rcache_value.(slot), t.rcache_seq.(slot))
  else
    match (read_copy t ~slot ~copy:0, read_copy t ~slot ~copy:1) with
    | Ok (s0, v0), Ok (s1, v1) ->
        rcache_fill t slot ~s0 ~v0 ~s1 ~v1;
        if s0 >= s1 then (v0, s0) else (v1, s1)
    | Ok (s, v), Error `Torn | Error `Torn, Ok (s, v) ->
        count_torn t;
        t.root_fallbacks <- t.root_fallbacks + 1;
        (v, s)
    | Error `Media, _ | _, Error `Media ->
        let copy =
          match read_copy t ~slot ~copy:0 with Error `Media -> 0 | _ -> 1
        in
        raise (Pmem.Region.Media_fault { off = copy_off ~copy slot })
    | Error `Torn, Error `Torn ->
        count_torn t;
        count_torn t;
        raise (Torn_root { slot })

let root_get t slot = fst (root_get_versioned t slot)

(* The copy [root_get] would serve (diagnostics/tests). *)
let active_root_copy t slot =
  check_slot slot;
  match (read_copy t ~slot ~copy:0, read_copy t ~slot ~copy:1) with
  | Ok (s0, _), Ok (s1, _) -> if s0 >= s1 then 0 else 1
  | Ok _, Error `Torn -> 0
  | Error `Torn, Ok _ -> 1
  | Error `Media, _ -> raise (Pmem.Region.Media_fault { off = copy_off ~copy:0 slot })
  | _, Error `Media -> raise (Pmem.Region.Media_fault { off = copy_off ~copy:1 slot })
  | Error `Torn, Error `Torn -> raise (Torn_root { slot })

(* Pick the copy the next update must overwrite: normally the stale one
   (ping-pong), but never leave the freshest value on a line already
   known media-bad when the other line still reads fine. *)
let target_copy t slot =
  match (read_copy t ~slot ~copy:0, read_copy t ~slot ~copy:1) with
  | Ok (s0, _), Ok (s1, _) ->
      if s0 <= s1 then (0, 1 + max s0 s1) else (1, 1 + max s0 s1)
  | Ok (s, _), Error `Torn -> (1, s + 1)
  | Error `Torn, Ok (s, _) -> (0, s + 1)
  (* media-bad sibling: write over the readable copy; the bad line would
     fault every future read anyway *)
  | Ok (s, _), Error `Media -> (0, s + 1)
  | Error `Media, Ok (s, _) -> (1, s + 1)
  | Error `Media, Error `Torn -> (1, 1)
  | Error _, Error _ -> (0, 1)

let root_record_stores t slot w =
  check_slot slot;
  ensure_bound t slot;
  (* the caller applies these stores outside this module's view, so the
     cached post-state can no longer be trusted once they land *)
  rcache_invalidate t slot;
  let copy, seq = target_copy t slot in
  let off = copy_off ~copy slot in
  [
    (off, w);
    (off + 1, Pmem.Word.raw seq);
    (off + 2, Pmem.Word.raw (checksum ~slot ~seq w));
  ]

let root_record_ranges slot =
  [ (copy_off ~copy:0 slot, 3); (copy_off ~copy:1 slot, 3) ]

(* A heap over [region] with empty volatile state; [lines] is what the
   region's summary durably covers (seeded by recovery when unknown). *)
let make region ~lines =
  {
    region;
    allocator = Allocator.create region ~heap_start:heap_start_words;
    root_torn_detected = 0;
    root_fallbacks = 0;
    policies = Array.make root_slots Full;
    backup = Hashtbl.create 8;
    backlog = Hashtbl.create 64;
    backup_depth = 0;
    telemetry = None;
    rcache_epoch = Array.make root_slots (-1);
    rcache_value = Array.make root_slots Pmem.Word.null;
    rcache_seq = Array.make root_slots 0;
    rcache_target = Array.make root_slots 0;
    rcache_tseq = Array.make root_slots 0;
    sum_bound = lines;
    sum_stored = lines;
    sum_fenced = lines;
    summary_fallbacks = 0;
  }

let create ?(capacity_words = 1 lsl 20) ?(trace = false) ?(seed = 42) ?file
    ?sync_hook () =
  let region =
    Pmem.Region.create ~capacity_words ~trace ~seed ?file ?sync_hook ()
  in
  let t = make region ~lines:fresh_lines in
  (* Fresh heap: both copies of every record are durable, valid null
     pointers at sequence 0 (the tie breaks toward overwriting copy 0
     first), every policy word durably Full and the summary durably
     covering line 0 only.  The summary is stored right after the record
     it shares a cell with, so the directory's lines are touched in the
     same order as without it. *)
  for slot = 0 to root_slots - 1 do
    List.iter
      (fun copy ->
        let off = copy_off ~copy slot in
        Pmem.Region.store region off Pmem.Word.null;
        Pmem.Region.store region (off + 1) (Pmem.Word.raw 0);
        Pmem.Region.store region (off + 2)
          (Pmem.Word.raw (checksum ~slot ~seq:0 Pmem.Word.null));
        if slot = 0 && copy = 0 then
          Pmem.Region.store region summary_off (encode_summary fresh_lines))
      [ 0; 1 ];
    Pmem.Region.store region (policy_off slot) (Pmem.Word.raw 0)
  done;
  Pmem.Region.clwb_range region 0 heap_start_words;
  Pmem.Region.sfence region;
  Pmem.Stats.reset (Pmem.Region.stats region);
  Pmem.Trace.clear (Pmem.Region.trace region);
  t

(* The root update at the heart of Commit: write the stale copy of the
   record (value, next seq, checksum -- all inside one cacheline) and
   launch one weakly-ordered flush.  The flush is ordered by the *next*
   FASE's fence (epoch persistency, Section 5.1): losing it in a crash
   -- torn or whole -- merely re-exposes the other copy, which holds the
   previous consistent version of the record. *)
let root_set_seq t slot w =
  check_slot slot;
  ensure_bound t slot;
  if rcache_valid t slot then begin
    (* Incremental swing: the stale copy's identity and the next sequence
       number are already known, so only the touched record's checksum is
       recomputed -- the same 3 stores + 1 clwb the validating path
       emits, with zero loads.  The cache then advances to the post-swing
       state: the written copy is now freshest, the sibling is next. *)
    let copy = t.rcache_target.(slot) in
    let seq = t.rcache_tseq.(slot) in
    let off = copy_off ~copy slot in
    Pmem.Region.store t.region off w;
    Pmem.Region.store t.region (off + 1) (Pmem.Word.raw seq);
    Pmem.Region.store t.region (off + 2)
      (Pmem.Word.raw (checksum ~slot ~seq w));
    Pmem.Region.clwb t.region off;
    t.rcache_value.(slot) <- w;
    t.rcache_seq.(slot) <- seq;
    t.rcache_target.(slot) <- 1 - copy;
    t.rcache_tseq.(slot) <- seq + 1;
    seq
  end
  else begin
    let stores = root_record_stores t slot w in
    List.iter (fun (off, v) -> Pmem.Region.store t.region off v) stores;
    match stores with
    | (off, _) :: (_, seq) :: _ ->
        Pmem.Region.clwb t.region off;
        Pmem.Word.bits seq
    | _ -> assert false
  end

let root_set t slot w = ignore (root_set_seq t slot w)

(* Compare-and-swap on a root slot, modelling a double-word (pointer +
   counter) hardware CAS on the root record.  The record's sequence
   number doubles as the ABA tag: every successful update stamps
   [1 + max seq] on the stale copy, so a root that has returned to a
   bit-identical pointer value after intervening commits -- which
   happens as soon as a superseded version is reclaimed and its address
   reused by a later shadow -- still fails the compare.  A plain
   value-compare CAS is unsound here for exactly that reason: a writer
   that read root [P], built a shadow from [P]'s contents, and raced two
   commits (away from and back to address [P]) would install a shadow
   derived from a version that no longer exists.

   The read-compare-write runs inside {!Pmem.Region.atomic}, so no other
   simulated writer is scheduled between the load of the current record
   and the record write -- but every PM event inside still counts
   against the crash budget, and the record write keeps the ping-pong
   discipline (only the stale copy is touched), so a crash landing
   mid-CAS re-exposes the previous committed value exactly as under
   {!root_set}.  A slot the CAS binds (no commit fence before it)
   binds inside the atomic section, in [root_set], so a concurrent
   commit's fence-to-CAS window stays free of PM events. *)
let root_cas t slot ~expected ~expected_seq ~desired =
  check_slot slot;
  Pmem.Region.atomic t.region (fun () ->
      let cur, seq = root_get_versioned t slot in
      if seq = expected_seq && Pmem.Word.bits cur = Pmem.Word.bits expected
      then begin
        root_set t slot desired;
        true
      end
      else false)

(* -- commit policy ------------------------------------------------------- *)

let get_policy t slot =
  check_slot slot;
  t.policies.(slot)

let policy_word = function
  | Full -> Pmem.Word.of_int 0
  | Backup -> Pmem.Word.of_int 1

let policy_of_word w =
  if Pmem.Word.bits w = Pmem.Word.bits (policy_word Full) then Some Full
  else if Pmem.Word.bits w = Pmem.Word.bits (policy_word Backup) then
    Some Backup
  else None

(* Recovery's read of the directory.  Load the summary; validate the
   policy words and both record copies of the slots it binds (all of
   them when it fails its check or its line faults); every other slot
   is Full and null.  Reads only: the bound set is seeded from the
   summary, or after a scan from every slot found non-null or Backup --
   left unstored, so the next bind writes a summary covering them.  A
   media fault on a policy or record line propagates, and a policy word
   that is neither Full nor Backup raises [Corrupt_policy]: the caller
   is the recovery path, which surfaces both as typed errors. *)
let read_directory t =
  let summary =
    match Pmem.Region.load t.region summary_off with
    | w -> decode_summary w
    | exception Pmem.Region.Media_fault _ -> None
  in
  let slots =
    match summary with
    | Some lines -> summary_slots lines
    | None ->
        t.summary_fallbacks <- t.summary_fallbacks + 1;
        List.init root_slots Fun.id
  in
  Array.fill t.policies 0 root_slots Full;
  List.iter
    (fun slot ->
      let word = Pmem.Region.load t.region (policy_off slot) in
      match policy_of_word word with
      | Some p -> t.policies.(slot) <- p
      | None -> raise (Corrupt_policy { slot; word }))
    slots;
  let roots = List.map (fun slot -> (slot, root_get t slot)) slots in
  (match summary with
  | Some lines ->
      t.sum_bound <- lines;
      t.sum_stored <- lines;
      t.sum_fenced <- lines
  | None ->
      t.sum_bound <-
        List.fold_left
          (fun lines (slot, w) ->
            if Pmem.Word.is_null w && t.policies.(slot) = Full then lines
            else lines lor summary_bit slot)
          0 roots;
      t.sum_stored <- 0;
      t.sum_fenced <- 0);
  (roots, summary <> None)

(* Record the policy durably: a single store + clwb, ordered by the
   promotion commit's fence ({!sfence} inside [Commit.single]), which
   runs strictly before the descriptor root swing can persist -- so a
   durable descriptor root implies a durable Backup policy word. *)
let set_policy_durable t slot policy =
  check_slot slot;
  if policy = Backup then ensure_bound t slot;
  Pmem.Region.store t.region (policy_off slot) (policy_word policy);
  Pmem.Region.clwb t.region (policy_off slot);
  t.policies.(slot) <- policy

let backup_state t slot =
  check_slot slot;
  Hashtbl.find_opt t.backup slot

let install_backup_state t slot ~current ~count ~nonce ~desc ~log ~tag =
  check_slot slot;
  Hashtbl.replace t.backup slot
    { b_current = current; b_count = count; b_nonce = nonce; b_desc = desc;
      b_log = log; b_tag = tag }

let clear_backup_runtime t =
  Hashtbl.reset t.backup;
  Hashtbl.reset t.backlog;
  t.backup_depth <- 0

(* The sequence number {!root_set} will stamp on this slot's next record
   update -- used as the nonce binding a fresh op log to its descriptor,
   so stale-but-checksummed entries from a recycled log block can never
   validate. *)
let next_root_seq t slot =
  check_slot slot;
  if rcache_valid t slot then t.rcache_tseq.(slot)
  else snd (target_copy t slot)

let enter_backup_update t = t.backup_depth <- t.backup_depth + 1

let exit_backup_update t =
  if t.backup_depth <= 0 then invalid_arg "Heap.exit_backup_update: not inside";
  t.backup_depth <- t.backup_depth - 1

let alloc t ~kind ~words = Allocator.alloc t.allocator ~kind ~words
let free t body = Allocator.free t.allocator body
let release t body = Allocator.release t.allocator body
let[@inline] retain t body = Allocator.retain t.allocator body

(* Inside a Backup update, Scanned shadow nodes skip their clwbs (that is
   the whole point of the policy: the op log carries durability) and are
   parked in the backlog for the next checkpoint, which must make the
   checkpoint anchor fully durable.  Raw blocks (string blobs) always
   flush eagerly -- the log only records scalar arguments, so blob
   payloads must be durable the moment a logged op can reference them. *)
let flush_block t body =
  if t.backup_depth > 0 && Allocator.kind_of t.allocator body = Block.Scanned
  then Hashtbl.replace t.backlog body ()
  else Allocator.flush_block t.allocator body

(* Flush every backlogged node that is still live.  Nodes released since
   their suppressed flush (superseded intermediate versions) are skipped;
   flushing only live blocks keeps the checkpoint cost proportional to
   the surviving update, not to churn. *)
let flush_backlog t =
  Hashtbl.iter
    (fun body () ->
      if Allocator.is_allocated t.allocator body then
        Allocator.flush_block t.allocator body)
    t.backlog;
  Hashtbl.reset t.backlog

let load t off = Pmem.Region.load t.region off
let store t off w = Pmem.Region.store t.region off w
let blit t ~src ~dst ~len f x = Pmem.Region.blit t.region ~src ~dst ~len f x
let fill t ~dst ~len f x = Pmem.Region.fill t.region ~dst ~len f x
let clwb t off = Pmem.Region.clwb t.region off
let clwb_range t off words = Pmem.Region.clwb_range t.region off words
(* A fence ends the reclamation epoch: every in-flight clwb -- including
   the previous commit's root write -- is now durable, so blocks released
   by that commit can no longer be reached from any durable root and the
   allocator may hand them out again. *)
let sfence t =
  fence_summary t;
  Allocator.epoch_flush t.allocator
let crash ?mode ?seed ?torn t = Pmem.Region.crash ?mode ?seed ?torn t.region

(* Scratch-heap support for the crash-point explorer: a snapshot taken
   right after [create] captures the pristine heap; [reset_fresh]
   rewinds the region to it and resets the volatile allocator state,
   which together equal a fresh [create] except for the caches.  A
   [create] is cheap (the region and the caches materialize only what a
   run touches), so the rewind stays for the caches: it leaves them
   cold, where a fresh heap's hold the root directory [create] wrote,
   and the recovery sim times the sweeps pin were taken cold. *)
let pristine_snapshot t = Pmem.Region.snapshot t.region

let reset_fresh t ~pristine =
  Pmem.Region.restore t.region pristine;
  Allocator.reset_fresh t.allocator;
  (* the restore's epoch bump already distrusts every entry; emptying the
     cache as well keeps reset equivalent to a fresh [create] *)
  invalidate_root_cache t;
  t.root_torn_detected <- 0;
  t.root_fallbacks <- 0;
  t.summary_fallbacks <- 0;
  t.sum_bound <- fresh_lines;
  t.sum_stored <- fresh_lines;
  t.sum_fenced <- fresh_lines;
  Array.fill t.policies 0 root_slots Full;
  clear_backup_runtime t;
  (* the restore rewound the stats block under the collector; re-base it
     so the first post-reset report doesn't see a negative delta *)
  match t.telemetry with Some c -> Telemetry.reset c | None -> ()

(* -- file-backed heaps --------------------------------------------------- *)

(* Reopen an existing image file.  The region layer resolves the sidecar
   journal and checksum-verifies the content; here we only sanity-check
   that the image is big enough to hold a root directory at all.  The
   allocator starts empty -- its state is volatile by design and must be
   rebuilt by the reachability analysis (Recovery_gc / Recovery.open_file),
   exactly as after a simulated crash. *)
let open_file ?(trace = false) ?(seed = 42) ~path () =
  let region, journal = Pmem.Region.open_file ~trace ~seed ~path () in
  if Pmem.Region.capacity_words region < heap_start_words then
    raise
      (Pmem.Backing.Bad_image
         {
           path;
           detail =
             Printf.sprintf "image holds %d words, smaller than the %d-word \
                             root + policy directory"
               (Pmem.Region.capacity_words region)
               heap_start_words;
         });
  (make region ~lines:0, journal)

let close t = Pmem.Region.close_file t.region

(* Record-format helpers for offline image inspection (Fsck): validate
   and synthesize root records on a raw word array, no region needed. *)
let record_copy_off = copy_off
let record_checksum ~slot ~seq w = checksum ~slot ~seq w
