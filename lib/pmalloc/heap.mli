(** A persistent heap: simulated PM region + allocator + a durable root
    directory through which applications locate their recoverable
    datastructures across crashes (the paper's per-heap "root pointer",
    Section 5.1). *)

type t

val root_slots : int
(** Number of root-directory slots.  Each slot is stored as a checksummed
    ping-pong pair of record copies (see below); the directory occupies
    the region's first {!root_directory_words} words and the heap proper
    starts after it. *)

val root_directory_words : int
(** Size of the on-PM root directory in words ([8 * root_slots]).  A
    record copy is three words -- value, sequence number, checksum over
    (value, slot, seq) -- padded to a 4-word cell so it never straddles
    a cacheline; slot [s] keeps copy 0 at word [4*s] and copy 1 one bank
    later.  {!root_set} overwrites only the stale copy, so at most one
    copy is ever in flight when a crash hits: torn crashes and media
    faults can invalidate at most that copy, and {!root_get} falls back
    to the survivor.  The fourth word of slot 0's copy-0 cell holds the
    root summary ({!summary_off}). *)

type policy = Full | Backup
(** Per-slot commit policy ("Don't Persist All").  [Full] is the paper's
    MOD protocol: every shadow node is clwb'd before the commit fence.
    [Backup] persists only a per-op log entry plus periodic checkpoint
    anchors; interior nodes stay volatile-clean and the structure is
    reconstructed after a crash by replaying the log from the anchor. *)

val policy_name : policy -> string

val policy_words : int
(** One durable policy word per slot, stored at
    [root_directory_words + slot]: scalar 0 = Full, scalar 1 = Backup;
    any other word is corrupt.  Written once at promotion, ordered
    before the descriptor root swing by the promotion commit's fence.
    The slot's summary bit is durable before the word says Backup. *)

val policy_off : int -> int
(** Word offset of slot [s]'s durable policy word (offline inspection). *)

val policy_of_word : Pmem.Word.t -> policy option
(** Decode a durable policy word; [None] when it is neither Full nor
    Backup. *)

(** {1 Root summary}

    One checksummed word at {!summary_off} records which record lines
    the heap has ever bound: line [k] of a bank holds slots [2k] and
    [2k+1], and bit [k] of the 32-bit line set covers both.  A fresh
    heap's summary covers line 0, the line the summary itself lives in,
    so slots 0 and 1 never pay a bind.  The ordering rule: a slot's bit
    is durable before any copy of its record holds a non-null value and
    before its policy word says Backup.
    Commit paths {!bind} before the fence they already issue; a record
    or policy writer that finds the bit unbound ({!root_set},
    {!root_cas}, {!root_record_stores}, {!set_policy_durable} to Backup)
    binds and fences once per slot per heap.  Recovery reads the word
    first and validates only the bound slots ({!read_directory}); a word
    that fails its check or faults sends it through all 64. *)

val summary_off : int
(** Word offset of the summary: the unused fourth word of slot 0's
    copy-0 cell, inside the root directory. *)

val summary_bit : int -> int
(** The line-set bit that covers slot [s]. *)

val summary_slots : int -> int list
(** The slots a line set covers, ascending. *)

val encode_summary : int -> Pmem.Word.t
(** The summary word for a line set: the 32-bit set above a 31-bit check
    whose top bit is set, so the word 0 never validates and no
    [Pmem.Region.corrupt_word] of a valid word validates. *)

val decode_summary : Pmem.Word.t -> int option
(** The line set of a valid summary word; [None] when the check fails. *)

val bind : t -> int -> unit
(** Make the summary cover slot [s]: one bit test when it already does;
    otherwise store the widened word and clwb it, with no fence -- the
    caller's next fence makes it durable, and the caller must issue that
    fence before writing the slot's record or policy word.  A bind after
    that fence makes the write raise [Invalid_argument]. *)

exception Corrupt_policy of { slot : int; word : Pmem.Word.t }
(** Raised by {!read_directory} when a slot's policy word is neither
    Full nor Backup (typed by [Mod_core.Recovery] as [Corrupt_root]). *)

val read_directory : t -> (int * Pmem.Word.t) list * bool
(** Recovery's read of the directory: load the summary, then the policy
    word and both record copies ({!root_get}) of every slot it binds, or
    of all 64 slots when the summary fails its check or its line faults.
    Returns each validated slot with its root, ascending, and whether
    the summary was used.  Refreshes the policy cache (unread slots are
    Full) and seeds the bound set: from the summary, or after a scan
    from every slot found non-null or Backup, so the next bind writes a
    summary covering them.  Issues loads only.  Raises
    {!Corrupt_policy}, {!Torn_root} or [Media_fault] as {!root_get}
    does. *)

val summary_fallbacks : t -> int
(** Times {!read_directory} found no valid summary and scanned every
    slot (volatile diagnostic counter; reset by {!reset_fresh}). *)

val heap_start_words : int
(** First word of the block heap: the root directory plus the policy
    directory ([root_directory_words + policy_words]). *)

exception Torn_root of { slot : int }
(** Raised by {!root_get} when {e both} copies of a slot's record fail
    checksum validation: the root is detectably corrupt and there is no
    survivor to fall back to.  (If a copy's line faults on read instead,
    {!Pmem.Region.Media_fault} propagates.)  Never raised for a root that
    merely lost an unfenced update -- that re-exposes the previous
    value. *)

val create :
  ?capacity_words:int ->
  ?trace:bool ->
  ?seed:int ->
  ?file:string ->
  ?sync_hook:(Pmem.Backing.sync_phase -> int -> unit) ->
  unit ->
  t
(** Fresh heap with all root slots durably null and a valid root
    summary covering line 0 (slots 0 and 1).  [trace] enables the
    Section 5.4 event trace; [seed] drives crash nondeterminism.  With
    [~file:path] the heap is file-backed (see {!Pmem.Region.create}):
    every fence commits the durable image's changed lines to [path] as
    one failure-atomic batch, and the heap survives [kill -9].  Creating
    truncates an existing image; reopen with {!open_file}.  [sync_hook]
    runs inside every file commit, the formatting commit this call makes
    included (see {!Pmem.Region.create}). *)

val open_file :
  ?trace:bool ->
  ?seed:int ->
  path:string ->
  unit ->
  t * [ `None | `Replayed of int | `Discarded ]
(** Reopen an existing image file as a heap: the region layer replays or
    discards the sidecar journal and checksum-verifies the image (see
    {!Pmem.Region.open_file}); the returned heap's allocator is empty and
    must be rebuilt by the reachability analysis before allocating --
    call {!Recovery.open_file} instead unless you are the recovery layer.
    Raises {!Pmem.Backing.Bad_image} for unusable images. *)

val close : t -> unit
(** Commit outstanding durable-image changes to the backing file (if
    any) and release its descriptors.  No-op for memory-backed heaps. *)

val region : t -> Pmem.Region.t
val allocator : t -> Allocator.t
val stats : t -> Pmem.Stats.t
val trace : t -> Pmem.Trace.t

(** {1 Instance-scoped telemetry}

    A heap optionally carries the {!Telemetry.t} collector metering it.
    Collectors are per-heap, not process-wide, so N shard heaps in one
    process each keep their own histograms and fence-stall attribution;
    the durable-structure entry points thread the collector through
    {!span}. *)

val telemetry : t -> Telemetry.t option
(** The collector this heap carries, if any. *)

val set_telemetry : t -> Telemetry.t option -> unit
(** Attach (or detach) an existing collector.  The collector should
    watch this heap's {!stats} block; {!attach_telemetry} guarantees
    that. *)

val attach_telemetry : ?sink:Telemetry.Sink.t -> t -> Telemetry.t
(** Create a collector watching this heap's stats block, wire its
    allocator-occupancy gauges, attach it, and return it.  Replaces any
    previously attached collector.  Default sink: [Memory]. *)

val span :
  t -> structure:string -> op:string -> ?ops:int -> (unit -> 'a) -> 'a
(** [span t ~structure ~op f] runs [f] under the heap's collector (see
    {!Telemetry.span_on}); with no collector attached it just runs
    [f]. *)

val root_get : t -> int -> Pmem.Word.t
(** Read a root slot (a persistent pointer or null).  Validates both
    copies' checksums and serves the valid copy with the newest sequence
    number; a torn or media-bad copy is survived by falling back to the
    other, which holds the latest or previous committed value.  Raises
    {!Torn_root} (or re-raises [Media_fault]) only when both copies are
    unusable. *)

val root_get_versioned : t -> int -> Pmem.Word.t * int
(** {!root_get} plus the serving copy's sequence number -- the version
    tag a caller must present to {!root_cas}.  The sequence increases by
    at least one on every successful root update, so observing an
    unchanged tag proves the slot was not written in between. *)

val root_set : t -> int -> Pmem.Word.t -> unit
(** The root update at the heart of Commit: write the {e stale} copy of
    the checksummed record (all three words inside one cacheline) and
    launch one weakly-ordered flush; the flush is ordered by the {e
    next} fence (epoch persistency) -- losing it in a crash merely
    re-exposes the other copy, the previous consistent version.  A slot
    the summary does not yet durably cover is bound and fenced first
    (see {!bind}). *)

val root_set_seq : t -> int -> Pmem.Word.t -> int
(** {!root_set}, returning the sequence number it stamped on the
    record, at no extra PM access.  The number exceeds that of every
    record of the slot durable when the update began, so an owner that
    fences the record before writing anything under the number can use
    it as a nonce: the STM undo log binds its entries to it. *)

val root_cas :
  t ->
  int ->
  expected:Pmem.Word.t ->
  expected_seq:int ->
  desired:Pmem.Word.t ->
  bool
(** Counted compare-and-swap on a root slot, modelling a double-word
    (pointer + counter) hardware CAS: atomically (with respect to other
    simulated writers -- see {!Pmem.Region.atomic}) compare the slot's
    current record against [(expected, expected_seq)] (both from one
    {!root_get_versioned}) and, on a match, write [desired] via the same
    stale-copy ping-pong record update as {!root_set}.  Returns whether
    the swap happened.  The sequence number is the ABA tag: a root that
    raced back to a bit-identical pointer value (reclaimed address
    reused by a later version) fails the compare, where a plain
    value-compare would wrongly succeed and install a shadow built from
    a dead version.  Crash-wise it is exactly a {!root_set}: a power cut
    mid-record re-exposes the surviving copy.  A winning CAS on a slot
    the summary does not yet durably cover binds and fences inside the
    atomic section. *)

val root_record_stores : t -> int -> Pmem.Word.t -> (int * Pmem.Word.t) list
(** [(offset, word)] stores that write slot [s]'s record for a given
    value into the currently stale copy -- for callers that must route
    the root swing through another write path (e.g. a PM-STM
    transaction) instead of {!root_set}.  Binds like {!root_set}. *)

val root_record_ranges : int -> (int * int) list
(** [(offset, words)] extents of the two copies of slot [s]'s record
    (for undo logging and fault injection). *)

val invalidate_root_cache : t -> unit
(** Drop the incremental root-record cache, forcing the next access to
    each slot back through full two-copy checksum validation.  The cache
    already self-invalidates on crash / restore / corruption / media
    faults (it is bound to [Pmem.Region.integrity_epoch]); call this
    when record words may have been rewritten through a path the heap
    cannot see, e.g. a PM-STM transaction replaying
    {!root_record_stores} or recovery rewriting records in place. *)

val active_root_copy : t -> int -> int
(** Index (0 or 1) of the copy {!root_get} would currently serve;
    raises {!Torn_root} when neither validates.  Diagnostics/tests. *)

val root_torn_detected : t -> int
(** Times a root-record copy failed checksum validation (volatile
    diagnostic counter; reset by {!reset_fresh}). *)

val root_fallbacks : t -> int
(** Times {!root_get} served a slot from its surviving copy because the
    other was torn or media-bad. *)

val alloc : t -> kind:Block.kind -> words:int -> int
(** Allocate a block; returns the body offset.  The fresh block carries
    one owned reference. *)

val free : t -> int -> unit
val release : t -> int -> unit
(** Drop a reference; at zero, recursively release children and free.
    Release-path frees are epoch-deferred: the blocks become allocatable
    only at the next {!sfence}, once the commit's root write that
    unlinked them is guaranteed durable (see {!Allocator.release}). *)

val retain : t -> int -> unit
val flush_block : t -> int -> unit
(** clwb every cacheline of a block (header + initialized body); no
    fence.  Inside a Backup update bracket ({!enter_backup_update}),
    Scanned blocks skip their clwbs and are parked in the backlog for
    the next checkpoint instead; Raw blocks always flush eagerly. *)

(** {1 Commit-policy state}

    The durable policy words are the source of truth; the per-slot
    Backup runtime state below is volatile, cleared by recovery and
    {!reset_fresh}, and rebuilt by the owning structure's log replay. *)

val get_policy : t -> int -> policy
(** The cached policy of a slot (refreshed from the durable words by
    {!read_directory}; [Full] on a freshly created or reopened heap
    until then). *)

val set_policy_durable : t -> int -> policy -> unit
(** Store + clwb the slot's policy word and update the cache.  The write
    is ordered by the caller's next fence.  Setting Backup on a slot
    the summary does not yet durably cover binds and fences first. *)

type backup_state = {
  mutable b_current : Pmem.Word.t;
      (** root of the live (possibly never-flushed) version *)
  mutable b_count : int;  (** valid entries appended to the durable log *)
  b_nonce : int;  (** nonce every valid entry's checksum is bound to *)
  b_desc : int;  (** descriptor body offset *)
  b_log : int;  (** op-log (Raw block) body offset *)
  b_tag : int;  (** the layout tag the descriptor carries ({!Backup}) *)
}

val backup_state : t -> int -> backup_state option
val install_backup_state :
  t -> int -> current:Pmem.Word.t -> count:int -> nonce:int -> desc:int ->
  log:int -> tag:int -> unit

val clear_backup_runtime : t -> unit
(** Drop all volatile Backup state (per-slot states, backlog, bracket
    depth) -- recovery calls this before any replay. *)

val next_root_seq : t -> int -> int
(** The sequence number the slot's next {!root_set} will stamp -- the
    nonce a fresh op log is bound to. *)

val enter_backup_update : t -> unit
val exit_backup_update : t -> unit
(** Bracket a Backup-policy pure update: while the depth is positive,
    {!flush_block} suppresses Scanned flushes into the backlog. *)

val flush_backlog : t -> unit
(** clwb every backlogged node still allocated (checkpoint step), then
    clear the backlog. *)

val load : t -> int -> Pmem.Word.t
val store : t -> int -> Pmem.Word.t -> unit

val blit :
  t -> src:int -> dst:int -> len:int -> ('a -> Pmem.Word.t -> unit) -> 'a -> unit
(** {!Pmem.Region.blit}: [load] each word of [src .. src + len - 1], pass
    it to the callback, [store] it at the same index from [dst]. *)

val fill : t -> dst:int -> len:int -> ('a -> int -> Pmem.Word.t) -> 'a -> unit
(** {!Pmem.Region.fill}: [store] the callback's word [i] at [dst + i]. *)

val clwb : t -> int -> unit
val clwb_range : t -> int -> int -> unit
val sfence : t -> unit
(** Drain all in-flight flushes, then hand epoch-deferred frees back to
    the allocator (the previous commit's root write is now durable, so
    no durable root can reference them).  Summary bits bound before the
    fence count as durable after it. *)

val crash :
  ?mode:Pmem.Region.crash_mode -> ?seed:int -> ?torn:bool -> t -> unit
(** Inject a power failure; [seed] pins the [Randomize] survival
    outcomes for replay, [torn] enables per-word torn-line persistence
    (see {!Pmem.Region.crash}). *)

val pristine_snapshot : t -> Pmem.Region.snapshot
(** Snapshot of the just-created heap (take it before any application
    work), for {!reset_fresh}. *)

val reset_fresh : t -> pristine:Pmem.Region.snapshot -> unit
(** Rewind the region to the pristine snapshot and reset all volatile
    allocator and summary state: equivalent to a fresh {!create} with
    the same parameters, except that the caches start cold (a fresh
    heap's hold the root directory), in O(state touched since the
    snapshot). *)

val record_copy_off : copy:int -> int -> int
(** Word offset of copy [copy] (0 or 1) of slot [s]'s root record --
    for offline image inspection ({!Fsck}) working on a raw word array. *)

val record_checksum : slot:int -> seq:int -> Pmem.Word.t -> int
(** The checksum word a valid record copy must carry for (value, slot,
    seq) -- exported for offline validation and repair. *)
