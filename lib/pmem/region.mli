(** Simulated persistent-memory region.

    The region is a word-addressable array with per-cacheline durability
    state, modelling a CPU with a write-back L1D cache in front of Optane
    DCPMM.  Stores land in the volatile view; [clwb] launches an unordered
    background writeback of a line; [sfence] guarantees the completion of
    all in-flight writebacks (charging the Amdahl stall of Section 3); a
    [crash] loses everything volatile, randomizing the fate of lines whose
    writeback had been launched or that may have been evicted.

    The region holds one image.  A line's durable words differ from its
    volatile ones only while it is Dirty or Flushing, and only then are
    they kept apart, in a pre-image slot. *)

type t

type crash_mode =
  | Drop_inflight  (** no launched writeback completed: worst case *)
  | Keep_inflight  (** every launched writeback completed: best case *)
  | Randomize      (** each in-flight / dirty line flips a coin *)

exception Crash_point
(** Raised by the deterministic crash scheduler (see {!set_crash_after})
    immediately after the scheduled PM event completes. *)

exception Media_fault of { off : int }
(** Raised by [load] / [durable_load] when the word's cacheline has been
    armed as media-bad (see {!arm_media_fault}): the simulated DIMM
    returns a detectable poisoned read, as ECC hardware would. *)

val create :
  ?capacity_words:int ->
  ?trace:bool ->
  ?seed:int ->
  ?file:string ->
  ?sync_hook:(Backing.sync_phase -> int -> unit) ->
  unit ->
  t
(** [create ()] makes a memory-backed region (nothing survives the
    process).  [capacity_words] (default 1M) is the logical size: the
    host memory behind it is allocated as lines are first written, and
    a word never written reads 0.  With [~file:path], the durable image
    is additionally mapped onto [path] ({!Backing}): every fence commits
    the cachelines whose durable contents changed as one failure-atomic
    batch, so the heap genuinely survives [kill -9].  Creating truncates
    any existing image at [path]; use {!open_file} to reopen one.
    [sync_hook] runs at the four phases of every file commit, the first
    included (see {!Backing.sync_phase}): the kill-9 harness uses it to
    SIGKILL the process mid-writeback.  A memory-backed region ignores
    it. *)

val stats : t -> Stats.t
val trace : t -> Trace.t
val cache : t -> Cache.t
val capacity_words : t -> int

val ensure_capacity : t -> int -> unit
(** [ensure_capacity t n] grows the region so offsets below [n] are
    valid (doubling the capacity); like [create], it allocates nothing
    until a line is written. *)

val load : t -> int -> Word.t
(** Cached load of the word at the given offset; charges hit or PM-miss
    latency and updates the cache simulator. *)

val store : t -> int -> Word.t -> unit
(** Cached store; the target line becomes dirty (volatile until flushed or
    evicted). An 8-byte store is atomic, as on x86-64. *)

(** {1 Line runs}

    Block copies, fills and scans, a cache line at a time.  Each kernel
    makes exactly the accesses of its per-word loop, in the same order,
    and leaves every simulated record bit-identical to that loop's: the
    images, line states, journal, cache state, {!Stats} fields, clock
    and phase sums, PM events, crash budget, captured points and raised
    exceptions.  The first word of every line goes through {!load} and
    {!store}, and the rest of the line is recorded in one step.  A blit
    or fill sends every word through the per-word calls while tracing
    is on, an event hook runs or a media fault is armed, and the store
    on which the crash budget fires always goes through {!store}.  The
    callbacks must not access the region. *)

val blit : t -> src:int -> dst:int -> len:int -> ('a -> Word.t -> unit) -> 'a -> unit
(** [blit t ~src ~dst ~len f x] is, for [i] from 0 to [len - 1]:
    [let w = load t (src + i) in f x w; store t (dst + i) w]. *)

val fill : t -> dst:int -> len:int -> ('a -> int -> Word.t) -> 'a -> unit
(** [fill t ~dst ~len f x] is, for [i] from 0 to [len - 1]:
    [store t (dst + i) (f x i)]. *)

val scan : t -> off:int -> len:int -> ('a -> Word.t -> bool) -> 'a -> int
(** [scan t ~off ~len f x] loads [off + i] for [i] from 0 and stops after
    the first word [w] for which [f x w] holds: it returns that [i], or
    [len] when none does. *)

val clwb : t -> int -> unit
(** Launch a writeback of the line containing the word offset.  Commits
    instantly; the flush proceeds unordered in the background (Figure 3). *)

val clwb_range : t -> int -> int -> unit
(** [clwb_range t off words] issues [clwb] once per distinct line touched
    by the range. *)

val sfence : t -> unit
(** Drain all in-flight writebacks to the durable image; stall per the
    analytical model, attributed to the Flush phase. *)

val inflight : t -> int
(** Number of lines with a launched, un-fenced writeback. *)

val set_fence_per_flush : t -> bool -> unit
(** Ablation knob: when enabled, every [clwb] is immediately followed by
    an [sfence], serializing all flushes (the Section 3 worst case). *)

val crash : ?mode:crash_mode -> ?seed:int -> ?torn:bool -> t -> unit
(** Power failure: volatile state is lost.  Lines that were flushed and
    fenced are durable; other dirty state survives per [mode].  After the
    call, loads observe exactly the durable image.  Line-survival
    randomness ([Randomize]) comes from a per-crash RNG seeded by [seed]
    when given, else by a draw from the region's private stream; either
    way the seed actually used is recorded in {!last_crash_seed}, so a
    failing randomized crash can be replayed in isolation.

    With [~torn:true], each dirty or in-flight line persists a seeded
    per-word {e subset} of its new contents instead of an all-or-nothing
    outcome ([mode] is ignored for such lines): the fault model for a
    writeback interrupted mid-line.  Multi-word records that must be
    read back after a torn crash need their own detection (checksums). *)

val last_crash_seed : t -> int option
(** Seed that drove the most recent [crash]'s survival outcomes. *)

(** {1 Fault injection}

    Beyond clean power cuts, the injector can arm individual cachelines
    as media-bad (uncorrectable read errors) and corrupt single words in
    place.  Faults are part of the {e current} timeline: {!restore}
    clears any armed media faults along with the image. *)

val arm_media_fault : t -> line:int -> unit
(** Mark [line] media-bad: every subsequent [load] / [durable_load] of a
    word in it raises {!Media_fault} until {!clear_media_faults} or a
    {!restore}.  Stores still land (the WPQ accepts writes to bad
    lines); only reads observe the poison. *)

val clear_media_faults : t -> unit
val media_fault_count : t -> int
(** Number of lines currently armed as media-bad. *)

val integrity_epoch : t -> int
(** Monotone counter bumped by every event that can silently change or
    poison durable contents behind a reader's back: {!crash}, {!restore},
    {!corrupt_word}, {!arm_media_fault}, {!clear_media_faults}.  A layer
    caching derived views of PM (e.g. the heap's root-record cache)
    remembers the epoch at fill time and treats a mismatch as a cache
    invalidation. *)

val corrupt_word : t -> int -> unit
(** Flip bits of one word in both the volatile view and the durable
    image, bypassing cache and stats: the injector's hand, used to model
    silent in-place corruption that checksums must catch. *)

(** {1 Deterministic crash scheduler}

    Every completed [store], [clwb] and [sfence] is one {e PM event}.
    [set_crash_after t n] arms a budget: the [n]-th subsequent event
    completes and then {!Crash_point} is raised, simulating a power
    failure at that exact instruction boundary.  From then on the
    machine is dead: every [load], [store], [clwb], [sfence] and
    [durable_load] raises {!Crash_point} again, before touching the
    image, the caches or the stats, until {!crash} or {!restore}.  An
    exception handler between the failure and the caller (an aborting
    transaction's rollback) therefore cannot run on the dead machine.
    The caller catches the exception, injects {!crash}, and recovers.

    A sweep that tests many crash points of one deterministic run uses
    {!capture} instead: the same countdown records each point without
    stopping the run. *)

val pm_events : t -> int
(** Total PM events (stores + clwbs + sfences) since [create]. *)

val set_crash_after : t -> int -> unit
(** Arm the scheduler: raise {!Crash_point} after [n] more PM events
    ([n >= 1]).  The budget disarms itself when it fires.  Replaces an
    armed {!capture}. *)

val clear_crash_point : t -> unit
(** Disarm a pending crash budget. *)

(** {1 Crash-point capture}

    One uncrashed execution records every crash point a sweep tests.
    Each point holds the post-images (volatile words, durable words,
    durability state) of the lines changed since the previous point,
    read off the snapshot journal's first-touch records, plus the
    in-flight count and the stats.  After the run, rewind to a snapshot
    taken before it and {!apply_point} the points in order: each call
    rebuilds the next point's image on top of the previous one, so a
    point costs O(lines it changed) to capture and to apply. *)

type point
(** The memory image at one crash point, relative to the previous
    point of the same capture. *)

val capture :
  t -> stride:int -> ?max_points:int -> (unit -> unit) -> unit
(** [capture t ~stride ?max_points on_point] records a point right after
    the first PM event from now and after every [stride]-th one after
    it, at most [max_points] points, calling [on_point] after each.
    Points are taken inside {!atomic} sections too, before the event
    hook runs, exactly where a crash budget would fail the power.  The
    stats a point keeps carry the phase in force at the [capture] call,
    the phase a crashed run's caller sees once the exception has
    unwound every [Stats.in_phase].  Arms the snapshot journal and
    shares the crash budget's countdown: {!set_crash_after}, {!crash}
    and {!restore} cancel the capture. *)

val captured : t -> point array
(** Stop the capture and return its points, oldest first.  Raises
    [Invalid_argument] when no capture is armed. *)

val apply_point : t -> point -> unit
(** Rebuild a point's image: install its lines over the current image
    (which must be the previous point's, or the image the capture
    started from for the first point), grow the capacity to the
    point's, and set the in-flight count and the stats.  The writes are
    journaled, so restoring an earlier snapshot rewinds them.  The
    caches, RNG and trace are left alone: the next step is a
    {!snapshot} and a {!crash}. *)

(** {1 Event hook (concurrent interleaving)}

    The crash scheduler's PM-event stream doubles as the preemption
    grid for simulated concurrency: an installed hook runs after every
    completed PM event (store / clwb / sfence) that did not crash, and
    the interleaving explorer yields to another writer there.  Loads
    are not PM events, so straight-line OCaml between two PM events is
    atomic with respect to the other writer -- the granularity of real
    store visibility on a TSO machine. *)

val set_event_hook : t -> (unit -> unit) option -> unit
(** Install (or clear, with [None]) the post-event hook.  The hook runs
    after the crash-budget check, so a crashing event never yields. *)

val event_hook : t -> (unit -> unit) option
(** The installed hook, so a layer that installs its own can chain to
    it and put it back. *)

val atomic : t -> (unit -> 'a) -> 'a
(** [atomic t f] runs [f] with the event hook suspended: no other
    writer is scheduled between [f]'s PM events, but the events still
    count against the crash budget (a power cut can land inside).
    Models a single indivisible hardware instruction such as an 8-byte
    CAS.  Nested calls are flattened. *)

type snapshot
(** A rewind point for the memory image (volatile view, durable image,
    per-line durability state, simulated-time counters, RNG and trace
    position): a position in the region's copy-on-write undo journal.
    Taking one is O(1); from then on every first mutation of a cacheline
    saves that line's pre-image.  Snapshots stack: an outer snapshot
    remains valid across inner snapshot/restore cycles, but restoring a
    snapshot invalidates every snapshot taken after it. *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
(** [restore t s] rewinds the memory image to [s] so the same crash
    point can be sampled under several survival seeds without re-running
    the workload, replaying the journal newest-to-oldest: O(lines touched
    since [s]).  The cache hierarchy is invalidated rather than
    restored; that affects only latency accounting, so the intended next
    step after a restore is another [crash].  Stats (simulated time,
    event counters), the region RNG and the trace position are restored
    alongside the image, so samples do not leak time into each other.
    Raises [Invalid_argument] for a snapshot that was invalidated by an
    earlier restore of an older one, or that belongs to a different
    region. *)

val release : t -> snapshot -> unit
(** Forget a snapshot without restoring it, so a long sweep leaves no
    token behind per point; it can no longer be restored.  The journal
    records it pinned stay for the snapshots beneath it. *)

val journal_entries : t -> int
(** Number of live undo records in the snapshot journal (for tests). *)

type line_state =
  | Clean  (** volatile and durable words agree *)
  | Dirty  (** stored to since its last writeback *)
  | Flushing  (** a clwb launched its writeback; the next fence drains it *)

val line_state : t -> int -> line_state
(** A line's durability state (for tests). *)

val dirty_lines : t -> int list
(** Lines in the Dirty or Flushing state, ascending: the lines a crash
    can lose (O(lines); for tests). *)

val crash_worklist : t -> int list
(** The lines the next {!crash} visits, ascending: the lines holding a
    pre-image slot, which are exactly those of {!dirty_lines} (for
    tests). *)

val images_equal : t -> t -> bool
(** Word-for-word equality of two regions' volatile views, durable
    images, line states, capacities and in-flight counts (for tests: a
    restored region against one re-executed to the same point). *)

val durable_load : t -> int -> Word.t
(** Read the durable image directly (recovery-time inspection; charges PM
    read latency but does not disturb the cache simulator). *)

val peek_durable : t -> int -> Word.t
(** Read the durable image with no side effects at all (for tests). *)

val peek_current : t -> int -> Word.t
(** Read the volatile view with no side effects at all: no cache access,
    no stats (for tests, and for work whose cost a caller charges
    otherwise, such as the STM undo log's entry check). *)

val line_of_word : int -> int
val is_durable_line : t -> int -> bool
(** [is_durable_line t line] is true when the volatile and durable contents
    of [line] agree (for tests). *)

(** {1 File backend}

    With a backing file, the durable image outlives the process: fences
    commit changed cachelines to the image as one atomic batch via a
    WAL-style double write (sidecar journal, fsync, apply, fsync,
    truncate -- see {!Backing}), so an image killed mid-writeback is
    always recoverable on reopen. *)

val open_file :
  ?trace:bool ->
  ?seed:int ->
  path:string ->
  unit ->
  t * [ `None | `Replayed of int | `Discarded ]
(** Reopen an existing image file: resolve the sidecar journal (replay a
    committed one -- [`Replayed lines] -- or discard a torn one --
    [`Discarded]), verify the whole-image checksum, and return a region
    whose volatile view and durable image both equal the file contents
    (all lines Clean, as after a power cycle).  Raises
    {!Backing.Bad_image} for missing, truncated, wrong-magic,
    wrong-version or corrupted images; transient open errors
    ([EINTR]/[EAGAIN], short reads) are retried with bounded backoff
    before that verdict. *)

val close_file : t -> unit
(** Commit any durable-image changes not yet in the file and release the
    descriptors.  The region remains usable as memory-backed. *)

val file_commits : t -> int
(** Atomic file batches committed so far (0 for memory-backed regions). *)
