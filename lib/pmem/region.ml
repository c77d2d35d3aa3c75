type line_state = Clean | Dirty | Flushing

type crash_mode = Drop_inflight | Keep_inflight | Randomize

exception Crash_point

exception Media_fault of { off : int }

(* One undo-journal record: the full pre-image of a cacheline (volatile
   words, durability state and, for a line that is not Clean, its
   durable words) captured on its first mutation after a snapshot or
   restore.  A Clean line's durable words are its volatile ones, so its
   [e_dur] is empty.  Replaying records newest-to-oldest rewinds the
   region in O(lines touched). *)
type jentry = {
  e_line : int;
  e_state : line_state;
  e_cur : int array;
  e_dur : int array;
}

let dummy_entry = { e_line = 0; e_state = Clean; e_cur = [||]; e_dur = [||] }

(* One crash point of a capturing run (see [capture]): the post-images of
   the lines that changed since the previous point, in [jentry] form,
   and what a snapshot taken there would restore besides the image. *)
type point = {
  pt_lines : jentry array;
  pt_capacity : int;
  pt_inflight : int;
  pt_stats : Stats.t;
}

(* An armed capture.  It shares the crash-budget countdown: the budget
   firing records a point instead of failing the power. *)
type capture = {
  k_stride : int;
  mutable k_left : int; (* points still wanted *)
  k_phase : Stats.phase; (* the phase in force when the capture was armed *)
  k_on_point : unit -> unit;
  mutable k_from : int; (* journal length at the previous point *)
  mutable k_points : point list; (* newest first *)
}

type snapshot = {
  t_region : int;  (** stamp of the region this token belongs to *)
  t_pos : int;  (** journal length when the snapshot was taken *)
  mutable t_valid : bool;  (** cleared when the log is truncated below *)
  t_capacity : int;
  t_inflight : int;
  t_stats : Stats.t;
  t_rng : Random.State.t;
  t_trace_len : int;
}

(* One image.  [current] is the CPU's coherent view.  What Optane DCPMM
   holds differs from it only in a line that is Dirty or Flushing: a
   Clean line has no store since its last writeback.  So the durable
   words of such a line are kept apart, in a pre-image slot: the store
   that dirties a Clean line first copies the line's words into a free
   slot of [pre], and the writeback that cleans it (fence drain,
   eviction, crash) releases the slot.  The durable image is then
   [current] with every slot laid over its line.  Slots come from a pool
   that doubles on demand; a run holds about as many as the L1D has
   dirty lines, since an eviction writes a line back.

   [meta] packs, per line, 4 bytes: the state in the low 2 bits and,
   while the line is not Clean, its slot above them.  The slot-holding
   lines are exactly the lines a crash must visit, so [pre_line] (the
   line of each slot, or a free-list link) is also the crash worklist.

   [current] and [meta] cover a prefix of the region, in whole lines,
   that doubles on the first mutation past it ([reach]), capped at the
   capacity's last line; [capacity] is the logical size.  [j_mark]
   covers the same prefix once a snapshot or capture has armed the
   journal, and is empty before: only [journal_touch] under [j_on]
   reads it.  Past the prefix a word reads 0 in both images and its
   line is Clean and unjournaled: what a zero-filled array holds.  So a
   heap's region costs the lines it touches, not its capacity.
   Invariant: every Dirty or Flushing line, every line on the fence
   worklist and every journal record lies inside the prefix.  Each of
   them starts with a mutation, and a mutation reaches the prefix first;
   only a restore shrinks it, after rewinding every line past the
   restored capacity to Clean.
   A prefix word at or past [capacity] (the tail of a partial last line)
   holds 0 in both images: records hold whole lines, so a restore
   rewinds such a word a store reached after [ensure_capacity].
   Word copies into these arrays are typed [int] loops: [Array.blit]
   into a major-heap array runs the write barrier on every word. *)
type t = {
  mutable current : int array; (* the CPU's coherent view *)
  mutable meta : Bytes.t; (* per cacheline: state and slot, see above *)
  mutable pre : int array; (* per slot: the durable words of its line *)
  mutable pre_line : int array; (* per slot: its line, or a free link *)
  mutable pre_free : int; (* first free slot below [pre_made], or -1 *)
  mutable pre_made : int; (* slots ever handed out *)
  mutable capacity : int; (* logical size, in words *)
  cache : Cache.t; (* L1D: drives miss ratios and eviction writebacks *)
  l2 : Cache.t; (* latency modelling only *)
  llc : Cache.t; (* latency modelling only *)
  stats : Stats.t;
  trace : Trace.t;
  mutable rng : Random.State.t;
  mutable inflight : int;
  (* worklist of lines that may be in Flushing state, oldest first, so a
     fence drains in O(in-flight flushes) instead of scanning every line
     of the region.  Invariant: every Flushing line is in the list; the
     list may also hold stale entries for lines that left Flushing some
     other way (eviction writeback) -- the drain re-checks the state and
     skips them. *)
  mutable flush_q : int array;
  mutable flush_len : int;
  (* ablation knob: order every clwb individually, as if each flush were
     followed by its own sfence (the paper's Section 3 worst case) *)
  mutable fence_per_flush : bool;
  (* crash scheduler: every store/clwb/sfence is one PM event; when the
     budget counts down to zero the power fails (Crash_point is raised) *)
  mutable events : int;
  mutable crash_budget : int; (* -1 = no crash scheduled *)
  (* set when the budget fires: the machine is dead, and every access
     raises [Crash_point] again until [crash] or [restore] *)
  mutable powered_off : bool;
  mutable capture : capture option;
  mutable last_crash_seed : int option;
  (* concurrency hook: called after every PM event that did not crash.
     The interleaving explorer installs a scheduler yield here so two
     writers' event streams can be woven deterministically.  [atomic]
     suspends the hook (but not the crash budget) across a section that
     models one indivisible hardware instruction, e.g. an 8-byte CAS. *)
  mutable event_hook : (unit -> unit) option;
  mutable hook_suspended : bool;
  (* snapshot journal (see [snapshot]) *)
  region_stamp : int;
  mutable j_on : bool; (* journaling armed: first-touch undo records *)
  mutable j_entries : jentry array;
  mutable j_len : int;
  mutable j_mark : int array; (* per line: epoch of its current record *)
  mutable j_epoch : int;
  mutable j_tokens : snapshot list; (* live journaled snapshots *)
  (* fault injection: lines armed as media-bad raise Media_fault on any
     load until cleared (restore clears them) *)
  media_bad : (int, unit) Hashtbl.t;
  (* bumped on every event that can invalidate a reader's private cache of
     durable contents: crash, restore, hand-of-god corruption, media-fault
     arming/clearing.  Readers (e.g. Heap's root-record cache) compare a
     remembered epoch against this before trusting cached values. *)
  mutable integrity_epoch : int;
  (* file backend (Backing): when present, cachelines whose durable
     contents changed since the last fence accumulate in [file_dirty] and
     are committed to the image file as one atomic batch at each fence *)
  mutable backing : Backing.t option;
  file_dirty : (int, unit) Hashtbl.t;
}

let line_of_word off = off lsr Config.line_shift
let lines_of_words n = (n + Config.words_per_line - 1) / Config.words_per_line
let words_of_lines n = n lsl Config.line_shift

(* The prefix a region starts with: enough for a heap's root directory
   and its first allocations. *)
let initial_prefix_words = 4096

let initial_slots = 64

(* Copy [len] words of [src] from [s] into [dst] at [d]: a typed loop,
   so no word pays the write barrier. *)
let[@inline] copy_ints (src : int array) s (dst : int array) d len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (d + i) (Array.unsafe_get src (s + i))
  done

(* [arr] extended to [n] elements with [fill], or [arr] itself when it
   already has them. *)
let extend_ints (arr : int array) n fill =
  let len = Array.length arr in
  if n <= len then arr
  else begin
    let a = Array.make n fill in
    copy_ints arr 0 a 0 len;
    a
  end

(* The first [n] elements of [arr], in a fresh array. *)
let prefix_ints (arr : int array) n =
  let a = Array.make n 0 in
  copy_ints arr 0 a 0 n;
  a

(* -- per-line metadata ----------------------------------------------------- *)

let code_clean = 0
let code_dirty = 1
let code_flushing = 2

let[@inline] lines_in t = Bytes.length t.meta lsr 2

(* [line]'s packed word; the line lies inside the prefix. *)
let[@inline] meta_of t line =
  Int32.to_int (Bytes.get_int32_le t.meta (line lsl 2))

let[@inline] set_meta t line m =
  Bytes.set_int32_le t.meta (line lsl 2) (Int32.of_int m)

let[@inline] code_of m = m land 3
let[@inline] slot_of m = m lsr 2

let state_of_code = function
  | 0 -> Clean
  | 1 -> Dirty
  | _ -> Flushing

let code_of_state = function
  | Clean -> code_clean
  | Dirty -> code_dirty
  | Flushing -> code_flushing

let next_stamp = ref 0

(* A region of [capacity] words whose prefix is [image] (whole lines),
   all Clean. *)
let make ~capacity ~image ~trace ~seed backing =
  let lines = Array.length image lsr Config.line_shift in
  incr next_stamp;
  {
    current = image;
    meta = Bytes.make (4 * lines) '\000';
    pre = Array.make (initial_slots * Config.words_per_line) 0;
    pre_line = Array.make initial_slots (-1);
    pre_free = -1;
    pre_made = 0;
    capacity;
    cache = Cache.create ();
    l2 = Cache.create ~sets:Config.l2_sets ~ways:Config.l2_ways ();
    llc = Cache.create ~sets:Config.llc_sets ~ways:Config.llc_ways ();
    stats = Stats.create ();
    trace = Trace.create ~enabled:trace;
    rng = Random.State.make [| seed |];
    inflight = 0;
    flush_q = Array.make 64 0;
    flush_len = 0;
    fence_per_flush = false;
    events = 0;
    crash_budget = -1;
    powered_off = false;
    capture = None;
    last_crash_seed = None;
    event_hook = None;
    hook_suspended = false;
    region_stamp = !next_stamp;
    j_on = false;
    j_entries = [||];
    j_len = 0;
    j_mark = [||];
    j_epoch = 0;
    j_tokens = [];
    media_bad = Hashtbl.create 4;
    integrity_epoch = 0;
    backing;
    file_dirty = Hashtbl.create 64;
  }

let create ?(capacity_words = 1 lsl 20) ?(trace = false) ?(seed = 42) ?file
    ?sync_hook () =
  let cap = max capacity_words Config.words_per_line in
  let prefix = min initial_prefix_words (words_of_lines (lines_of_words cap)) in
  let backing =
    match file with
    | None -> None
    | Some path -> Some (Backing.create ?sync_hook ~path ~capacity_words:cap ())
  in
  make ~capacity:cap ~image:(Array.make prefix 0) ~trace ~seed backing

let stats t = t.stats
let trace t = t.trace
let cache t = t.cache
let capacity_words t = t.capacity
let inflight t = t.inflight
let pm_events t = t.events
let set_crash_after t n =
  if n <= 0 then invalid_arg "Region.set_crash_after: budget must be positive";
  t.capture <- None;
  t.crash_budget <- n

let clear_crash_point t = t.crash_budget <- -1
let last_crash_seed t = t.last_crash_seed

(* -- snapshot journal ---------------------------------------------------- *)

let journal_push t e =
  let len = t.j_len in
  if len = Array.length t.j_entries then begin
    let a = Array.make (max 64 (2 * len)) dummy_entry in
    for i = 0 to len - 1 do
      a.(i) <- t.j_entries.(i)
    done;
    t.j_entries <- a
  end;
  t.j_entries.(len) <- e;
  t.j_len <- len + 1

(* [line]'s volatile contents, durability state and, unless it is Clean,
   durable contents.  Whole lines, also where the capacity ends mid-line
   (see [t]). *)
let line_image t line =
  let m = meta_of t line in
  {
    e_line = line;
    e_state = state_of_code (code_of m);
    e_cur = Array.sub t.current (words_of_lines line) Config.words_per_line;
    e_dur =
      (if code_of m = code_clean then [||]
       else Array.sub t.pre (words_of_lines (slot_of m)) Config.words_per_line);
  }

let journal_record t line =
  t.j_mark.(line) <- t.j_epoch;
  journal_push t (line_image t line)

(* First-touch undo record: called before any mutation of [line]'s
   volatile contents, durable contents or durability state. *)
let[@inline] journal_touch t line =
  if t.j_on && t.j_mark.(line) <> t.j_epoch then journal_record t line

let journal_entries t = t.j_len

(* Arm first-touch journaling from a new epoch, sizing [j_mark] to the
   prefix the first time. *)
let arm_journal t =
  if not t.j_on then begin
    t.j_mark <- Array.make (lines_in t) (-1);
    t.j_on <- true
  end;
  t.j_epoch <- t.j_epoch + 1

(* -- pre-image slots ------------------------------------------------------- *)

(* A free slot's [pre_line] entry links to the next free slot [s] as
   [-2 - s], and ends the list as -1. *)
let[@inline never] grow_slots t =
  let n = 2 * Array.length t.pre_line in
  t.pre <- extend_ints t.pre (words_of_lines n) 0;
  t.pre_line <- extend_ints t.pre_line n (-1)

(* A free slot, now [line]'s. *)
let take_slot t line =
  let s =
    if t.pre_free >= 0 then begin
      let s = t.pre_free in
      t.pre_free <- -2 - t.pre_line.(s);
      s
    end
    else begin
      if t.pre_made = Array.length t.pre_line then grow_slots t;
      let s = t.pre_made in
      t.pre_made <- s + 1;
      s
    end
  in
  t.pre_line.(s) <- line;
  s

let[@inline] free_slot t s =
  t.pre_line.(s) <- -2 - t.pre_free;
  t.pre_free <- s

(* A Clean [line] turns [code]: its words, durable until now, become its
   slot's pre-image.  Out of line: it runs once per line per writeback. *)
let[@inline never] leave_clean t line code =
  let s = take_slot t line in
  copy_ints t.current (words_of_lines line) t.pre (words_of_lines s)
    Config.words_per_line;
  set_meta t line ((s lsl 2) lor code)

(* [line], holding slot [slot_of m], turns Clean: its volatile words are
   durable now. *)
let[@inline] make_clean t line m =
  free_slot t (slot_of m);
  set_meta t line code_clean

(* The lines holding a slot, ascending: every Dirty or Flushing line. *)
let slot_lines t =
  let acc = ref [] in
  for s = t.pre_made - 1 downto 0 do
    if t.pre_line.(s) >= 0 then acc := t.pre_line.(s) :: !acc
  done;
  let lines = Array.of_list !acc in
  Array.sort Int.compare lines;
  lines

let crash_worklist t = Array.to_list (slot_lines t)

let line_state t line =
  if line < lines_in t then state_of_code (code_of (meta_of t line)) else Clean

let dirty_lines t =
  let acc = ref [] in
  for line = lines_in t - 1 downto 0 do
    if code_of (meta_of t line) <> code_clean then acc := line :: !acc
  done;
  !acc

(* -- fence worklist -------------------------------------------------------- *)

let flush_list t line =
  let len = t.flush_len in
  if len = Array.length t.flush_q then
    t.flush_q <- extend_ints t.flush_q (2 * len) 0;
  t.flush_q.(len) <- line;
  t.flush_len <- len + 1

(* ------------------------------------------------------------------------ *)

(* Record a crash point of a capturing run: the post-images of the lines
   first touched since the previous point -- the journal records from
   [k_from] on, since every point bumps the epoch -- plus the in-flight
   count and the stats.  A run the budget crashes unwinds every
   [Stats.in_phase] frame before its caller can snapshot, so the point
   keeps the phase the run was in when the capture was armed. *)
let capture_point t k =
  let lines =
    Array.init (t.j_len - k.k_from) (fun i ->
        line_image t t.j_entries.(k.k_from + i).e_line)
  in
  let stats = Stats.copy t.stats in
  stats.Stats.cur_phase <- k.k_phase;
  k.k_points <-
    {
      pt_lines = lines;
      pt_capacity = t.capacity;
      pt_inflight = t.inflight;
      pt_stats = stats;
    }
    :: k.k_points;
  k.k_from <- t.j_len;
  t.j_epoch <- t.j_epoch + 1;
  k.k_left <- k.k_left - 1;
  if k.k_left > 0 then t.crash_budget <- k.k_stride;
  k.k_on_point ()

let budget_fired t =
  t.crash_budget <- -1;
  match t.capture with
  | Some k -> capture_point t k
  | None ->
      t.powered_off <- true;
      raise Crash_point

(* Count one PM event (store / clwb / sfence) against the crash budget.
   The event itself has completed by the time the budget fires: the
   power fails (or a capture records the point) immediately after it,
   before the event hook can schedule another writer. *)
let[@inline] tick t =
  t.events <- t.events + 1;
  if t.crash_budget > 0 then begin
    t.crash_budget <- t.crash_budget - 1;
    if t.crash_budget = 0 then budget_fired t
  end;
  match t.event_hook with
  | Some hook when not t.hook_suspended -> hook ()
  | _ -> ()

(* A dead machine executes nothing: an exception handler that runs after
   the power failed (an aborting transaction's rollback) raises again
   before its access changes the image, the caches or the stats.  Loads
   count too: a miss can evict, and so write back, a dirty line. *)
let check_power t = if t.powered_off then raise Crash_point

let event_hook t = t.event_hook
let set_event_hook t hook = t.event_hook <- hook

(* Run [f] with the event hook suspended: the section's PM events still
   count against the crash budget (power can fail inside it) but no
   other writer is scheduled between them.  This is how an 8-byte
   hardware CAS is modelled: its read-compare-write is indivisible with
   respect to other CPUs, yet a power cut can still land mid-record. *)
let atomic t f =
  if t.hook_suspended then f ()
  else begin
    t.hook_suspended <- true;
    Fun.protect ~finally:(fun () -> t.hook_suspended <- false) f
  end

(* Logical growth only: the prefix follows the first mutation past it. *)
let ensure_capacity t n =
  if n > t.capacity then begin
    let cap = ref t.capacity in
    while n > !cap do
      cap := !cap * 2
    done;
    t.capacity <- !cap
  end

(* Double the prefix until it covers word [off], capped at the
   capacity's last line.  Out of line: a run grows it a few times. *)
let[@inline never] grow_prefix t off =
  let limit = words_of_lines (lines_of_words t.capacity) in
  let n = ref (max Config.words_per_line (Array.length t.current)) in
  while !n <= off do
    n := 2 * !n
  done;
  let n = min !n limit in
  let lines = n lsr Config.line_shift in
  t.current <- extend_ints t.current n 0;
  let meta = Bytes.make (4 * lines) '\000' in
  Bytes.blit t.meta 0 meta 0 (Bytes.length t.meta);
  t.meta <- meta;
  if t.j_on then t.j_mark <- extend_ints t.j_mark lines (-1)

(* Bring word [off] (below the capacity) inside the prefix; called
   before the first mutation of its line, ahead of the journal record. *)
let[@inline] reach t off =
  if off >= Array.length t.current then grow_prefix t off

(* Volatile word [off], or 0 past the prefix. *)
let word_at t off = if off < Array.length t.current then t.current.(off) else 0

(* Durable word [off]: its slot's word while its line holds one. *)
let durable_word t off =
  if off >= Array.length t.current then 0
  else
    let m = meta_of t (line_of_word off) in
    if code_of m = code_clean then t.current.(off)
    else
      t.pre.(words_of_lines (slot_of m) + (off land (Config.words_per_line - 1)))

let out_of_bounds fn off =
  invalid_arg (Printf.sprintf "Region.%s: offset %d out of bounds" fn off)

let[@inline] check_off t off fn =
  if off < 0 || off >= t.capacity then out_of_bounds fn off

let mark_file_dirty t line =
  match t.backing with
  | Some _ -> Hashtbl.replace t.file_dirty line ()
  | None -> ()

(* Commit the durable image's changed lines to the backing file as one
   atomic batch (journal, fsync, apply, fsync, truncate).  Called at
   every fence -- the file's commit points are exactly the region's
   ordering points, so what a revived process reads back is what the
   epoch-persistency model says was durable. *)
let file_commit t =
  match t.backing with
  | None -> ()
  | Some b ->
      if Hashtbl.length t.file_dirty > 0 then begin
        let lines =
          Hashtbl.fold
            (fun line () acc ->
              let base = words_of_lines line in
              let len = min Config.words_per_line (t.capacity - base) in
              (line, Array.init len (fun i -> durable_word t (base + i)))
              :: acc)
            t.file_dirty []
        in
        let lines =
          List.sort (fun (a, _) (b, _) -> compare a b) lines
        in
        Backing.commit b ~capacity:t.capacity ~lines;
        Hashtbl.reset t.file_dirty;
        t.stats.Stats.file_commits <- t.stats.Stats.file_commits + 1;
        t.stats.Stats.file_lines <-
          t.stats.Stats.file_lines + List.length lines;
        t.stats.Stats.file_fsyncs <-
          t.stats.Stats.file_fsyncs + Backing.fsyncs_per_commit
      end

(* Cache-eviction writeback: hardware replacement writes the victim's
   data back to PM, incidentally making it durable. *)
let evict_writeback t victim_line =
  if victim_line < lines_in t then begin
    journal_touch t victim_line;
    mark_file_dirty t victim_line;
    let m = meta_of t victim_line in
    if code_of m <> code_clean then begin
      if code_of m = code_flushing then t.inflight <- t.inflight - 1;
      make_clean t victim_line m
    end
  end

(* Walk the cache hierarchy for latency purposes.  Durability only cares
   about L1D evictions (a dirty line leaving L1D is written back to PM,
   conservatively); L2 and LLC model where a miss is served from. *)
let[@inline] touch_cache t off ~write =
  let line = line_of_word off in
  let r = Cache.access t.cache ~line ~write in
  if r = Cache.hit then begin
    t.stats.Stats.l1_hits <- t.stats.Stats.l1_hits + 1;
    Latency.L1
  end
  else begin
    if r >= 0 then evict_writeback t r;
    t.stats.Stats.l1_misses <- t.stats.Stats.l1_misses + 1;
    if Cache.access t.l2 ~line ~write:false = Cache.hit then Latency.L2
    else if Cache.access t.llc ~line ~write:false = Cache.hit then Latency.Llc
    else Latency.Pm
  end

(* Media-bad lines fault on any read path: armed by the fault injector
   (see [arm_media_fault]), detected here exactly where a real DIMM would
   return a poisoned line. *)
let[@inline] check_media t off fn =
  if
    Hashtbl.length t.media_bad > 0
    && Hashtbl.mem t.media_bad (line_of_word off)
  then begin
    ignore (fn : string);
    raise (Media_fault { off })
  end

let[@inline] load t off =
  check_power t;
  check_off t off "load";
  check_media t off "load";
  let level = touch_cache t off ~write:false in
  t.stats.Stats.loads <- t.stats.Stats.loads + 1;
  Stats.advance t.stats (Latency.load_ns level);
  (* [check_off] rejected a negative [off]: the length compare is the
     whole bounds check *)
  Word.raw
    (if off < Array.length t.current then Array.unsafe_get t.current off
     else 0)

let[@inline] store t off w =
  check_power t;
  check_off t off "store";
  reach t off;
  let line = line_of_word off in
  journal_touch t line;
  ignore (touch_cache t off ~write:true : Latency.load_level);
  t.stats.Stats.stores <- t.stats.Stats.stores + 1;
  Stats.advance t.stats Latency.store_ns;
  (* A Clean line turns Dirty, keeping its durable words in a slot.  A
     Dirty line stays Dirty, and so does a Flushing one: the store raced
     a writeback already launched by a clwb.  On hardware the pre-clwb
     contents are durable by the next fence regardless -- the writeback
     either completed before this store or the store joined the line
     while it was still queued; model the latter, so the fence drains
     the line with this store included.  Downgrading to [Dirty] here
     would silently void the clwb+fence guarantee of a neighbour block
     sharing the line (false sharing): its commit would fence "durable"
     shadows whose line a concurrent writer's allocation re-dirtied. *)
  if code_of (meta_of t line) = code_clean then leave_clean t line code_dirty;
  t.current.(off) <- Word.bits w;
  (* build the event only when it is recorded: with tracing off a store
     allocates nothing but the [now_ns] box *)
  if Trace.enabled t.trace then Trace.emit t.trace (Trace.Write { off });
  tick t

(* -- line runs ------------------------------------------------------------- *)

(* The kernels below ([blit], [fill], [scan]) send the first word of a
   line run through [load]/[store], then record the rest of the run as
   the per-word calls would have recorded it, without making them.  The
   head access left the run's lines resident in L1 and remembered in the
   way memo, so each later access of them is an L1 hit that fills no way
   and evicts nothing: its record is the hit and load or store counters,
   the cache tick and LRU stamp, the clock and phase sums, and for a
   store the PM event and the crash budget.  The sums are floats summed
   in locals one access at a time, exactly as [Stats.advance] sums them
   (n×ns would round differently), and stored once per run.  Each store
   still checks the first-touch journal record: a capture point at the
   head's event opens a new epoch, so the run's first store may owe one.
   A run ends at the end of either line, at the capacity, and before the
   event on which the crash budget fires.  It is not taken at all (the
   words go through the per-word calls) while tracing is on, an event
   hook is installed and not suspended, a media fault is armed, or the
   way memo lost a line between the head and the run (a capture's
   [on_point] may invalidate the L1 there).  A store run's line holds
   its pre-image slot already (the head store took it), and a run whose
   line is Clean again goes word by word too.  The callbacks must not
   access the region; one that raises leaves the record of the accesses
   made before it, as the per-word loop would. *)

let l1_load_ns = Latency.load_ns Latency.L1

(* Words of [off]'s line after [off]. *)
let[@inline] line_after off =
  Config.words_per_line - 1 - (off land (Config.words_per_line - 1))

(* Stores a run may make: the one on which the budget fires goes through
   [store]. *)
let[@inline] store_room t =
  if t.crash_budget > 0 then t.crash_budget - 1 else max_int

(* No trace event to build, no hook to run after an event, no poisoned
   line to detect. *)
let[@inline] store_runs t =
  (not (Trace.enabled t.trace))
  && Hashtbl.length t.media_bad = 0
  && match t.event_hook with None -> true | Some _ -> t.hook_suspended

let[@inline] count_run t ~loads ~stores =
  let st = t.stats in
  st.Stats.loads <- st.Stats.loads + loads;
  st.Stats.stores <- st.Stats.stores + stores;
  st.Stats.l1_hits <- st.Stats.l1_hits + loads + stores;
  t.events <- t.events + stores;
  if t.crash_budget > 0 then t.crash_budget <- t.crash_budget - stores

let[@inline] set_clock st phase now sum =
  st.Stats.now_ns <- now;
  Stats.set_phase_total st phase sum

(* Re-raise [e] from a callback after recording the run up to it. *)
let reraise e bt = Printexc.raise_with_backtrace e bt

(* The rest of the [blit] run whose head loaded [s] and stored the word
   at [d]: up to [left] more words.  Returns how many it copied. *)
let[@inline] blit_rest t ~s ~d ~left f x =
  let n =
    Int.min
      (Int.min left (store_room t))
      (Int.min
         (Int.min (line_after s) (line_after d))
         (t.capacity - 1 - Int.max s d))
  in
  let cur = t.current in
  if n <= 0 || (not (store_runs t)) || Int.max s d >= Array.length cur then 0
  else
    let c = t.cache and dline = line_of_word d in
    let dw = Cache.memo_way c dline in
    let sw = Cache.memo_way c (line_of_word s) in
    if dw < 0 || sw < 0 || code_of (meta_of t dline) = code_clean then 0
    else begin
      let st = t.stats in
      let phase = st.Stats.cur_phase in
      let now = ref st.Stats.now_ns and sum = ref (Stats.phase_total st phase) in
      let j = ref 1 in
      match
        while !j <= n do
          let w = Word.raw (Array.unsafe_get cur (s + !j)) in
          now := !now +. l1_load_ns;
          sum := !sum +. l1_load_ns;
          f x w;
          journal_touch t dline;
          Array.unsafe_set cur (d + !j) (Word.bits w);
          now := !now +. Latency.store_ns;
          sum := !sum +. Latency.store_ns;
          incr j
        done
      with
      | () ->
          count_run t ~loads:n ~stores:n;
          Cache.hit_run c ~a:sw ~b:dw (2 * n);
          set_clock st phase !now !sum;
          n
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          count_run t ~loads:!j ~stores:(!j - 1);
          Cache.hit_run c ~a:sw ~b:dw ((2 * !j) - 1);
          set_clock st phase !now !sum;
          reraise e bt
    end

(* [load] each word [src + i], pass it to [f x], then [store] it at
   [dst + i], for i ascending from 0 to [len - 1]. *)
let blit t ~src ~dst ~len f x =
  let i = ref 0 in
  while !i < len do
    let s = src + !i and d = dst + !i in
    let w = load t s in
    f x w;
    store t d w;
    i := !i + 1 + blit_rest t ~s ~d ~left:(len - !i - 1) f x
  done

(* The rest of the [fill] run whose head stored word [i] at [d]. *)
let[@inline] fill_rest t ~d ~i ~left f x =
  let n =
    Int.min
      (Int.min left (store_room t))
      (Int.min (line_after d) (t.capacity - 1 - d))
  in
  let cur = t.current in
  if n <= 0 || (not (store_runs t)) || d >= Array.length cur then 0
  else
    let c = t.cache and dline = line_of_word d in
    let dw = Cache.memo_way c dline in
    if dw < 0 || code_of (meta_of t dline) = code_clean then 0
    else begin
      let st = t.stats in
      let phase = st.Stats.cur_phase in
      let now = ref st.Stats.now_ns and sum = ref (Stats.phase_total st phase) in
      let j = ref 1 in
      match
        while !j <= n do
          let w = f x (i + !j) in
          journal_touch t dline;
          Array.unsafe_set cur (d + !j) (Word.bits w);
          now := !now +. Latency.store_ns;
          sum := !sum +. Latency.store_ns;
          incr j
        done
      with
      | () ->
          count_run t ~loads:0 ~stores:n;
          Cache.hit_run c ~a:dw ~b:dw n;
          set_clock st phase !now !sum;
          n
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          count_run t ~loads:0 ~stores:(!j - 1);
          Cache.hit_run c ~a:dw ~b:dw (!j - 1);
          set_clock st phase !now !sum;
          reraise e bt
    end

(* [store] [f x i] at [dst + i], for i ascending from 0 to [len - 1]. *)
let fill t ~dst ~len f x =
  let i = ref 0 in
  while !i < len do
    let d = dst + !i in
    store t d (f x !i);
    i := !i + 1 + fill_rest t ~d ~i:!i ~left:(len - !i - 1) f x
  done

(* The rest of the [scan] run whose head loaded [s]: [k >= 0] when it
   loaded [k] more words and none stopped it, [-k] when its [k]-th word
   did.  A load is no PM event and traces nothing, and the head's load
   passed the media check of this same line, so nothing keeps a scan
   from running. *)
let[@inline] scan_rest t ~s ~left f x =
  let n = Int.min left (Int.min (line_after s) (t.capacity - 1 - s)) in
  let cur = t.current in
  if n <= 0 || s >= Array.length cur then 0
  else
    let c = t.cache in
    let sw = Cache.memo_way c (line_of_word s) in
    if sw < 0 then 0
    else begin
      let st = t.stats in
      let phase = st.Stats.cur_phase in
      let now = ref st.Stats.now_ns and sum = ref (Stats.phase_total st phase) in
      let j = ref 1 and stop = ref 0 in
      match
        while !j <= n do
          let w = Word.raw (Array.unsafe_get cur (s + !j)) in
          now := !now +. l1_load_ns;
          sum := !sum +. l1_load_ns;
          if f x w then begin
            stop := !j;
            j := n
          end;
          incr j
        done
      with
      | () ->
          let loads = if !stop > 0 then !stop else n in
          count_run t ~loads ~stores:0;
          Cache.hit_run c ~a:sw ~b:sw loads;
          set_clock st phase !now !sum;
          if !stop > 0 then - !stop else n
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          count_run t ~loads:!j ~stores:0;
          Cache.hit_run c ~a:sw ~b:sw !j;
          set_clock st phase !now !sum;
          reraise e bt
    end

(* [load] each word [off + i], i ascending from 0, until [f x w] holds:
   returns that [i], or [len] when no word of the range stops it. *)
let scan t ~off ~len f x =
  let i = ref 0 and found = ref len in
  while !i < !found do
    if f x (load t (off + !i)) then found := !i
    else begin
      let k = scan_rest t ~s:(off + !i) ~left:(len - !i - 1) f x in
      if k >= 0 then i := !i + 1 + k
      else begin
        found := !i - k;
        i := !found
      end
    end
  done;
  !found

let rec clwb t off =
  check_power t;
  check_off t off "clwb";
  let line = line_of_word off in
  t.stats.Stats.clwbs <- t.stats.Stats.clwbs + 1;
  if Trace.enabled t.trace then Trace.emit t.trace (Trace.Flush { line });
  if line < lines_in t then begin
    let m = meta_of t line in
    if code_of m = code_dirty then begin
      journal_touch t line;
      set_meta t line ((m land lnot 3) lor code_flushing);
      flush_list t line;
      t.inflight <- t.inflight + 1
    end
  end;
  tick t;
  if t.fence_per_flush then sfence t

(* The drain visits the worklist newest first and copies nothing: a
   Flushing line's volatile words are its durable ones once it drains,
   so it only gives its slot back. *)
and sfence t =
  check_power t;
  let drained = t.inflight in
  for i = t.flush_len - 1 downto 0 do
    let line = Array.unsafe_get t.flush_q i in
    let m = meta_of t line in
    if code_of m = code_flushing then begin
      journal_touch t line;
      mark_file_dirty t line;
      make_clean t line m;
      Cache.mark_clean t.cache ~line
    end
  done;
  t.flush_len <- 0;
  t.inflight <- 0;
  Stats.record_fence t.stats ~drained;
  Stats.advance_in t.stats Stats.Flush (Latency.fence_stall_ns ~inflight:drained);
  file_commit t;
  Trace.emit t.trace Trace.Fence;
  tick t

let clwb_range t off words =
  if words > 0 then begin
    let first = line_of_word off in
    let last = line_of_word (off + words - 1) in
    for line = first to last do
      clwb t (line lsl Config.line_shift)
    done
  end

let set_fence_per_flush t enabled = t.fence_per_flush <- enabled

(* Invalidate the cache hierarchy: O(1) per level (see Cache). *)
let reset_caches t =
  Cache.invalidate t.cache;
  Cache.invalidate t.l2;
  Cache.invalidate t.llc

let arm_media_fault t ~line =
  if line < 0 || line >= lines_of_words t.capacity then
    invalid_arg (Printf.sprintf "Region.arm_media_fault: line %d out of bounds" line);
  t.integrity_epoch <- t.integrity_epoch + 1;
  Hashtbl.replace t.media_bad line ()

let clear_media_faults t =
  t.integrity_epoch <- t.integrity_epoch + 1;
  Hashtbl.reset t.media_bad

let media_fault_count t = Hashtbl.length t.media_bad
let integrity_epoch t = t.integrity_epoch

(* Hand-of-god corruption used by fault tests: flip low bits of one word
   in both the volatile view and the durable image, bypassing the cache
   and stats (this is the injector, not the program under test). *)
let corrupt_word t off =
  check_off t off "corrupt_word";
  reach t off;
  t.integrity_epoch <- t.integrity_epoch + 1;
  let line = line_of_word off in
  journal_touch t line;
  let v = t.current.(off) lxor 0x55 in
  t.current.(off) <- v;
  let m = meta_of t line in
  if code_of m <> code_clean then
    t.pre.(words_of_lines (slot_of m) + (off land (Config.words_per_line - 1)))
    <- v;
  mark_file_dirty t line

let crash ?(mode = Randomize) ?seed ?(torn = false) t =
  (* Each crash draws its line-survival outcomes from a dedicated RNG
     whose seed is either supplied by the caller (replay) or drawn from
     the region's private stream -- and always recorded, so any failing
     randomized crash can be reproduced in isolation.  The RNG itself is
     built on the first coin: Drop_inflight and Keep_inflight draw none
     unless the crash is torn. *)
  let seed_used =
    match seed with Some s -> s | None -> Random.State.bits t.rng
  in
  let crash_rng = lazy (Random.State.make [| seed_used |]) in
  t.last_crash_seed <- Some seed_used;
  t.crash_budget <- -1;
  t.powered_off <- false;
  t.capture <- None;
  t.integrity_epoch <- t.integrity_epoch + 1;
  (* Clean lines are already durable with no writeback in flight: losing
     power changes nothing.  Only the lines holding a pre-image slot
     (every Dirty or Flushing one) need work, or undo journaling; visiting
     them in ascending line order draws the survival coins in line
     order.  Each keeps its volatile words or takes back its slot's. *)
  Array.iter
    (fun line ->
      let m = meta_of t line in
      let base = words_of_lines line and pre = words_of_lines (slot_of m) in
      if torn then begin
        (* Torn persistence: the line was partially written back when
           power failed, so an arbitrary per-word subset of its new
           contents reaches PM.  This deliberately breaks the
           whole-line atomicity the rest of the model provides --
           multi-word records must detect it (checksums) rather than
           assume it away. *)
        journal_touch t line;
        for i = 0 to Config.words_per_line - 1 do
          let w = t.pre.(pre + i) in
          if t.current.(base + i) <> w then
            if Random.State.bool (Lazy.force crash_rng) then
              mark_file_dirty t line
            else
              (* the volatile view reverts to what PM holds *)
              t.current.(base + i) <- w
        done
      end
      else begin
        let survives =
          match mode with
          | Keep_inflight -> code_of m = code_flushing
          | Drop_inflight -> false
          | Randomize ->
              if code_of m = code_flushing then
                Random.State.bool (Lazy.force crash_rng)
              else
                (* a dirty, never-flushed line reaches PM only if the
                   cache happened to evict it; make that rarer than
                   in-flight lines *)
                Random.State.int (Lazy.force crash_rng) 4 = 0
        in
        journal_touch t line;
        if survives then mark_file_dirty t line
        else
          (* the volatile view reverts to what PM holds *)
          copy_ints t.pre pre t.current base Config.words_per_line
      end;
      make_clean t line m)
    (slot_lines t);
  t.inflight <- 0;
  t.flush_len <- 0;
  reset_caches t;
  (* a simulated crash on a file-backed region still commits: the file
     must track the post-crash durable image, not the pre-crash one *)
  file_commit t;
  Trace.emit t.trace Trace.Crash

(* Snapshot / restore of the memory image, for the crash-point explorer:
   one execution to a crash point can be sampled under many survival
   seeds without re-running the workload.

   [snapshot] is O(1): it records a position in a copy-on-write undo
   journal.  Every later first-touch mutation of a cacheline saves that
   line's pre-image, and [restore] replays the records newest-to-oldest,
   O(lines touched).  Tokens stack (an outer "pristine" snapshot survives
   inner crash-point snapshots); restoring a token invalidates every
   token taken after it.

   Cache contents are not captured -- restore invalidates the hierarchy,
   which only matters for latency stats, not durability, because the
   intended next step after a restore is another [crash].  Simulated-time
   and event counters (Stats) are captured and restored alongside the
   image so crash samples do not leak time into each other, and the
   region RNG and trace position rewind with them. *)
let snapshot t =
  let tok =
    {
      t_region = t.region_stamp;
      t_pos = t.j_len;
      t_valid = true;
      t_capacity = t.capacity;
      t_inflight = t.inflight;
      t_stats = Stats.copy t.stats;
      t_rng = Random.State.copy t.rng;
      t_trace_len = Trace.length t.trace;
    }
  in
  arm_journal t;
  t.j_tokens <- tok :: t.j_tokens;
  tok

(* Undo [ensure_capacity] growth that happened after the snapshot.  The
   journal already rewound every line mutated since, so the lines past
   [cap] are zero and Clean again; where the prefix reaches past [cap]'s
   last line it shrinks back, and any later growth re-zeroes them. *)
let truncate_image t cap =
  if cap < t.capacity then begin
    let lines = lines_of_words cap in
    if lines < lines_in t then begin
      (* drop fence worklist entries for lines leaving the prefix *)
      let n = ref 0 in
      for i = 0 to t.flush_len - 1 do
        let line = t.flush_q.(i) in
        if line < lines then begin
          t.flush_q.(!n) <- line;
          incr n
        end
      done;
      t.flush_len <- !n;
      t.current <- prefix_ints t.current (words_of_lines lines);
      t.meta <- Bytes.sub t.meta 0 (4 * lines);
      if t.j_on then t.j_mark <- prefix_ints t.j_mark lines
    end;
    t.capacity <- cap
  end

(* Write a line image back: words, state and, for a line that is not
   Clean, its slot's durable words.  A line returning to Flushing must
   be on the fence worklist; lines left alone never left it.  The line
   lies inside the prefix: a restore replays journal records, and
   [apply_point] reaches first. *)
let install t e =
  let line = e.e_line in
  copy_ints e.e_cur 0 t.current (words_of_lines line) (Array.length e.e_cur);
  let m = meta_of t line in
  match e.e_state with
  | Clean -> if code_of m <> code_clean then make_clean t line m
  | (Dirty | Flushing) as st ->
      let s = if code_of m = code_clean then take_slot t line else slot_of m in
      copy_ints e.e_dur 0 t.pre (words_of_lines s) Config.words_per_line;
      set_meta t line ((s lsl 2) lor code_of_state st);
      if st = Flushing then flush_list t line

let restore t tok =
  if tok.t_region <> t.region_stamp then
    invalid_arg "Region.restore: journaled snapshot from another region";
  if not (tok.t_valid && tok.t_pos <= t.j_len) then
    invalid_arg
      "Region.restore: stale journaled snapshot (journal truncated below it)";
  (* replay undo records newest-to-oldest down to the token *)
  for i = t.j_len - 1 downto tok.t_pos do
    install t t.j_entries.(i);
    t.j_entries.(i) <- dummy_entry
  done;
  t.j_len <- tok.t_pos;
  (* the snapshots taken after [tok] describe the abandoned timeline;
     the live list is newest first, so they are the ones before it *)
  let rec drop_newer = function
    | tk :: older when tk != tok ->
        tk.t_valid <- false;
        drop_newer older
    | live -> live
  in
  t.j_tokens <- drop_newer t.j_tokens;
  truncate_image t tok.t_capacity;
  t.inflight <- tok.t_inflight;
  Stats.assign ~into:t.stats tok.t_stats;
  t.rng <- Random.State.copy tok.t_rng;
  Trace.truncate t.trace tok.t_trace_len;
  (* mutations after this restore need fresh undo records *)
  t.j_epoch <- t.j_epoch + 1;
  t.crash_budget <- -1;
  t.powered_off <- false;
  t.capture <- None;
  t.integrity_epoch <- t.integrity_epoch + 1;
  (* armed media faults belong to the timeline being abandoned *)
  Hashtbl.reset t.media_bad;
  (* the rewound durable image diverges from the file again; every line is
     conservatively re-committed at the next fence (restore on a
     file-backed region is a test-only combination) *)
  (match t.backing with
  | Some _ ->
      for line = 0 to lines_of_words t.capacity - 1 do
        Hashtbl.replace t.file_dirty line ()
      done
  | None -> ());
  reset_caches t

(* Forget a snapshot without restoring it.  The journal records past it
   stay, for the snapshots beneath. *)
let release t tok =
  tok.t_valid <- false;
  t.j_tokens <- List.filter (fun tk -> tk != tok) t.j_tokens

(* -- crash-point capture -------------------------------------------------- *)

(* One execution records every crash point a sweep tests, instead of
   re-running the workload to each: the budget countdown fires after the
   first PM event from now and after every [stride]-th one after it, at
   most [max_points] times, and each firing records the point and calls
   [on_point].  The journal records the first touches since the previous
   point, so a point costs O(lines it changed). *)
let capture t ~stride ?max_points on_point =
  if stride <= 0 then invalid_arg "Region.capture: stride must be positive";
  let left = Option.value max_points ~default:max_int in
  arm_journal t;
  t.capture <-
    Some
      {
        k_stride = stride;
        k_left = left;
        k_phase = t.stats.Stats.cur_phase;
        k_on_point = on_point;
        k_from = t.j_len;
        k_points = [];
      };
  t.crash_budget <- (if left > 0 then 1 else -1)

let captured t =
  match t.capture with
  | None -> invalid_arg "Region.captured: no capture armed"
  | Some k ->
      t.capture <- None;
      t.crash_budget <- -1;
      Array.of_list (List.rev k.k_points)

(* Rebuild a point's image on top of the previous point's: journaled
   like any mutation, so restoring an earlier snapshot rewinds it. *)
let apply_point t p =
  ensure_capacity t p.pt_capacity;
  Array.iter
    (fun e ->
      reach t (words_of_lines e.e_line);
      journal_touch t e.e_line;
      install t e;
      mark_file_dirty t e.e_line)
    p.pt_lines;
  t.inflight <- p.pt_inflight;
  Stats.assign ~into:t.stats p.pt_stats

let durable_load t off =
  check_power t;
  check_off t off "durable_load";
  check_media t off "durable_load";
  t.stats.Stats.loads <- t.stats.Stats.loads + 1;
  Stats.advance t.stats (Latency.load_ns Latency.Pm);
  Word.raw (durable_word t off)

let peek_durable t off =
  check_off t off "peek_durable";
  Word.raw (durable_word t off)

let peek_current t off =
  check_off t off "peek_current";
  Word.raw (word_at t off)

let is_durable_line t line =
  let base = words_of_lines line in
  let len = min Config.words_per_line (t.capacity - base) in
  let same = ref true in
  for i = base to base + len - 1 do
    if word_at t i <> durable_word t i then same := false
  done;
  !same

(* Bit-level comparison of two regions' logical images (differential
   testing of restore against re-execution), whatever their prefixes:
   past both, every word and line state agree. *)
let images_equal a b =
  let words =
    min a.capacity (max (Array.length a.current) (Array.length b.current))
  in
  let rec same_words i =
    i >= words
    || word_at a i = word_at b i
       && durable_word a i = durable_word b i
       && same_words (i + 1)
  in
  let lines = lines_of_words words in
  let rec same_states l =
    l >= lines || (line_state a l = line_state b l && same_states (l + 1))
  in
  a.capacity = b.capacity && a.inflight = b.inflight && same_words 0
  && same_states 0

(* -- file backend -------------------------------------------------------- *)

(* Reopen an existing image file as a fresh region: the Backing layer
   resolves the sidecar journal (replaying a committed one, discarding a
   torn one) and checksum-verifies the content; the loaded words become
   the image, all lines Clean (volatile and durable words agree) --
   exactly the post-power-cycle machine state. *)
let open_file ?(trace = false) ?(seed = 42) ~path () =
  let b, words, status = Backing.open_ ~path in
  let cap = Array.length words in
  let image = extend_ints words (words_of_lines (lines_of_words cap)) 0 in
  (make ~capacity:cap ~image ~trace ~seed (Some b), status)

(* Flush any durable-image changes that have not reached the file (there
   are none after a clean fence) and release the descriptors.  The region
   stays usable as a memory-backed one afterwards. *)
let close_file t =
  match t.backing with
  | None -> ()
  | Some b ->
      (* a clean close is a final ordering point: drain in-flight flushes
         so the image holds everything the program made flush-durable,
         then commit whatever that writeback dirtied *)
      sfence t;
      file_commit t;
      Backing.close b;
      t.backing <- None

let file_commits t =
  match t.backing with None -> 0 | Some b -> Backing.commits b
