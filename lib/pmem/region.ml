type line_state = Clean | Dirty | Flushing

type crash_mode = Drop_inflight | Keep_inflight | Randomize

exception Crash_point

exception Media_fault of { off : int }

(* One undo-journal record: the full pre-image of a cacheline (volatile
   view, durable image, durability state) captured on its first mutation
   after a snapshot or restore.  Replaying records newest-to-oldest
   rewinds the region in O(lines touched). *)
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

(* [current], [durable], [state], [crash_mark] and [j_mark] cover a
   prefix of the region, in whole lines, that doubles on the first
   mutation past it ([reach]), capped at the capacity's last line;
   [capacity] is the logical size.  Past the prefix a word reads 0 in
   both images and its line is Clean, unlisted and unjournaled: what a
   zero-filled array holds.  So a heap's region costs the lines it
   touches, not its capacity.
   Invariant: every Dirty or Flushing line, every line on the fence or
   crash worklist and every journal record lies inside the prefix.  Each
   of them starts with a mutation, and a mutation reaches the prefix
   first; only a restore shrinks it, after rewinding every line past
   the restored capacity to Clean.
   A prefix word at or past [capacity] (the tail of a partial last line)
   holds 0 in both images: records hold whole lines, so a restore
   rewinds such a word a store reached after [ensure_capacity]. *)
type t = {
  mutable current : int array; (* the CPU's coherent view *)
  mutable durable : int array; (* what Optane DCPMM holds *)
  mutable state : line_state array; (* per cacheline *)
  mutable capacity : int; (* logical size, in words *)
  cache : Cache.t; (* L1D: drives miss ratios and eviction writebacks *)
  l2 : Cache.t; (* latency modelling only *)
  llc : Cache.t; (* latency modelling only *)
  stats : Stats.t;
  trace : Trace.t;
  mutable rng : Random.State.t;
  mutable inflight : int;
  (* worklist of lines that may be in Flushing state, so a fence drains
     in O(in-flight flushes) instead of scanning every line of the
     region.  Invariant: every Flushing line is in the list; the list may
     also hold stale entries for lines that left Flushing some other way
     (eviction writeback, a re-dirtying store) -- the drain re-checks the
     state and skips them. *)
  mutable flushing_q : int list;
  (* crash worklist: the lines a crash must visit, so it costs O(dirty
     lines) instead of a scan of the region.  Invariant: every Dirty or
     Flushing line is listed exactly once ([crash_mark]).  Lines that
     went Clean since (fence drain, eviction writeback) stay listed until
     the next trim, which drops them once the list reaches [crash_trim]
     and re-arms it at twice the survivors: amortized O(1) per listing,
     and the list stays O(dirty lines) in runs that never crash. *)
  mutable crash_q : int array;
  mutable crash_len : int;
  mutable crash_mark : bool array; (* per line: listed in crash_q *)
  mutable crash_trim : int;
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

let crash_trim_floor = 64

(* The prefix a region starts with: enough for a heap's root directory
   and its first allocations. *)
let initial_prefix_words = 4096

(* [arr] extended to [n] elements with [fill], or [arr] itself when it
   already has them. *)
let extend arr n fill =
  let len = Array.length arr in
  if n <= len then arr
  else begin
    let a = Array.make n fill in
    Array.blit arr 0 a 0 len;
    a
  end

let next_stamp = ref 0

(* A region of [capacity] words whose prefix is [durable] (whole lines),
   all Clean, with [current] a copy of it. *)
let make ~capacity ~durable ~trace ~seed backing =
  let lines = Array.length durable lsr Config.line_shift in
  incr next_stamp;
  {
    current = Array.copy durable;
    durable;
    state = Array.make lines Clean;
    capacity;
    cache = Cache.create ();
    l2 = Cache.create ~sets:Config.l2_sets ~ways:Config.l2_ways ();
    llc = Cache.create ~sets:Config.llc_sets ~ways:Config.llc_ways ();
    stats = Stats.create ();
    trace = Trace.create ~enabled:trace;
    rng = Random.State.make [| seed |];
    inflight = 0;
    flushing_q = [];
    crash_q = Array.make crash_trim_floor 0;
    crash_len = 0;
    crash_mark = Array.make lines false;
    crash_trim = crash_trim_floor;
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
    j_mark = Array.make lines (-1);
    j_epoch = 0;
    j_tokens = [];
    media_bad = Hashtbl.create 4;
    integrity_epoch = 0;
    backing;
    file_dirty = Hashtbl.create 64;
  }

let create ?(capacity_words = 1 lsl 20) ?(trace = false) ?(seed = 42) ?file ()
    =
  let cap = max capacity_words Config.words_per_line in
  let prefix = min initial_prefix_words (words_of_lines (lines_of_words cap)) in
  let backing =
    match file with
    | None -> None
    | Some path -> Some (Backing.create ~path ~capacity_words:cap)
  in
  make ~capacity:cap ~durable:(Array.make prefix 0) ~trace ~seed backing

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
  if t.j_len = Array.length t.j_entries then
    t.j_entries <- extend t.j_entries (max 64 (2 * t.j_len)) dummy_entry;
  t.j_entries.(t.j_len) <- e;
  t.j_len <- t.j_len + 1

(* [line]'s volatile contents, durable contents and durability state.
   Whole lines, also where the capacity ends mid-line (see [t]). *)
let line_image t line =
  let base = words_of_lines line in
  {
    e_line = line;
    e_state = t.state.(line);
    e_cur = Array.sub t.current base Config.words_per_line;
    e_dur = Array.sub t.durable base Config.words_per_line;
  }

let journal_record t line =
  t.j_mark.(line) <- t.j_epoch;
  journal_push t (line_image t line)

(* First-touch undo record: called before any mutation of [line]'s
   volatile contents, durable contents or durability state. *)
let[@inline] journal_touch t line =
  if t.j_on && t.j_mark.(line) <> t.j_epoch then journal_record t line

let journal_entries t = t.j_len

(* -- crash worklist ------------------------------------------------------ *)

(* Keep the listed lines [keep] accepts; unlist the others. *)
let crash_list_filter t keep =
  let n = ref 0 in
  for i = 0 to t.crash_len - 1 do
    let line = t.crash_q.(i) in
    if keep line then begin
      t.crash_q.(!n) <- line;
      incr n
    end
    else t.crash_mark.(line) <- false
  done;
  t.crash_len <- !n

(* Drop the listed lines that went Clean. *)
let crash_list_trim t =
  crash_list_filter t (fun line ->
      match t.state.(line) with Clean -> false | Dirty | Flushing -> true);
  t.crash_trim <- max crash_trim_floor (2 * t.crash_len)

(* Called whenever [line] may have left Clean. *)
let crash_list t line =
  if not t.crash_mark.(line) then begin
    if t.crash_len >= t.crash_trim then crash_list_trim t;
    if t.crash_len = Array.length t.crash_q then
      t.crash_q <- extend t.crash_q (2 * t.crash_len) 0;
    t.crash_q.(t.crash_len) <- line;
    t.crash_len <- t.crash_len + 1;
    t.crash_mark.(line) <- true
  end

let crash_worklist t = Array.to_list (Array.sub t.crash_q 0 t.crash_len)

let dirty_lines t =
  let acc = ref [] in
  for line = Array.length t.state - 1 downto 0 do
    match t.state.(line) with
    | Clean -> ()
    | Dirty | Flushing -> acc := line :: !acc
  done;
  !acc

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
  t.current <- extend t.current n 0;
  t.durable <- extend t.durable n 0;
  t.state <- extend t.state lines Clean;
  t.crash_mark <- extend t.crash_mark lines false;
  t.j_mark <- extend t.j_mark lines (-1)

(* Bring word [off] (below the capacity) inside the prefix; called
   before the first mutation of its line, ahead of the journal record. *)
let[@inline] reach t off =
  if off >= Array.length t.current then grow_prefix t off

(* Word [off] of [image], or 0 past the prefix. *)
let word_at image off = if off < Array.length image then image.(off) else 0

let state_at t line =
  if line < Array.length t.state then t.state.(line) else Clean

let out_of_bounds fn off =
  invalid_arg (Printf.sprintf "Region.%s: offset %d out of bounds" fn off)

let[@inline] check_off t off fn =
  if off < 0 || off >= t.capacity then out_of_bounds fn off

let mark_file_dirty t line =
  match t.backing with
  | Some _ -> Hashtbl.replace t.file_dirty line ()
  | None -> ()

(* Copy the volatile contents of [line] into the durable image. *)
let writeback_line t line =
  let base = words_of_lines line in
  Array.blit t.current base t.durable base Config.words_per_line;
  mark_file_dirty t line

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
              (line, Array.init len (fun i -> word_at t.durable (base + i)))
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
  if victim_line < Array.length t.state then begin
    journal_touch t victim_line;
    writeback_line t victim_line;
    (match t.state.(victim_line) with
    | Flushing -> t.inflight <- t.inflight - 1
    | Dirty | Clean -> ());
    t.state.(victim_line) <- Clean
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
  t.current.(off) <- Word.bits w;
  (match t.state.(line) with
  | Clean ->
      t.state.(line) <- Dirty;
      crash_list t line
  | Dirty -> ()
  | Flushing ->
      (* The store raced a writeback already launched by a clwb.  On
         hardware the pre-clwb contents are durable by the next fence
         regardless -- the writeback either completed before this store
         or the store joined the line while it was still queued; model
         the latter, so the fence drains the line with this store
         included.  Downgrading to [Dirty] here would silently void the
         clwb+fence guarantee of a neighbour block sharing the line
         (false sharing): its commit would fence "durable" shadows whose
         line a concurrent writer's allocation re-dirtied. *)
      ());
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
   [on_point] may invalidate the L1 there).  The callbacks must not
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
    if dw < 0 || sw < 0 then 0
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
    if dw < 0 then 0
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
  (match state_at t line with
  | Dirty ->
      journal_touch t line;
      t.state.(line) <- Flushing;
      t.flushing_q <- line :: t.flushing_q;
      t.inflight <- t.inflight + 1
  | Clean | Flushing -> ());
  tick t;
  if t.fence_per_flush then sfence t

and sfence t =
  check_power t;
  let drained = t.inflight in
  List.iter
    (fun line ->
      match t.state.(line) with
      | Flushing ->
          journal_touch t line;
          writeback_line t line;
          t.state.(line) <- Clean;
          Cache.mark_clean t.cache ~line
      | Clean | Dirty -> ())
    t.flushing_q;
  t.flushing_q <- [];
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
  journal_touch t (line_of_word off);
  let v = t.current.(off) lxor 0x55 in
  t.current.(off) <- v;
  t.durable.(off) <- v;
  mark_file_dirty t (line_of_word off)

let crash ?(mode = Randomize) ?seed ?(torn = false) t =
  (* Each crash draws its line-survival outcomes from a dedicated RNG
     whose seed is either supplied by the caller (replay) or drawn from
     the region's private stream -- and always recorded, so any failing
     randomized crash can be reproduced in isolation. *)
  let seed_used =
    match seed with Some s -> s | None -> Random.State.bits t.rng
  in
  let crash_rng = Random.State.make [| seed_used |] in
  t.last_crash_seed <- Some seed_used;
  t.crash_budget <- -1;
  t.powered_off <- false;
  t.capture <- None;
  t.integrity_epoch <- t.integrity_epoch + 1;
  (* Clean lines are already durable with no writeback in flight, so
     their volatile and durable contents agree: losing power changes
     nothing.  Only dirty / in-flight lines need work (or undo
     journaling), and the worklist lists every one of them; visiting it
     in ascending line order draws the survival coins in line order. *)
  let lines = Array.sub t.crash_q 0 t.crash_len in
  Array.sort Int.compare lines;
  t.crash_len <- 0;
  Array.iter
    (fun line ->
      t.crash_mark.(line) <- false;
      match t.state.(line) with
      | Clean -> ()
      | Dirty | Flushing when torn ->
          (* Torn persistence: the line was partially written back when
             power failed, so an arbitrary per-word subset of its new
             contents reaches PM.  This deliberately breaks the
             whole-line atomicity the rest of the model provides --
             multi-word records must detect it (checksums) rather than
             assume it away. *)
          journal_touch t line;
          let base = words_of_lines line in
          for i = base to base + Config.words_per_line - 1 do
            if
              t.current.(i) <> t.durable.(i)
              && Random.State.bool crash_rng
            then begin
              t.durable.(i) <- t.current.(i);
              mark_file_dirty t line
            end
          done;
          (* the volatile view reverts to what PM now holds *)
          Array.blit t.durable base t.current base Config.words_per_line;
          t.state.(line) <- Clean
      | (Dirty | Flushing) as st ->
          let survives =
            match (st, mode) with
            | Clean, _ -> false (* already durable, nothing in flight *)
            | Flushing, Keep_inflight -> true
            | Flushing, Drop_inflight -> false
            | Flushing, Randomize -> Random.State.bool crash_rng
            | Dirty, Keep_inflight -> false
            | Dirty, Drop_inflight -> false
            | Dirty, Randomize ->
                (* a dirty, never-flushed line reaches PM only if the cache
                   happened to evict it; make that rarer than in-flight
                   lines *)
                Random.State.int crash_rng 4 = 0
          in
          journal_touch t line;
          if survives then writeback_line t line
          else begin
            (* the volatile view reverts to what PM holds *)
            let base = words_of_lines line in
            Array.blit t.durable base t.current base Config.words_per_line
          end;
          t.state.(line) <- Clean)
    lines;
  t.inflight <- 0;
  t.flushing_q <- [];
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
  t.j_on <- true;
  t.j_epoch <- t.j_epoch + 1;
  t.j_tokens <- tok :: t.j_tokens;
  tok

(* Undo [ensure_capacity] growth that happened after the snapshot.  The
   journal already rewound every line mutated since, so the lines past
   [cap] are zero and Clean again; where the prefix reaches past [cap]'s
   last line it shrinks back, and any later growth re-zeroes them. *)
let truncate_image t cap =
  if cap < t.capacity then begin
    let lines = lines_of_words cap in
    if lines < Array.length t.state then begin
      (* drop worklist entries for lines leaving the prefix *)
      t.flushing_q <- List.filter (fun l -> l < lines) t.flushing_q;
      crash_list_filter t (fun l -> l < lines);
      let words = words_of_lines lines in
      t.current <- Array.sub t.current 0 words;
      t.durable <- Array.sub t.durable 0 words;
      t.state <- Array.sub t.state 0 lines;
      t.crash_mark <- Array.sub t.crash_mark 0 lines;
      t.j_mark <- Array.sub t.j_mark 0 lines
    end;
    t.capacity <- cap
  end

(* Write a line image back: words, durable words and state.  A line
   returning to Flushing must be on the fence worklist, and one leaving
   Clean on the crash worklist; lines left alone never left them.  The
   line lies inside the prefix: a restore replays journal records, and
   [apply_point] reaches first. *)
let install t e =
  let base = words_of_lines e.e_line in
  Array.blit e.e_cur 0 t.current base (Array.length e.e_cur);
  Array.blit e.e_dur 0 t.durable base (Array.length e.e_dur);
  t.state.(e.e_line) <- e.e_state;
  match e.e_state with
  | Clean -> ()
  | Dirty -> crash_list t e.e_line
  | Flushing ->
      t.flushing_q <- e.e_line :: t.flushing_q;
      crash_list t e.e_line

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
  t.j_on <- true;
  t.j_epoch <- t.j_epoch + 1;
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
  Word.raw (word_at t.durable off)

let peek_durable t off =
  check_off t off "peek_durable";
  Word.raw (word_at t.durable off)

let peek_current t off =
  check_off t off "peek_current";
  Word.raw (word_at t.current off)

let is_durable_line t line =
  let base = words_of_lines line in
  let len = min Config.words_per_line (t.capacity - base) in
  let same = ref true in
  for i = base to base + len - 1 do
    if word_at t.current i <> word_at t.durable i then same := false
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
    || word_at a.current i = word_at b.current i
       && word_at a.durable i = word_at b.durable i
       && same_words (i + 1)
  in
  let lines = lines_of_words words in
  let rec same_states l =
    l >= lines || (state_at a l = state_at b l && same_states (l + 1))
  in
  a.capacity = b.capacity && a.inflight = b.inflight && same_words 0
  && same_states 0

(* -- file backend -------------------------------------------------------- *)

(* Reopen an existing image file as a fresh region: the Backing layer
   resolves the sidecar journal (replaying a committed one, discarding a
   torn one) and checksum-verifies the content; the loaded words become
   both the volatile view and the durable image, all lines Clean --
   exactly the post-power-cycle machine state. *)
let open_file ?(trace = false) ?(seed = 42) ~path () =
  let b, words, status = Backing.open_ ~path in
  let cap = Array.length words in
  let durable = extend words (words_of_lines (lines_of_words cap)) 0 in
  (make ~capacity:cap ~durable ~trace ~seed (Some b), status)

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

let set_file_sync_hook t hook =
  match t.backing with
  | None -> invalid_arg "Region.set_file_sync_hook: region is memory-backed"
  | Some b -> Backing.set_sync_hook b hook

let file_commits t =
  match t.backing with None -> 0 | Some b -> Backing.commits b
