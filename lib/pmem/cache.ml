(** Set-associative L1D cache simulator.

    Used for two purposes:
    - Figure 11: L1D miss ratios of PMDK vs MOD workloads.  The paper
      attributes MOD's higher miss ratios on map/set/vector to pointer-based
      tree layouts; modelling a 32KB 8-way L1D reproduces that effect.
    - Crash realism: evicting a dirty persistent-memory line writes it back
      to the durable image, exactly as hardware cache replacement can make
      un-flushed data durable at arbitrary times. *)

(* Epoch-stamped tags give O(1) invalidation: a way's tag is
   [base lor line], where [base] is the current epoch shifted above every
   line address, and a tag below [base] is an invalid way.  [invalidate]
   bumps [base], so every way of every set turns invalid at once without
   touching the arrays -- the crash-point explorer drops a 33MB LLC
   between samples this way.  Only a miss fills a way, always the first
   invalid one, so the valid ways of a set stay a prefix of it and the
   victim rule reads no stale [last_use].

   A set owns no ways until its first fill claims the next [ways] entries
   of the way arrays, which double by copying when full: a cache costs
   what a run touches (a heap touches a few hundred of the LLC's 32,768
   sets), not its geometry.  [rank] holds 16 bits per set: 1 + the order
   in which the set was claimed, or 0 while it is unclaimed, so its first
   way is (rank - 1) * [ways].  That is 64 KB for the LLC, which the GC
   does not scan.  A lookup in an unclaimed set is a miss that claims
   nothing.  A claimed set's ways start with tag 0, invalid in every
   epoch, so the victim rule picks exactly the way it would pick in an
   eagerly built cache.

   A lookup reads one way, not the set.  The way index holds one byte
   per line: the line's way, minus its set's first way, at the line's
   latest fill.  A stamped tag names one line in one epoch, and only a
   fill of that line writes it, so a way whose tag equals the key is the
   way of the line's latest fill -- the one the index names.  The lookup
   trusts the indexed way only when its tag equals the key, so an entry
   that an eviction, [invalidate] or [reset] left stale reads as a miss,
   and none of them touches the index.  The bytes live in pages of
   [page_lines] lines, and [pages] covers the highest page filled yet
   (a page no fill has reached is [no_page], all zeros).  So [create]
   allocates the set table and [ways] entries per way array; the first
   fill in a page allocates its 1 KB, and a fill past the page table
   grows it, at least doubling; a lookup allocates nothing.

   [recent] and [prev] remember the last two ways that hit or filled, and
   [access] compares their tags with the stamped key before it reads the
   index: a remembered way whose tag equals the key is the line's way by
   the same argument.  Way indices survive the arrays' growth, which
   copies every entry to the same index, and a set's first way never
   moves.  Two ways, because a block copy alternates between a source
   line and a destination line. *)
let line_bits = 40
let line_span = 1 lsl line_bits
let max_base = (max_int lsr line_bits) lsl line_bits

(* Invalidations between two full wipes (see [invalidate]). *)
let epochs = max_base / line_span

let page_bits = 10
let page_lines = 1 lsl page_bits

(* The index page of every page no fill has reached: offset 0 for each
   line, which the tag compare rejects.  Shared, never written. *)
let no_page = Bytes.make page_lines '\000'

type t = {
  sets : int;
  set_mask : int; (* sets - 1: every set count is a power of two *)
  ways : int;
  rank : Bytes.t; (* per set, 16 bits: 1 + its claim order, 0 unclaimed *)
  mutable claimed : int; (* sets claimed *)
  mutable tags : int array; (* stamped line, invalid below [base] *)
  mutable dirty : bool array;
  mutable last_use : int array; (* LRU timestamps *)
  mutable tick : int;
  mutable base : int; (* current epoch lsl line_bits *)
  mutable recent : int; (* the way of the latest hit or fill *)
  mutable prev : int; (* the way of the one before it *)
  mutable pages : Bytes.t array; (* way index, [page_lines] lines a page *)
}

let create ?(sets = Config.l1d_sets) ?(ways = Config.l1d_ways) () =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: set count must be a power of two";
  if sets > 0xffff || ways < 1 || ways > 256 then
    invalid_arg "Cache.create: at most 65535 sets of 1 to 256 ways";
  {
    sets;
    set_mask = sets - 1;
    ways;
    rank = Bytes.make (2 * sets) '\000';
    claimed = 0;
    tags = Array.make ways 0;
    dirty = Array.make ways false;
    last_use = Array.make ways 0;
    tick = 0;
    base = line_span;
    recent = 0;
    prev = 0;
    pages = [||];
  }

(* Every set keeps its claim; its ways turn invalid and clean. *)
let reset t =
  Array.fill t.tags 0 (Array.length t.tags) 0;
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Array.fill t.last_use 0 (Array.length t.last_use) 0;
  t.tick <- 0;
  t.base <- line_span

(* When the epoch would overflow, one full wipe restarts it. *)
let invalidate t =
  if t.base = max_base then reset t
  else begin
    t.base <- t.base + line_span;
    t.tick <- 0
  end

(* The first way of [line]'s set, or a negative number while the set is
   unclaimed. *)
let[@inline] first_way t line =
  (Bytes.get_uint16_le t.rank ((line land t.set_mask) lsl 1) - 1) * t.ways

(* The way holding stamped tag [key] for [line], or -1: one of the two
   remembered ways, else the indexed way if its tag is the key. *)
let[@inline] lookup t line key =
  if t.tags.(t.recent) = key then t.recent
  else if t.tags.(t.prev) = key then t.prev
  else
    let first = first_way t line in
    let p = line lsr page_bits in
    if first < 0 || p >= Array.length t.pages then -1
    else
      let i =
        first
        + Char.code
            (Bytes.unsafe_get t.pages.(p) (line land (page_lines - 1)))
      in
      if t.tags.(i) = key then i else -1

let[@inline] remember t i =
  if i <> t.recent then begin
    t.prev <- t.recent;
    t.recent <- i
  end

(* [access] results: [hit]; [miss] when the displaced way was empty or
   clean; otherwise the (non-negative) line address of a dirty victim,
   which the caller must write back.  Handing the victim back keeps the
   per-word path free of closures. *)
let hit = -1
let miss = -2

(* Give [line]'s set the next [ways] entries of the way arrays, doubling
   them first when they are full.  The copy keeps every entry at its
   index, so the set table, [recent] and [prev] stay valid. *)
let[@inline never] claim t line =
  let first = t.claimed * t.ways in
  let len = Array.length t.tags in
  if first + t.ways > len then begin
    (* typed loops: [Array.blit] into a major-heap array runs the write
       barrier on every word *)
    let grow_ints (a : int array) =
      let b = Array.make (2 * len) 0 in
      for i = 0 to len - 1 do
        Array.unsafe_set b i (Array.unsafe_get a i)
      done;
      b
    in
    let dirty = Array.make (2 * len) false in
    for i = 0 to len - 1 do
      Array.unsafe_set dirty i (Array.unsafe_get t.dirty i)
    done;
    t.tags <- grow_ints t.tags;
    t.dirty <- dirty;
    t.last_use <- grow_ints t.last_use
  end;
  t.claimed <- t.claimed + 1;
  Bytes.set_uint16_le t.rank ((line land t.set_mask) lsl 1) t.claimed;
  first

(* The index page of [p], allocated (and the page table grown to cover
   it) on the page's first fill. *)
let[@inline never] new_page t p =
  let len = Array.length t.pages in
  if p >= len then begin
    let pages = Array.make (Int.max (p + 1) (2 * len)) no_page in
    for i = 0 to len - 1 do
      pages.(i) <- t.pages.(i)
    done;
    t.pages <- pages
  end;
  let page = Bytes.make page_lines '\000' in
  t.pages.(p) <- page;
  page

(* Record that [line] now sits [off] ways into its set. *)
let[@inline] index t line off =
  let p = line lsr page_bits in
  let page =
    if p < Array.length t.pages && t.pages.(p) != no_page then t.pages.(p)
    else new_page t p
  in
  Bytes.unsafe_set page (line land (page_lines - 1)) (Char.unsafe_chr off)

(* On a miss the victim is the first invalid way, else the
   least-recently-used one (first on ties).  Out of line: [access] is
   inlined into every load and store, and most of them hit. *)
let[@inline never] fill t line key ~write =
  let base = t.base in
  let first =
    let f = first_way t line in
    if f >= 0 then f else claim t line
  in
  let stop = first + t.ways in
  let victim = ref first in
  let best = ref max_int in
  let w = ref first in
  while !w < stop do
    let i = !w in
    if t.tags.(i) < base then begin
      victim := i;
      w := stop
    end
    else begin
      let u = t.last_use.(i) in
      if u < !best then begin
        best := u;
        victim := i
      end;
      incr w
    end
  done;
  let i = !victim in
  let old = t.tags.(i) in
  let result = if old >= base && t.dirty.(i) then old - base else miss in
  t.tags.(i) <- key;
  t.dirty.(i) <- write;
  t.last_use.(i) <- t.tick;
  index t line (i - first);
  remember t i;
  result

let[@inline] access t ~line ~write =
  t.tick <- t.tick + 1;
  let key = t.base lor line in
  let i = lookup t line key in
  if i >= 0 then begin
    t.last_use.(i) <- t.tick;
    if write then t.dirty.(i) <- true;
    remember t i;
    hit
  end
  else fill t line key ~write

(* -- line runs (see [Region.blit]) ---------------------------------------- *)

(* The way of [line] when one of the two remembered ways holds it, else
   -1.  Right after an access of [line] it is the latest way; right after
   an access of [line] and then one of another line, the one before. *)
let[@inline] memo_way t line =
  let key = t.base lor line in
  if t.tags.(t.recent) = key then t.recent
  else if t.tags.(t.prev) = key then t.prev
  else -1

(* What [n] hits would leave that alternate between ways [a] and [b], [a]
   first, starting right after a hit or fill of [b] (so [recent] is [b]):
   [n] ticks, the last two stamps, and the memo holding the last way and
   the other.  When [a] = [b] the run stays on one way, which the memo
   already holds. *)
let[@inline] hit_run t ~a ~b n =
  t.tick <- t.tick + n;
  if a = b then t.last_use.(a) <- t.tick
  else if n > 0 then begin
    let odd = n land 1 = 1 in
    let last = if odd then a else b and other = if odd then b else a in
    t.last_use.(last) <- t.tick;
    if n > 1 then t.last_use.(other) <- t.tick - 1;
    t.prev <- other;
    t.recent <- last
  end

(* Mark a line clean in the cache (its data has been written back by a
   clwb+sfence), without evicting it: clwb writes back but need not evict. *)
let mark_clean t ~line =
  let i = lookup t line (t.base lor line) in
  if i >= 0 then t.dirty.(i) <- false

let resident t ~line = lookup t line (t.base lor line) >= 0

let dirty_lines t =
  let acc = ref [] in
  Array.iteri
    (fun i tag ->
      if tag >= t.base && t.dirty.(i) then acc := (tag - t.base) :: !acc)
    t.tags;
  !acc
