(** Set-associative L1D cache simulator.

    Used for two purposes:
    - Figure 11: L1D miss ratios of PMDK vs MOD workloads.  The paper
      attributes MOD's higher miss ratios on map/set/vector to pointer-based
      tree layouts; modelling a 32KB 8-way L1D reproduces that effect.
    - Crash realism: evicting a dirty persistent-memory line writes it back
      to the durable image, exactly as hardware cache replacement can make
      un-flushed data durable at arbitrary times. *)

(* One int array, [blocks], holds a block of [2 * ways + 1] words per
   claimed set: the set's [ways] stamped tags, then one stamp word per
   way (the way's LRU stamp shifted left by one, its dirty bit in bit
   0), then the count of valid ways.  A "way" below is the index of its
   tag word in [blocks]; its stamp word sits [ways] words on.

   Epoch-stamped words give O(1) invalidation: a way's tag is
   [base lor line], where [base] is the current epoch shifted above every
   line address, and a tag below [base] is an invalid way.  The valid
   count is stamped the same way, [base + count], and reads as 0 below
   [base].  [invalidate] bumps [base], so every way of every set turns
   invalid at once without touching the array -- the crash-point
   explorer drops a 33MB LLC between samples this way.  Only a miss fills
   a way, so the valid ways of a set stay a prefix of it: a fill takes
   way [count] while the set has an invalid way, and the least recently
   stamped way, a branch-free argmin over the stamp words, once it has
   none.  That is exact LRU with the first invalid way preferred.

   Stamps come from [tick], which only a stamp advances, so the way
   stamped last holds the highest stamp of its set.  That is [recent]
   after every operation below, so a hit on [recent] writes no stamp,
   and [hit_run] stamps only a run that ends on the way before it.

   A set owns no block until its first fill claims the next one, and
   [blocks] doubles by copying when full: a cache costs what a run
   touches (a heap touches a few hundred of the LLC's 32,768 sets), not
   its geometry.  [rank] holds 16 bits per set: 1 + the order in which
   the set was claimed, or 0 while it is unclaimed, so its block starts
   at (rank - 1) * [block].  That is 64 KB for the LLC, which the GC
   does not scan.  A lookup in an unclaimed set is a miss that claims
   nothing.  A claimed block starts all zero: tags and count invalid in
   every epoch, so the victim rule picks exactly the way it would pick
   in an eagerly built cache.

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
   allocates the set table and one block; the first fill in a page
   allocates its 1 KB, and a fill past the page table grows it, at
   least doubling; a lookup allocates nothing.

   [recent] and [prev] remember the last two ways that hit or filled, and
   [access] compares their tags with the stamped key before it reads the
   index: a remembered way whose tag equals the key is the line's way by
   the same argument.  Ways survive the array's growth, which copies
   every word to the same index, and a set's block never moves.  Two
   ways, because a block copy alternates between a source line and a
   destination line. *)
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
  block : int; (* 2 * ways + 1: a claimed set's words in [blocks] *)
  rank : Bytes.t; (* per set, 16 bits: 1 + its claim order, 0 unclaimed *)
  mutable claimed : int; (* sets claimed *)
  mutable blocks : int array; (* per claimed set: tags, stamps, count *)
  mutable tick : int; (* the latest stamp *)
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
  let block = (2 * ways) + 1 in
  {
    sets;
    set_mask = sets - 1;
    ways;
    block;
    rank = Bytes.make (2 * sets) '\000';
    claimed = 0;
    blocks = Array.make block 0;
    tick = 0;
    base = line_span;
    recent = 0;
    prev = 0;
    pages = [||];
  }

(* Every set keeps its claim; its ways turn invalid and clean. *)
let reset t =
  Array.fill t.blocks 0 (Array.length t.blocks) 0;
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
  (Bytes.get_uint16_le t.rank ((line land t.set_mask) lsl 1) - 1) * t.block

(* The way holding stamped tag [key] for [line], or -1: one of the two
   remembered ways, else the indexed way if its tag is the key.  Every
   way read here lies inside [blocks]: [recent] and [prev] are ways, and
   an index byte is below [ways]. *)
let[@inline] lookup t line key =
  let b = t.blocks in
  if Array.unsafe_get b t.recent = key then t.recent
  else if Array.unsafe_get b t.prev = key then t.prev
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
      if Array.unsafe_get b i = key then i else -1

(* Give way [i] the next stamp, keeping its dirty bit and setting it on a
   write. *)
let[@inline] stamp t i ~write =
  let tick = t.tick + 1 in
  t.tick <- tick;
  let s = i + t.ways in
  let b = t.blocks in
  Array.unsafe_set b s
    ((tick lsl 1) lor (Array.unsafe_get b s land 1) lor Bool.to_int write)

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

(* Give [line]'s set the next block of [blocks], doubling the array
   first when it is full.  The copy keeps every word at its index, so the
   set table, [recent] and [prev] stay valid. *)
let[@inline never] claim t line =
  let first = t.claimed * t.block in
  let len = Array.length t.blocks in
  if first + t.block > len then begin
    (* a typed loop: [Array.blit] into a major-heap array runs the write
       barrier on every word *)
    let b = Array.make (2 * len) 0 in
    for i = 0 to len - 1 do
      Array.unsafe_set b i (Array.unsafe_get t.blocks i)
    done;
    t.blocks <- b
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

(* The least recently used way of the full set whose first way is
   [first] (the first on ties, which distinct stamps never make).  The
   dirty bit below each stamp cannot reorder two distinct stamps. *)
let[@inline] lru_way t first =
  let b = t.blocks in
  let stamps = first + t.ways in
  let best = ref (Array.unsafe_get b stamps) and v = ref 0 in
  for w = 1 to t.ways - 1 do
    let d = Array.unsafe_get b (stamps + w) - !best in
    (* -1 when way [w] is older than the best so far, else 0 *)
    let older = d asr (Sys.int_size - 1) in
    best := !best + (d land older);
    v := !v lxor ((w lxor !v) land older)
  done;
  first + !v

(* On a miss the victim is the first invalid way, else the
   least-recently-used one.  Out of line: [access] is inlined into every
   load and store, and most of them hit. *)
let[@inline never] fill t line key ~write =
  let base = t.base in
  let first =
    let f = first_way t line in
    if f >= 0 then f else claim t line
  in
  let b = t.blocks in
  let count = first + (2 * t.ways) in
  let valid = Array.unsafe_get b count - base in
  let i =
    if valid < t.ways then begin
      let v = Int.max valid 0 in
      Array.unsafe_set b count (base + v + 1);
      first + v
    end
    else lru_way t first
  in
  let old = Array.unsafe_get b i in
  let result =
    if old >= base && Array.unsafe_get b (i + t.ways) land 1 = 1 then
      old - base
    else miss
  in
  let tick = t.tick + 1 in
  t.tick <- tick;
  Array.unsafe_set b i key;
  Array.unsafe_set b (i + t.ways) ((tick lsl 1) lor Bool.to_int write);
  index t line (i - first);
  remember t i;
  result

let[@inline] access t ~line ~write =
  let key = t.base lor line in
  let r = t.recent in
  if Array.unsafe_get t.blocks r = key then begin
    if write then begin
      let s = r + t.ways in
      Array.unsafe_set t.blocks s (Array.unsafe_get t.blocks s lor 1)
    end;
    hit
  end
  else
    let i = lookup t line key in
    if i >= 0 then begin
      stamp t i ~write;
      t.prev <- r;
      t.recent <- i;
      hit
    end
    else fill t line key ~write

(* -- line runs (see [Region.blit]) ---------------------------------------- *)

(* The way of [line] when one of the two remembered ways holds it, else
   -1.  Right after an access of [line] it is the latest way; right after
   an access of [line] and then one of another line, the one before. *)
let[@inline] memo_way t line =
  let key = t.base lor line in
  if t.blocks.(t.recent) = key then t.recent
  else if t.blocks.(t.prev) = key then t.prev
  else -1

(* What [n] hits would leave that alternate between ways [a] and [b], [a]
   first, entered right after an access of [a] and then one of [b] (so
   [recent] is [b] and [prev] is [a] unless they are one way).  A run
   that ends on [b] leaves the recency order as it found it: [b], then
   [a], hold their set's two highest stamps.  One that ends on [a] moves
   [a] above [b] with one stamp.  When [a] = [b] the run stays on the
   latest way. *)
let[@inline] hit_run t ~a ~b n =
  if n land 1 = 1 && a <> b then begin
    stamp t a ~write:false;
    t.prev <- b;
    t.recent <- a
  end

(* Mark a line clean in the cache (its data has been written back by a
   clwb+sfence), without evicting it: clwb writes back but need not evict. *)
let mark_clean t ~line =
  let i = lookup t line (t.base lor line) in
  if i >= 0 then begin
    let s = i + t.ways in
    t.blocks.(s) <- t.blocks.(s) land lnot 1
  end

let resident t ~line = lookup t line (t.base lor line) >= 0

let dirty_lines t =
  let acc = ref [] in
  for set = 0 to t.claimed - 1 do
    let first = set * t.block in
    for i = first to first + t.ways - 1 do
      let tag = t.blocks.(i) in
      if tag >= t.base && t.blocks.(i + t.ways) land 1 = 1 then
        acc := (tag - t.base) :: !acc
    done
  done;
  !acc
