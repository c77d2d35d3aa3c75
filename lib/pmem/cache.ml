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
   sets), not its geometry.  [first] maps a set to its first way, or -1
   while it is unclaimed; a lookup in an unclaimed set is a miss that
   claims nothing.  A claimed set's ways start with tag 0, invalid in
   every epoch, so the victim rule picks exactly the way it would pick
   in an eagerly built cache.

   [recent] and [prev] remember the last two ways that hit or filled, and
   [access] compares their tags with the stamped key before it scans the
   set.  The probe cannot change a result: a stamped tag names one line
   in one epoch, a line occupies at most one way (of its own set), so a
   remembered way whose tag equals the key is exactly the way the scan
   would find; [invalidate] and [reset] leave every stored tag unequal to
   any key of the new epoch.  Way indices survive the arrays' growth,
   which copies every entry to the same index.  Two ways, because a block
   copy alternates between a source line and a destination line. *)
let line_bits = 40
let line_span = 1 lsl line_bits
let max_base = (max_int lsr line_bits) lsl line_bits

(* Invalidations between two full wipes (see [invalidate]). *)
let epochs = max_base / line_span

type t = {
  sets : int;
  set_mask : int; (* sets - 1: every set count is a power of two *)
  ways : int;
  first : int array; (* per set: its first way, -1 until its first fill *)
  mutable claimed : int; (* ways handed out to sets *)
  mutable tags : int array; (* stamped line, invalid below [base] *)
  mutable dirty : bool array;
  mutable last_use : int array; (* LRU timestamps *)
  mutable tick : int;
  mutable base : int; (* current epoch lsl line_bits *)
  mutable recent : int; (* the way of the latest hit or fill *)
  mutable prev : int; (* the way of the one before it *)
}

let create ?(sets = Config.l1d_sets) ?(ways = Config.l1d_ways) () =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: set count must be a power of two";
  {
    sets;
    set_mask = sets - 1;
    ways;
    first = Array.make sets (-1);
    claimed = 0;
    tags = Array.make ways 0;
    dirty = Array.make ways false;
    last_use = Array.make ways 0;
    tick = 0;
    base = line_span;
    recent = 0;
    prev = 0;
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

(* Index of the way holding stamped tag [key] in the set starting at
   [first], or -1.  A line is installed only on a miss, so it occupies at
   most one way and the first match is the only one. *)
let[@inline] find_way t first key =
  let stop = first + t.ways in
  let i = ref first in
  while !i < stop && t.tags.(!i) <> key do
    incr i
  done;
  if !i < stop then !i else -1

(* The first way of [line]'s set, or -1 while the set is unclaimed. *)
let[@inline] first_way t line = t.first.(line land t.set_mask)

(* [find_way] for [line], probing the two remembered ways first. *)
let[@inline] lookup t line key =
  if t.tags.(t.recent) = key then t.recent
  else if t.tags.(t.prev) = key then t.prev
  else
    let first = first_way t line in
    if first < 0 then -1 else find_way t first key

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
   index, so [first], [recent] and [prev] stay valid. *)
let[@inline never] claim t line =
  let first = t.claimed in
  let len = Array.length t.tags in
  if first + t.ways > len then begin
    let grow a fill =
      let b = Array.make (2 * len) fill in
      Array.blit a 0 b 0 len;
      b
    in
    t.tags <- grow t.tags 0;
    t.dirty <- grow t.dirty false;
    t.last_use <- grow t.last_use 0
  end;
  t.first.(line land t.set_mask) <- first;
  t.claimed <- first + t.ways;
  first

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
