(** Set-associative L1D cache simulator.

    Used for two purposes:
    - Figure 11: L1D miss ratios of PMDK vs MOD workloads.  The paper
      attributes MOD's higher miss ratios on map/set/vector to pointer-based
      tree layouts; modelling a 32KB 8-way L1D reproduces that effect.
    - Crash realism: evicting a dirty persistent-memory line writes it back
      to the durable image, exactly as hardware cache replacement can make
      un-flushed data durable at arbitrary times. *)

type t = {
  sets : int;
  set_mask : int; (* sets - 1: every set count is a power of two *)
  ways : int;
  tags : int array; (* sets * ways; -1 = invalid. tag = line address *)
  dirty : bool array;
  last_use : int array; (* LRU timestamps *)
  mutable tick : int;
  (* Epoch-based O(1) invalidation: a set whose [set_epoch] lags [epoch]
     holds stale entries from before the last [invalidate] and is wiped
     lazily on first access.  Observably identical to [reset], but the
     crash-point explorer can drop a 33MB LLC between samples without
     touching its arrays. *)
  set_epoch : int array; (* one per set *)
  mutable epoch : int;
}

let create ?(sets = Config.l1d_sets) ?(ways = Config.l1d_ways) () =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: set count must be a power of two";
  {
    sets;
    set_mask = sets - 1;
    ways;
    tags = Array.make (sets * ways) (-1);
    dirty = Array.make (sets * ways) false;
    last_use = Array.make (sets * ways) 0;
    tick = 0;
    set_epoch = Array.make sets 0;
    epoch = 0;
  }

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Array.fill t.last_use 0 (Array.length t.last_use) 0;
  t.tick <- 0;
  Array.fill t.set_epoch 0 t.sets t.epoch

let invalidate t =
  t.epoch <- t.epoch + 1;
  t.tick <- 0

(* Wipe [set]'s ways if it predates the last [invalidate]; returns the
   index of the set's first way. *)
let open_set t line =
  let set = line land t.set_mask in
  if t.set_epoch.(set) <> t.epoch then begin
    t.set_epoch.(set) <- t.epoch;
    let base = set * t.ways in
    Array.fill t.tags base t.ways (-1);
    Array.fill t.dirty base t.ways false;
    Array.fill t.last_use base t.ways 0
  end;
  set * t.ways

(* Index of [line]'s way in the set starting at [base], or -1.  A line
   is installed only on a miss, so it occupies at most one way and the
   first match is the only one. *)
let find_way t base line =
  let stop = base + t.ways in
  let i = ref base in
  while !i < stop && t.tags.(!i) <> line do
    incr i
  done;
  if !i < stop then !i else -1

(* [access] results: [hit]; [miss] when the displaced way was empty or
   clean; otherwise the (non-negative) line address of a dirty victim,
   which the caller must write back.  Handing the victim back keeps the
   per-word path free of closures. *)
let hit = -1
let miss = -2

(* On a miss the victim is the first invalid way, else the
   least-recently-used one (first on ties). *)
let access t ~line ~write =
  t.tick <- t.tick + 1;
  let base = open_set t line in
  let i = find_way t base line in
  if i >= 0 then begin
    t.last_use.(i) <- t.tick;
    if write then t.dirty.(i) <- true;
    hit
  end
  else begin
    let stop = base + t.ways in
    let victim = ref base in
    let best = ref max_int in
    let w = ref base in
    while !w < stop do
      let i = !w in
      if t.tags.(i) = -1 then begin
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
    let result = if old >= 0 && t.dirty.(i) then old else miss in
    t.tags.(i) <- line;
    t.dirty.(i) <- write;
    t.last_use.(i) <- t.tick;
    result
  end

(* Mark a line clean in the cache (its data has been written back by a
   clwb+sfence), without evicting it: clwb writes back but need not evict. *)
let mark_clean t ~line =
  let i = find_way t (open_set t line) line in
  if i >= 0 then t.dirty.(i) <- false

let resident t ~line = find_way t (open_set t line) line >= 0

let dirty_lines t =
  let acc = ref [] in
  Array.iteri
    (fun i tag ->
      if tag >= 0 && t.dirty.(i) && t.set_epoch.(i / t.ways) = t.epoch then
        acc := tag :: !acc)
    t.tags;
  !acc
