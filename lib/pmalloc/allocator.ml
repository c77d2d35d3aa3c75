(** Persistent-memory allocator (the paper uses nvm_malloc in the same
    role: recipe step 1, Section 4.2).

    Small allocations (capacity <= {!Arena.max_class}) are served by
    per-size-class bump arenas: a stack pop for a recycled block, a
    pointer bump inside a cacheline-aligned segment otherwise -- the
    shadow-node hot path never searches a list.  Odd sizes and large
    blocks fall back to segregated free lists with first-fit splitting
    and neighbor coalescing, and otherwise bump a frontier, growing the
    simulated region on demand.  Headers are written through the normal
    store path so they become durable together with the rest of the
    block when the owning failure-atomic section flushes and fences.

    Reference counts are deliberately volatile (paper Section 5.3: they
    never need to be durable because recovery recomputes them), kept in an
    OCaml-side table rather than in simulated PM so that the Section 5.4
    trace checker sees no in-place PM writes from refcount maintenance.
    The table is a dense int array indexed by [body / min_capacity] (see
    {!Rc}), so the per-pointer retain/release path neither hashes nor
    allocates.

    Reclamation through {!release} is {e epoch-deferred}: a superseded
    version is released right after the commit's 8-byte root write, but
    that write's clwb is only ordered by the {e next} FASE's fence (epoch
    persistency, Section 5.1).  Until that fence completes, a crash can
    still re-expose the old version as the durable root -- so its blocks
    must not be handed back to allocation, or the next FASE's stores
    (which a cache eviction can persist at any moment) would corrupt a
    state recovery may legitimately return to.

    The deferral spans {e two} fences, not one.  The heap's ping-pong
    root records keep the previous committed version reachable through
    the stale record copy until the next commit overwrites that copy
    {e and} the overwrite's flush is fenced -- one commit plus one fence
    after the release.  [root_get] falls back to the stale copy when the
    fresh one is torn or media-bad, so the version it references must
    stay intact that long.  Released blocks therefore park in [deferred],
    age into [deferred_prev] at the first [sfence], and recycle at the
    second, once neither record copy can reference them.  The two stages
    are reusable flat buffers swapped wholesale per epoch -- bulk
    reclamation allocates no cons cells and keeps a running word count,
    so telemetry reads it in O(1).  Plain {!free} is immediate: its
    callers (the PM-STM undo path) only free blocks whose last durable
    reference was already retired under a fence. *)

(* One stage of the deferral pipeline: interleaved (body, capacity)
   pairs in a growable flat buffer, reused epoch after epoch. *)
type dbuf = {
  mutable data : int array;
  mutable len : int; (* pairs *)
  mutable dwords : int; (* sum of parked capacities *)
}

let dbuf_create () = { data = Array.make 128 0; len = 0; dwords = 0 }

let dbuf_push b body capacity =
  if 2 * b.len = Array.length b.data then begin
    let grown = Array.make (4 * Array.length b.data) 0 in
    Array.blit b.data 0 grown 0 (2 * b.len);
    b.data <- grown
  end;
  b.data.(2 * b.len) <- body;
  b.data.((2 * b.len) + 1) <- capacity;
  b.len <- b.len + 1;
  b.dwords <- b.dwords + capacity

let dbuf_reset b =
  b.len <- 0;
  b.dwords <- 0

(* The refcount table.  Blocks start at least [Block.min_capacity] words
   apart, so [body / min_capacity] gives every live block its own slot:
   one OCaml int per [min_capacity] words of heap.  A slot packs three
   fields -- the table generation it was written in, the count, and
   [body mod min_capacity] -- so a slot answers only for the exact body
   that wrote it, and only until the next [clear].  Clearing bumps the
   generation, which keeps the explorer's per-sample heap reset O(1). *)
module Rc = struct
  type t = { mutable slots : int array; mutable gen : int }

  (* [Block.min_capacity] as a literal, so the slot division compiles to
     a multiply. *)
  let stride = 3
  let () = assert (stride = Block.min_capacity)
  let residue_bits = 2
  let count_bits = 30
  let gen_shift = residue_bits + count_bits
  let residue_mask = (1 lsl residue_bits) - 1
  let max_count = (1 lsl count_bits) - 1
  let max_gen = max_int lsr gen_shift

  (* Generation 0 marks never-written and vacated slots. *)
  let create () = { slots = Array.make 1024 0; gen = 1 }

  let clear t =
    if t.gen = max_gen then begin
      Array.fill t.slots 0 (Array.length t.slots) 0;
      t.gen <- 1
    end
    else t.gen <- t.gen + 1

  let[@inline] live t e = e lsr gen_shift = t.gen
  let[@inline] holds t e residue = live t e && e land residue_mask = residue

  (* Slot [i] of [body], or an empty word when it lies off the table. *)
  let[@inline] slot t body i =
    if body < 0 || i >= Array.length t.slots then 0 else t.slots.(i)

  (* [body]'s count, or -1 when it holds no slot in this generation. *)
  let[@inline] find t body =
    let i = body / stride in
    let e = slot t body i in
    if holds t e (body - (i * stride)) then
      (e lsr residue_bits) land max_count
    else -1

  let set t body n =
    if body < 0 then invalid_arg "Allocator: negative block offset";
    if n < 0 || n > max_count then
      invalid_arg "Allocator: reference count out of range";
    let i = body / stride in
    let residue = body - (i * stride) in
    let len = Array.length t.slots in
    if i >= len then begin
      (* a typed loop: [Array.blit] into a major-heap array runs the
         write barrier on every word *)
      let grown = Array.make (max (2 * len) (i + 1)) 0 in
      let slots = t.slots in
      for j = 0 to len - 1 do
        Array.unsafe_set grown j (Array.unsafe_get slots j)
      done;
      t.slots <- grown
    end;
    let e = t.slots.(i) in
    if live t e && not (holds t e residue) then
      invalid_arg
        (Printf.sprintf "Allocator: block at %d overlaps a live block" body);
    t.slots.(i) <- (t.gen lsl gen_shift) lor (n lsl residue_bits) lor residue

  (* Add [d] to [body]'s count (no slot counts as 0) and return the new
     count: one slot read and one write on the retain/release path. *)
  let[@inline] add t body d =
    let i = body / stride in
    let e = slot t body i in
    if holds t e (body - (i * stride)) then begin
      let n = ((e lsr residue_bits) land max_count) + d in
      if n < 0 then invalid_arg "Allocator.rc_decr: count underflow";
      if n > max_count then
        invalid_arg "Allocator: reference count out of range";
      t.slots.(i) <- e + (d lsl residue_bits);
      n
    end
    else begin
      if d < 0 then invalid_arg "Allocator.rc_decr: count underflow";
      set t body d;
      d
    end

  (* Add one to [body]'s count when it holds a slot, and say whether it
     does: recovery's count of a visited block's in-degree, one slot
     read and one write. *)
  let[@inline] incr_held t body =
    let i = body / stride in
    let e = slot t body i in
    holds t e (body - (i * stride))
    && begin
         if (e lsr residue_bits) land max_count = max_count then
           invalid_arg "Allocator: reference count out of range";
         t.slots.(i) <- e + (1 lsl residue_bits);
         true
       end

  (* Only called on a body that [find] reports present. *)
  let remove t body = t.slots.(body / stride) <- 0

  (* [f body] for every body live in this generation whose slot lies
     between those of [lo] and [hi], in address order; [f] must leave
     the table alone. *)
  let iter_live t ~lo ~hi f =
    let slots = t.slots and gen = t.gen in
    for i = lo / stride to hi / stride do
      let e = slots.(i) in
      if e lsr gen_shift = gen then f ((i * stride) + (e land residue_mask))
    done
end

type t = {
  region : Pmem.Region.t;
  heap_start : int;
  mutable frontier : int;
  freelist : Freelist.t;
  arena : Arena.t;
  rc : Rc.t;
  mutable deferred : dbuf; (* awaiting first fence *)
  mutable deferred_prev : dbuf; (* aged one fence; recycle at next *)
  mutable live_words : int;
  mutable high_water_words : int;
  mutable allocations : int;
  mutable frees : int;
  mutable alloc_words_total : int;
      (* monotone: words ever handed out; telemetry spans diff it to
         attribute shadow-allocation volume per operation *)
  mutable pad_words : int;
      (* sub-min_capacity slivers: stranded by segment alignment, or gaps
         between live blocks that recovery finds too narrow to free *)
  marks : int array;
      (* the first [marks_cap] bodies a recovery walk visited, in visit
         order *)
  mutable marked : int; (* bodies the walk visited, past the cap too *)
}

(* A recovery that visits at most this many blocks can list them instead
   of reading the refcount slots between them ([recovery_sweep]). *)
let marks_cap = 64

let create region ~heap_start =
  {
    region;
    heap_start;
    frontier = heap_start;
    freelist = Freelist.create ();
    arena = Arena.create ();
    rc = Rc.create ();
    deferred = dbuf_create ();
    deferred_prev = dbuf_create ();
    live_words = 0;
    high_water_words = 0;
    allocations = 0;
    frees = 0;
    alloc_words_total = 0;
    pad_words = 0;
    marks = Array.make marks_cap 0;
    marked = 0;
  }

let region t = t.region
let heap_start t = t.heap_start
let frontier t = t.frontier
let live_words t = t.live_words
let high_water_words t = t.high_water_words
let allocations t = t.allocations
let frees t = t.frees
let free_words t = Freelist.free_words t.freelist + Arena.free_words t.arena
let alloc_words_total t = t.alloc_words_total
let pad_words t = t.pad_words
let coalesces t = Freelist.coalesces t.freelist
let freelist_entries t = Freelist.live_entries t.freelist

let iter_free t f =
  Freelist.iter t.freelist (fun e ->
      f ~body:e.Freelist.body ~capacity:e.Freelist.capacity)

(* The one word-conservation identity everything above maintains (and
   the property tests check): every word between the heap start and the
   frontier is live, free, parked in the deferral pipeline, or a
   stranded alignment sliver. *)
let deferred_words t = t.deferred.dwords + t.deferred_prev.dwords

let account_alloc t capacity =
  t.live_words <- t.live_words + capacity;
  if t.live_words > t.high_water_words then t.high_water_words <- t.live_words;
  t.allocations <- t.allocations + 1;
  t.alloc_words_total <- t.alloc_words_total + capacity

(* Write the header of a fresh block.  One plain store: the block's lines
   get durable when the owning FASE flushes them and fences. *)
let write_header t ~body ~capacity ~kind ~used =
  let header = Block.header_of_body body in
  Pmem.Region.store t.region header
    (Block.encode ~capacity ~used ~kind ~allocated:true)

(* Return a no-longer-live extent to the reuse structures: class-stride
   capacities recycle through their arena stack, everything else joins
   the coalescing free lists. *)
let stash_free t ~body ~capacity =
  if Arena.is_stride capacity then
    Arena.recycle t.arena ~header:(Block.header_of_body body) ~stride:capacity
  else Freelist.insert t.freelist ~body ~capacity

(* Open a fresh segment for [stride]: carve it out of a large free
   extent when one exists (so post-recovery gaps serve the hot path
   too), else bump the frontier, cacheline-aligning the segment so
   stride-4/8 blocks tile lines exactly. *)
let open_segment t stride =
  let words = Arena.segment_words stride in
  let line = Pmem.Config.words_per_line in
  (* Ask for one spare line so a misaligned extent still fits an aligned
     segment; the sliver before the aligned start goes back to the free
     lists (or the pad ledger when it is below a block's minimum). *)
  match Freelist.take_at_least t.freelist (words + line - 1) with
  | Some e ->
      let raw = Block.header_of_body e.Freelist.body in
      let start = (raw + line - 1) / line * line in
      let lead = start - raw in
      if lead >= Block.min_capacity then
        Freelist.insert t.freelist ~body:e.Freelist.body ~capacity:lead
      else if lead > 0 then t.pad_words <- t.pad_words + lead;
      let spare = e.Freelist.capacity - lead - words in
      if spare >= Block.min_capacity then
        Freelist.insert t.freelist
          ~body:(Block.body_of_header (start + words))
          ~capacity:spare
      else if spare > 0 then t.pad_words <- t.pad_words + spare;
      Arena.refill t.arena ~stride ~start ~words
  | None ->
      let pad = (line - (t.frontier mod line)) mod line in
      if pad >= Block.min_capacity then
        Freelist.insert t.freelist
          ~body:(Block.body_of_header t.frontier)
          ~capacity:pad
      else t.pad_words <- t.pad_words + pad;
      let start = t.frontier + pad in
      t.frontier <- start + words;
      Pmem.Region.ensure_capacity t.region t.frontier;
      Arena.refill t.arena ~stride ~start ~words

let alloc t ~kind ~words =
  if words <= 0 then invalid_arg "Allocator.alloc: empty block";
  let capacity = Int.max Block.min_capacity (words + Block.header_words) in
  let body, capacity =
    if capacity <= Arena.max_class then begin
      (* hot path: stack pop or pointer bump, no list search *)
      let stride = Arena.stride_of capacity in
      let header = Arena.take t.arena stride in
      if header >= 0 then (Block.body_of_header header, stride)
      else
        match Freelist.take_exact t.freelist stride with
        | Some e -> (e.Freelist.body, e.Freelist.capacity)
        | None ->
            open_segment t stride;
            let header = Arena.take t.arena stride in
            assert (header >= 0);
            (Block.body_of_header header, stride)
    end
    else
      match Freelist.take_exact t.freelist capacity with
      | Some e -> (e.Freelist.body, e.Freelist.capacity)
      | None -> (
          match Freelist.take_at_least t.freelist capacity with
          | Some e ->
              let spare = e.Freelist.capacity - capacity in
              if spare >= Block.min_capacity then begin
                (* split: give back the tail of the block *)
                let tail_header =
                  Block.header_of_body e.Freelist.body + capacity
                in
                Freelist.insert t.freelist
                  ~body:(Block.body_of_header tail_header)
                  ~capacity:spare;
                (e.Freelist.body, capacity)
              end
              else (e.Freelist.body, e.Freelist.capacity)
          | None ->
              let header = t.frontier in
              t.frontier <- t.frontier + capacity;
              Pmem.Region.ensure_capacity t.region t.frontier;
              (Block.body_of_header header, capacity))
  in
  (* Declare the allocation before the header store so the trace shows
     every write landing in already-allocated-fresh memory. *)
  let trace = Pmem.Region.trace t.region in
  if Pmem.Trace.enabled trace then
    Pmem.Trace.emit trace
      (Pmem.Trace.Alloc { off = Block.header_of_body body; words = capacity });
  write_header t ~body ~capacity ~kind ~used:words;
  account_alloc t capacity;
  Rc.set t.rc body 1;
  body

let header_word t body =
  Pmem.Region.peek_current t.region (Block.header_of_body body)

let capacity_of t body = Block.decode_capacity (header_word t body)
let kind_of t body = Block.decode_kind (header_word t body)
let used_of t body = Block.decode_used (header_word t body)

(* Liveness is tracked in the volatile rc table (every live block has an
   entry, even refcount-free STM blocks): freeing must not write PM, or
   reclamation after a commit would look like an in-place write to the
   Section 5.4 checker.  Recovery never reads a free bit either --
   reachability decides. *)
let is_allocated t body = Rc.find t.rc body >= 0

let dealloc t body ~defer =
  (* Validate liveness before touching the header: a stale or corrupt
     body must fail loudly here, not decode garbage capacity into the
     accounting first. *)
  if not (is_allocated t body) then
    invalid_arg (Printf.sprintf "Allocator.free: double free at %d" body);
  let capacity = capacity_of t body in
  Rc.remove t.rc body;
  if defer then dbuf_push t.deferred body capacity
  else stash_free t ~body ~capacity;
  t.live_words <- t.live_words - capacity;
  t.frees <- t.frees + 1;
  let trace = Pmem.Region.trace t.region in
  if Pmem.Trace.enabled trace then
    Pmem.Trace.emit trace
      (Pmem.Trace.Free { off = Block.header_of_body body; words = capacity })

let free t body = dealloc t body ~defer:false

(* A fence ages the deferral pipeline one epoch: blocks that have now
   survived two fences were unlinked by a root write that is durable
   *and* superseded in both record copies, so nothing durable can reach
   them and they may be reused.  The drained stage's buffer is recycled
   as the new deferred stage -- bulk per-epoch swaps, no per-block
   cells. *)
let epoch_flush t =
  let drain = t.deferred_prev in
  for i = 0 to drain.len - 1 do
    stash_free t ~body:drain.data.(2 * i) ~capacity:drain.data.((2 * i) + 1)
  done;
  dbuf_reset drain;
  t.deferred_prev <- t.deferred;
  t.deferred <- drain

(* Flush every cacheline of a block (header + initialized body) with
   weakly-ordered clwb instructions; no fence (recipe step 3). *)
let flush_block t body =
  let header = Block.header_of_body body in
  let used = used_of t body in
  Pmem.Region.clwb_range t.region header (Block.header_words + used)

let rc_get t body = max 0 (Rc.find t.rc body)
let[@inline] rc_incr t body = ignore (Rc.add t.rc body 1 : int)
let[@inline] rc_decr t body = Rc.add t.rc body (-1)

(* The scan callback of [reclaim]: drop the reference a pointer word
   holds, and stop at a child whose count reaches zero. *)
let[@inline] drop_child rc w =
  Pmem.Word.is_ptr w
  && (not (Pmem.Word.is_null w))
  && Rc.add rc (Pmem.Word.to_ptr w) (-1) = 0

(* Free a block whose count reached zero, after releasing its children
   (for Scanned blocks).  The body scan stops at each child that reaches
   zero and reclaims it before it resumes, so the loads keep the order
   of a per-word walk: a child's subtree right after the child's word. *)
let rec reclaim t body =
  let hw = header_word t body in
  (match Block.decode_kind hw with
  | Block.Scanned ->
      let used = Block.decode_used hw in
      let i = ref 0 in
      while !i < used do
        let k =
          Pmem.Region.scan t.region ~off:(body + !i) ~len:(used - !i)
            drop_child t.rc
        in
        i := !i + k;
        if !i < used then begin
          reclaim t
            (Pmem.Word.to_ptr (Pmem.Region.peek_current t.region (body + !i)));
          incr i
        end
      done
  | Block.Raw -> ());
  dealloc t body ~defer:true

(* Drop a reference to [body]; when the count reaches zero, release the
   block's children (for Scanned blocks) and free it.  This is the
   reclamation step of CommitSingle and friends (Section 5.3).  Frees are
   epoch-deferred (see the module comment): the blocks leave the live set
   now but only become allocatable at the next fence. *)
let release t body = if rc_decr t body = 0 then reclaim t body

let[@inline] retain t body = rc_incr t body

(* Return the allocator to its just-created state.  Used by the
   crash-point explorer when it rewinds a scratch heap's region to its
   pristine snapshot instead of building a fresh heap per crash point:
   the volatile allocator state must rewind with the image. *)
let reset_fresh t =
  Freelist.clear t.freelist;
  Arena.reset t.arena;
  Rc.clear t.rc;
  dbuf_reset t.deferred;
  dbuf_reset t.deferred_prev;
  t.live_words <- 0;
  t.high_water_words <- 0;
  t.allocations <- 0;
  t.frees <- 0;
  t.alloc_words_total <- 0;
  t.pad_words <- 0;
  t.frontier <- t.heap_start

(* Recovery support.  The reachability walk counts in-degrees straight
   into the refcount table, then [recovery_sweep] reinstalls the rest of
   the volatile state around the counted blocks. *)
let recovery_begin t =
  Rc.clear t.rc;
  t.marked <- 0

let recovery_ref t body = Rc.incr_held t.rc body

let recovery_visit t body =
  Rc.set t.rc body 1;
  if t.marked < marks_cap then t.marks.(t.marked) <- body;
  t.marked <- t.marked + 1

(* Empty the free structures, then reinstall them around the live
   blocks, which [iter] meets in ascending address order: gaps reach the
   free lists ascending, as coalescing and the LIFO bins expect.  A gap
   too narrow to hold a block is ledgered as pad, like the slivers
   segment alignment strands; a block inside another's extent only moves
   the cursor if it ends past it. *)
let sweep t iter =
  Freelist.clear t.freelist;
  Arena.reset t.arena;
  dbuf_reset t.deferred;
  dbuf_reset t.deferred_prev;
  t.pad_words <- 0;
  let cursor = ref t.heap_start and live = ref 0 in
  let extents = ref 0 and reclaimed = ref 0 in
  iter (fun body ->
      let header = Block.header_of_body body in
      let capacity = capacity_of t body in
      let gap = header - !cursor in
      if gap >= Block.min_capacity then begin
        Freelist.insert t.freelist ~body:(Block.body_of_header !cursor)
          ~capacity:gap;
        incr extents;
        reclaimed := !reclaimed + gap
      end
      else if gap > 0 then t.pad_words <- t.pad_words + gap;
      live := !live + capacity;
      cursor := Int.max !cursor (header + capacity));
  t.frontier <- !cursor;
  t.live_words <- !live;
  if !live > t.high_water_words then t.high_water_words <- !live;
  (!extents, !reclaimed)

(* The slots live in this generation are exactly the bodies the walk
   visited, and slot order is address order: one pass between the
   lowest and highest visited body meets every one in ascending order. *)
let recovery_sweep_table t ~lo ~hi = sweep t (Rc.iter_live t.rc ~lo ~hi)

(* The same bodies from the walk's list, sorted in place (insertion: the
   list is short). *)
let recovery_sweep_marked t =
  let n = t.marked and m = t.marks in
  if n > marks_cap then
    invalid_arg "Allocator.recovery_sweep_marked: the walk overflowed its list";
  for i = 1 to n - 1 do
    let x = m.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && m.(!j) > x do
      m.(!j + 1) <- m.(!j);
      decr j
    done;
    m.(!j + 1) <- x
  done;
  sweep t (fun f ->
      for i = 0 to n - 1 do
        f m.(i)
      done)

(* The list is the cheaper when sorting it (at most about n^2/2 moves for
   n bodies) costs less than reading the slots between them. *)
let recovery_sweep t ~lo ~hi =
  let n = t.marked in
  if n <= marks_cap && n * n <= (hi / Rc.stride) - (lo / Rc.stride) then
    recovery_sweep_marked t
  else recovery_sweep_table t ~lo ~hi
