(** Per-size-class bump arenas for the shadow-node hot path.

    The MOD commit protocol allocates a handful of small shadow nodes per
    operation and releases the superseded ones at the next fence.  Serving
    that churn from segregated free lists costs a search per allocation;
    the arenas reduce it to a pointer bump (fresh segment) or a stack pop
    (recycled block), both O(1) with no scan.

    Strides are chosen so blocks never straddle a cacheline boundary they
    could have avoided -- on PM the cost of a node is the number of lines
    it touches, not its word count:
    - stride 4 serves capacities 3..4 (two blocks per cacheline);
    - stride 8 serves capacities 5..8 (one block per cacheline);
    - capacities 9..[max_class] round up to the next multiple of 8
      (strides 16, 24, ..., [max_class]), so inside a line-aligned
      segment every block starts on a line boundary and spans exactly
      [stride/8] lines.  The rounded-up slack stays inside the block's
      recorded capacity, so the conservation identity is untouched; the
      line-count saving on every store, flush and cold read of the block
      outweighs the padded words (paper-adjacent result: line-granularity
      layout dominates PM cost).

    Classes own disjoint {e segments} -- cacheline-aligned extents carved
    from the allocation frontier (or from a large free extent) in bulk,
    handed out block by block by bumping a cursor.  Freed blocks of a
    class stride are pushed on the class's recycle stack and handed back
    LIFO, so a hot commit loop reuses the same few cachelines.

    All arena state is volatile, like the free lists: recovery rebuilds
    allocation metadata from reachability and the arenas restart empty. *)

let max_class = 72

(* Segments hold [segment_blocks] blocks; bounded words per refill keeps
   small heaps from over-reserving while still amortizing refill cost. *)
let segment_blocks stride = max 8 (min 64 (1024 / stride))
let segment_words stride = segment_blocks stride * stride

let stride_of capacity =
  if capacity <= 4 then 4
  else if capacity <= 8 then 8
  else (capacity + 7) land lnot 7

(* Capacities that are themselves a class stride recycle through the
   arena; everything else goes back to the free lists. *)
let is_stride c = c = 4 || (c >= 8 && c <= max_class && c land 7 = 0)

type cls = {
  stride : int;
  mutable bump : int; (* next header offset in the open segment *)
  mutable limit : int; (* one past the open segment's last word *)
  mutable stack : int array; (* recycled header offsets, LIFO *)
  mutable sp : int;
}

type t = {
  classes : cls array; (* indexed by stride *)
  mutable recycled_words : int; (* words parked on recycle stacks *)
  mutable open_words : int; (* unbumped words in open segments *)
  (* the strides [recycle] or [refill] wrote since the last [reset], so a
     reset visits only them; [used_mark] flags each listed stride *)
  used : int array;
  mutable used_len : int;
  used_mark : Bytes.t;
}

let create () =
  {
    classes =
      Array.init (max_class + 1) (fun stride ->
          { stride; bump = 0; limit = 0; stack = [||]; sp = 0 });
    recycled_words = 0;
    open_words = 0;
    used = Array.make (max_class + 1) 0;
    used_len = 0;
    used_mark = Bytes.make (max_class + 1) '\000';
  }

let use t stride =
  if Bytes.unsafe_get t.used_mark stride = '\000' then begin
    Bytes.unsafe_set t.used_mark stride '\001';
    t.used.(t.used_len) <- stride;
    t.used_len <- t.used_len + 1
  end

let reset t =
  for i = 0 to t.used_len - 1 do
    let stride = t.used.(i) in
    let c = t.classes.(stride) in
    c.bump <- 0;
    c.limit <- 0;
    c.sp <- 0;
    Bytes.unsafe_set t.used_mark stride '\000'
  done;
  t.used_len <- 0;
  t.recycled_words <- 0;
  t.open_words <- 0

let free_words t = t.recycled_words + t.open_words

(* O(1) hot path: recycled block if one is parked, else bump the open
   segment.  The block's header, or -1 when the caller must refill (or
   fall back): an int, so the hot path allocates nothing. *)
let take t stride =
  let c = t.classes.(stride) in
  if c.sp > 0 then begin
    c.sp <- c.sp - 1;
    t.recycled_words <- t.recycled_words - stride;
    c.stack.(c.sp)
  end
  else if c.bump < c.limit then begin
    let header = c.bump in
    c.bump <- c.bump + stride;
    t.open_words <- t.open_words - stride;
    header
  end
  else -1

let recycle t ~header ~stride =
  use t stride;
  let c = t.classes.(stride) in
  if c.sp = Array.length c.stack then begin
    let grown = Array.make (max 64 (2 * Array.length c.stack)) 0 in
    Array.blit c.stack 0 grown 0 c.sp;
    c.stack <- grown
  end;
  c.stack.(c.sp) <- header;
  c.sp <- c.sp + 1;
  t.recycled_words <- t.recycled_words + stride

(* Install a fresh segment for [stride].  Only legal when the class's
   open segment is exhausted (segments are multiples of the stride, so
   the bump cursor lands exactly on the limit). *)
let refill t ~stride ~start ~words =
  use t stride;
  let c = t.classes.(stride) in
  assert (c.bump >= c.limit);
  c.bump <- start;
  c.limit <- start + words;
  t.open_words <- t.open_words + words
