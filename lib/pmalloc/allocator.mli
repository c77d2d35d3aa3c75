(** Persistent-memory allocator (the role nvm_malloc plays in the paper,
    Section 4.2 recipe step 1).

    Small blocks are served by per-size-class bump arenas ({!Arena}):
    a recycle-stack pop or a pointer bump, never a list search.  Odd
    and large sizes fall back to segregated free lists with splitting
    and neighbor coalescing, else bump a frontier, growing the
    simulated region on demand.  Block headers are one packed word
    written through the normal store path; they become durable with the
    rest of the block when the owning FASE flushes and fences.

    All bookkeeping that recovery can reconstruct is volatile: free lists,
    the frontier, and the reference counts (paper Section 5.3) -- so
    freeing and refcounting never write PM, and the Section 5.4 checker
    sees no in-place writes from reclamation. *)

type t

val create : Pmem.Region.t -> heap_start:int -> t

val alloc : t -> kind:Block.kind -> words:int -> int
(** Allocate a block with [words] usable body words; returns the body
    offset.  The fresh block has reference count 1 (the owned reference
    handed to whoever installs the pointer). *)

val free : t -> int -> unit
(** Return a block to the free lists.  Raises on double free. *)

val release : t -> int -> unit
(** Drop a reference; at zero, recursively release pointer children (of
    [Scanned] blocks) and free.  CommitSingle's reclamation step.
    Blocks freed this way are {e epoch-deferred}: they leave the live
    set immediately but only become allocatable after {e two}
    {!epoch_flush}es (fences).  One fence drains the commit's root
    write; the second retires the stale ping-pong record copy that still
    references the superseded version, which [Heap.root_get] may fall
    back to when the fresh copy is torn or media-bad. *)

val epoch_flush : t -> unit
(** Age the deferral pipeline one epoch and free blocks that have
    survived two fences.  Called by [Heap.sfence] after the fence
    completes. *)

val deferred_words : t -> int
(** Words currently parked in the two-stage deferral pipeline (not yet
    allocatable).  O(1): a running counter maintained at dealloc and
    {!epoch_flush}, not a fold over the pipeline. *)

val retain : t -> int -> unit
val rc_get : t -> int -> int
val rc_incr : t -> int -> unit
val rc_decr : t -> int -> int

val flush_block : t -> int -> unit
(** clwb header + initialized body; no fence (recipe step 3). *)

val capacity_of : t -> int -> int
val used_of : t -> int -> int
val kind_of : t -> int -> Block.kind
val is_allocated : t -> int -> bool

val region : t -> Pmem.Region.t
val heap_start : t -> int
val frontier : t -> int
val live_words : t -> int
val high_water_words : t -> int
val allocations : t -> int
val frees : t -> int
val free_words : t -> int

val alloc_words_total : t -> int
(** Monotone count of words ever allocated (never decremented by frees);
    diffing it across a span measures that span's shadow allocations. *)

val pad_words : t -> int
(** Sub-[min_capacity] slivers: those arena segment alignment strands,
    and the gaps between live blocks recovery finds too narrow to free.
    Part of the conservation identity: [live_words + free_words +
    deferred_words + pad_words = frontier - heap_start] for any
    alloc/release/fence history, recoveries included. *)

val coalesces : t -> int
(** Neighbor merges the free lists have performed (fragmentation
    telemetry: split tails re-fusing with adjacent free extents). *)

val freelist_entries : t -> int
(** Live free-list entries across all bins -- the fragmentation gauge
    the coalescing counter drives down. *)

val iter_free : t -> (body:int -> capacity:int -> unit) -> unit
(** Every free-list extent, in no particular order; arena recycle
    stacks are not included (for tests). *)

val reset_fresh : t -> unit
(** Return all volatile state (free lists, refcounts, deferral list,
    counters, frontier) to the just-created state.  Pairs with rewinding
    the region to a pristine snapshot: together they are equivalent to a
    fresh heap with cold caches ([Heap.reset_fresh]). *)

(** {1 Recovery support} ({!Recovery_gc})

    The reachability walk counts each reachable block's in-degree
    directly in the refcount table: {!recovery_begin}, then per pointer
    {!recovery_ref}, falling back to {!recovery_visit} on a block's first
    reference.  {!recovery_sweep} then rebuilds the rest of the volatile
    state from the visited blocks. *)

val recovery_begin : t -> unit
(** Clear every reference count, in O(1), and the list of visited
    blocks.  A walk that raises leaves the counts cleared: discard the
    heap or recover it again. *)

val recovery_ref : t -> int -> bool
(** Count one more reference to a block the walk has visited; [false],
    counting nothing, when it has not. *)

val recovery_visit : t -> int -> unit
(** Give a block its first reference, and list it while the walk has
    listed fewer than a small fixed number (64) of blocks.  Raises
    [Invalid_argument] when it overlaps a block already visited. *)

val recovery_sweep : t -> lo:int -> hi:int -> int * int
(** Empty the free lists, arenas and deferral pipeline, then meet every
    visited block in address order, reading each header once from the
    current image (no PM event).  Every gap from the heap start up to a
    block becomes a free extent, or pad words when narrower than
    [Block.min_capacity]; live words are the sum of the capacities and
    the frontier the furthest block end (at least the heap start).
    Keeps the counts.  Returns the free extents inserted and their
    words.  The blocks are met by {!recovery_sweep_marked} when the walk
    listed all [n] of them and [n * n] is at most the number of refcount
    slots between the lowest visited body [lo] and the highest [hi], and
    by {!recovery_sweep_table} otherwise; the two leave the same
    state. *)

val recovery_sweep_table : t -> lo:int -> hi:int -> int * int
(** {!recovery_sweep} through the refcount slots between [lo]'s and
    [hi]'s, which must hold every visited body: O(live blocks + (hi -
    lo) / [Block.min_capacity]). *)

val recovery_sweep_marked : t -> int * int
(** {!recovery_sweep} through the walk's list, sorted in place:
    O(n{^ 2}) for n listed blocks.  Raises [Invalid_argument], changing
    nothing, when the walk visited more blocks than it listed. *)
