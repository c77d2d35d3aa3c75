(** Recovery-time garbage collection (paper Section 5.3).

    After a crash the volatile allocator state (free lists, reference
    counts, frontier) is gone and the durable image may contain leaked
    blocks from an interrupted failure-atomic section.  Recovery performs a
    reachability analysis from the root directory:

    - every block reachable from a root slot is live; its reference count
      is recomputed as its in-degree in the object graph (the paper resets
      counts to 1 and rescans; recomputing exact in-degrees is the
      equivalent for structurally-shared trees);
    - all other space between the heap start and the highest live block is
      reclaimed into free extents;
    - the allocation frontier restarts after the last live block.

    Reachability only ever traverses blocks that were made durable by a
    completed commit (a block becomes reachable only after the fence that
    persisted it), so headers and payloads read here are never torn.
    Roots themselves are read through {!Heap.read_directory}: it loads
    the root summary first and validates only the slots the heap has
    bound (every slot when the summary fails its check or faults), so a
    recovery reads only the directory lines of the slots in use.  Each root
    goes through {!Heap.root_get}, so a torn or media-bad root record is
    either rescued from its secondary copy or surfaces as a typed failure
    before any graph walk trusts it.  When media faults are armed, the
    walk also scrubs raw-block payloads so an unreadable reachable line
    is detected {e now}, during recovery, rather than at first use.
    Recovery issues no PM store on either directory path. *)

type report = {
  live_blocks : int;
  live_words : int;
  reclaimed_extents : int;
  reclaimed_words : int;
  frontier : int;
  root_slots_read : int;
  via_summary : bool;
}

let pp_report ppf r =
  Format.fprintf ppf
    "recovery: %d live blocks (%d words), reclaimed %d extents (%d words), \
     frontier %d; %d root slots read via %s"
    r.live_blocks r.live_words r.reclaimed_extents r.reclaimed_words r.frontier
    r.root_slots_read
    (if r.via_summary then "the summary" else "a full scan")

(* A growable int stack: the walk's worklist is a flat buffer, so a
   recovery allocates no cell or tuple per block. *)
type ints = { mutable a : int array; mutable n : int }

let push b x =
  if b.n = Array.length b.a then begin
    let bigger = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 bigger 0 b.n;
    b.a <- bigger
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let pop b =
  b.n <- b.n - 1;
  b.a.(b.n)

let recover heap =
  let region = Heap.region heap in
  let allocator = Heap.allocator heap in
  (* Recovery runs right after a crash or reopen: every cached root-record
     view predates the failure and must be re-validated from PM. *)
  Heap.invalidate_root_cache heap;
  (* Backup slots' volatile current versions are rebuilt later, by each
     structure's log replay -- the graph walk below only needs the
     descriptor/anchor/log blocks, which are ordinary reachable nodes. *)
  Heap.clear_backup_runtime heap;
  (* Media scrub is only useful when faults can actually fire; without
     armed faults every load succeeds, so skip the extra payload reads
     (raw blocks can be large -- e.g. the PM-STM undo log). *)
  let scrub = Pmem.Region.media_fault_count region > 0 in
  (* In-degrees are counted in the allocator's refcount table, which
     clears in O(1); a walk that raises leaves it cleared. *)
  Allocator.recovery_begin allocator;
  (* The volatile policy cache and bound set died with the crash: read
     them back with the roots (a media fault, a torn pair or a corrupt
     policy word propagates and is surfaced typed by the recovery
     wrapper). *)
  let roots, via_summary = Heap.read_directory heap in
  (* Reachable bodies are marked in the refcount table, which is in
     address order already, and the allocator lists the first few: the
     walk keeps their count and bounds, and the sweep reads the short
     list or the slots between the bounds, whichever costs less. *)
  let blocks = ref 0 and lo = ref max_int and hi = ref (-1) in
  (* Explicit worklist of (body, scan) pairs: recursion here would be
     unbounded in the depth of the object graph, and list spines
     (dstack/dseq) reach hundreds of thousands of nodes.  [scan] is the
     used word count of a Scanned block, or its complement for a Raw
     block to scrub; Raw blocks with nothing to scrub are never pushed. *)
  let pending = { a = Array.make 64 0; n = 0 } in
  let visit body =
    if not (Allocator.recovery_ref allocator body) then begin
      (* one load serves kind *and* the scan limit: one header load per
         block (the sweep reads capacity back without a PM event) *)
      let hw = Pmem.Region.load region (Block.header_of_body body) in
      let used = Block.decode_used hw in
      Allocator.recovery_visit allocator body;
      incr blocks;
      lo := Int.min !lo body;
      hi := Int.max !hi body;
      match Block.decode_kind hw with
      | Block.Scanned ->
          push pending body;
          push pending used
      | Block.Raw ->
          if scrub then begin
            push pending body;
            push pending (lnot used)
          end
    end
  in
  List.iter
    (fun (_, w) ->
      if Pmem.Word.is_ptr w && not (Pmem.Word.is_null w) then
        visit (Pmem.Word.to_ptr w))
    roots;
  while pending.n > 0 do
    let scan = pop pending in
    let body = pop pending in
    if scan >= 0 then
      for i = 0 to scan - 1 do
        let w = Pmem.Region.load region (body + i) in
        if Pmem.Word.is_ptr w && not (Pmem.Word.is_null w) then
          visit (Pmem.Word.to_ptr w)
      done
    else
      for i = 0 to lnot scan - 1 do
        ignore (Pmem.Region.load region (body + i) : Pmem.Word.t)
      done
  done;
  let extents, reclaimed = Allocator.recovery_sweep allocator ~lo:!lo ~hi:!hi in
  {
    live_blocks = !blocks;
    live_words = Allocator.live_words allocator;
    reclaimed_extents = extents;
    reclaimed_words = reclaimed;
    frontier = Allocator.frontier allocator;
    root_slots_read = List.length roots;
    via_summary;
  }
