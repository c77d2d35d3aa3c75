(** PMDK-style persistent-memory transactions (the paper's baseline).

    Two modes mirror the two PMDK releases the paper measures:

    - [V1_4] -- undo logging: every snapshotted range is made durable with
      its own ordering point before the in-place write may proceed, plus
      stage-transition and log-invalidation fences.  This is the
      "5-50 fences per transaction" regime of Section 3.
    - [V1_5] -- hybrid undo-redo: snapshots are flushed with unordered
      clwbs and drained by a single fence immediately before the first
      in-place store of each add-batch, and the commit record is handled
      redo-style.  Fewer ordering points, the ~23% speedup the paper
      reports for v1.5 over v1.4 (Section 6.3).

    In both modes, all in-place data modified by the transaction is
    flushed at commit, then the undo log is durably invalidated.

    The transaction tracks every word it stores; commit flushes exactly
    those lines.  [store] optionally enforces the TX_ADD discipline: a
    store to existing (not freshly allocated, not snapshotted) memory
    raises, which is the class of PMDK usage bug the paper cites
    (Liu et al., PMTest, ASPLOS'19). *)

type version = V1_4 | V1_5

type t = {
  heap : Pmalloc.Heap.t;
  version : version;
  mutable log : Wal.t; (* replaced when a full log is grown *)
  mutable depth : int; (* nested tx flatten into the outermost one *)
  mutable pending_drain : bool; (* v1.5: snapshots flushed, not yet fenced *)
  mutable dirty_lines : (int, unit) Hashtbl.t;
  mutable added : (int * int) list; (* snapshotted ranges *)
  mutable fresh : (int * int) list; (* blocks allocated in this tx (body, words) *)
  mutable to_free : int list; (* deferred frees, applied at commit *)
  (* deliberately ordering-broken variant (negative control for the
     crash-point explorer): skips the snapshot-before-store fences and
     never flushes in-place data at commit, the classic PM bug class the
     durable-linearizability oracle must catch *)
  broken_ordering : bool;
}

exception Abort

exception Log_full
(** The undo log filled and repeated growth retries could not fit the
    transaction.  The transaction has been aborted through the normal
    undo path; the heap is recoverable. *)

(* Internal signal: [add] found the log full.  The outermost [run_now]
   aborts (rolling back this transaction's valid entries), grows the log
   and retries the whole flattened transaction. *)
exception Log_full_retry

(* The root slot that registers the log block in the heap's root
   directory, so recovery-time reachability analysis never reclaims it
   and a restarted process finds it. *)
let log_root_slot = Pmalloc.Heap.root_slots - 1

(* Allocate a log and install it in [log_root_slot].  The sequence
   number the root record is stamped with becomes the log's nonce: the
   fence makes the record durable before any entry is written under it,
   so no later log, on this block or another, gets the same one. *)
let install_log heap ~capacity_words =
  let log = Wal.create heap ~capacity_words in
  Wal.bind log
    ~nonce:
      (Pmalloc.Heap.root_set_seq heap log_root_slot
         (Pmem.Word.of_ptr (Wal.body log)));
  Pmalloc.Heap.sfence heap;
  log

(* The slot is bound in the root summary before the fence [Wal.create]
   issues, so registering the log adds no fence. *)
let create ?(log_capacity_words = 1 lsl 16) ?(broken_ordering = false) heap
    ~version =
  Pmalloc.Heap.bind heap log_root_slot;
  let log = install_log heap ~capacity_words:log_capacity_words in
  {
    heap;
    version;
    log;
    depth = 0;
    pending_drain = false;
    dirty_lines = Hashtbl.create 64;
    added = [];
    fresh = [];
    to_free = [];
    broken_ordering;
  }

let heap t = t.heap
let version t = t.version
let in_tx t = t.depth > 0
let log_capacity t = Wal.capacity t.log

(* Replace the full log with one at least [at_least] words big.  Called
   only between transactions (after an abort): the old log is durably
   invalid, the new one is installed in the root directory before the
   old block is freed, so recovery always finds exactly one valid log. *)
let grow_log t ~at_least =
  let cap = ref (Wal.capacity t.log) in
  while !cap < at_least do
    cap := !cap * 2
  done;
  let old_body = Wal.body t.log in
  let log = install_log t.heap ~capacity_words:!cap in
  Pmalloc.Heap.free t.heap old_body;
  t.log <- log

let covered ranges off words =
  List.exists (fun (o, w) -> off >= o && off + words <= o + w) ranges

(* -- transaction lifecycle ----------------------------------------------- *)

let begin_ t =
  t.depth <- t.depth + 1;
  if t.depth = 1 then begin
    Hashtbl.reset t.dirty_lines;
    t.added <- [];
    t.fresh <- [];
    t.to_free <- [];
    t.pending_drain <- false;
    Wal.reset t.log;
    match t.version with
    | V1_4 ->
        (* stage transition NONE -> WORK is made durable eagerly *)
        Pmalloc.Heap.sfence t.heap
    | V1_5 -> ()
  end

let add t ~off ~words =
  if t.depth = 0 then invalid_arg "Tx.add: no transaction in flight";
  if not (covered t.added off words || covered t.fresh off words) then begin
    (match Wal.append t.log ~off ~words with
    | Ok () -> ()
    | Error `Log_full -> raise Log_full_retry);
    t.added <- (off, words) :: t.added;
    if t.broken_ordering then ()
      (* broken: the in-place write may reach PM before its undo snapshot *)
    else
      match t.version with
    | V1_4 ->
        (* undo logging: the snapshot must be durable before the in-place
           write, and the per-entry list metadata is persisted separately
           (the "ordering points proportional to ranges" regime, Section 7) *)
        Pmalloc.Heap.sfence t.heap;
        Wal.touch_metadata t.log;
        Pmalloc.Heap.sfence t.heap
    | V1_5 ->
        (* hybrid logging: entry and metadata drain under one fence *)
        Pmalloc.Heap.sfence t.heap
  end

let load t off = Pmalloc.Heap.load t.heap off

let store t off w =
  if t.depth = 0 then invalid_arg "Tx.store: no transaction in flight";
  if not (covered t.added off 1 || covered t.fresh off 1) then
    failwith
      (Printf.sprintf
         "Tx.store: unlogged in-place write at %d (missing Tx.add?)" off);
  Pmalloc.Heap.store t.heap off w;
  Hashtbl.replace t.dirty_lines (Pmem.Region.line_of_word off) ()

let alloc t ~kind ~words =
  if t.depth = 0 then invalid_arg "Tx.alloc: no transaction in flight";
  let body = Pmalloc.Heap.alloc t.heap ~kind ~words in
  t.fresh <- (body, words) :: t.fresh;
  body

(* Writes into freshly allocated blocks need no undo entry but must be
   flushed at commit. *)
let store_fresh t off w =
  if not (covered t.fresh off 1) then
    failwith "Tx.store_fresh: target is not freshly allocated";
  Pmalloc.Heap.store t.heap off w;
  Hashtbl.replace t.dirty_lines (Pmem.Region.line_of_word off) ()

let free_on_commit t body = t.to_free <- body :: t.to_free

let commit t =
  if t.depth = 0 then invalid_arg "Tx.commit: no transaction in flight";
  if t.depth > 1 then t.depth <- t.depth - 1
  else begin
    (* commit-path processing (lane/stage management in libpmemobj) *)
    let stats = Pmalloc.Heap.stats t.heap in
    Pmem.Stats.advance stats Pmem.Config.tx_commit_overhead_ns;
    stats.Pmem.Stats.l1_hits <-
      stats.Pmem.Stats.l1_hits + Pmem.Config.tx_commit_accesses;
    (* flush all in-place and freshly written lines, then drain *)
    if not t.broken_ordering then
      (* broken: in-place data is never flushed, so the durably
         invalidated log can outlive writes that never reached PM *)
      Hashtbl.iter
        (fun line () ->
          Pmalloc.Heap.clwb t.heap (line lsl Pmem.Config.line_shift))
        t.dirty_lines;
    (* headers of fresh blocks were written by the allocator *)
    List.iter (fun (body, _) -> Pmalloc.Heap.flush_block t.heap body) t.fresh;
    Pmalloc.Heap.sfence t.heap;
    (* stage transition ONCOMMIT: persist the commit decision *)
    Wal.touch_metadata t.log;
    Pmalloc.Heap.sfence t.heap;
    (* durably invalidate the undo log (store + clwb + sfence) *)
    Wal.invalidate t.log;
    List.iter (fun body -> Pmalloc.Heap.free t.heap body) t.to_free;
    t.to_free <- [];
    t.fresh <- [];
    t.added <- [];
    Hashtbl.reset t.dirty_lines;
    t.depth <- 0;
    stats.Pmem.Stats.commits <- stats.Pmem.Stats.commits + 1
  end

let abort t =
  if t.depth = 0 then invalid_arg "Tx.abort: no transaction in flight";
  Wal.rollback t.log ~entries_valid:(Wal.entries t.log);
  (* allocations made inside the aborted tx are rolled back *)
  List.iter (fun (body, _) -> Pmalloc.Heap.free t.heap body) t.fresh;
  t.fresh <- [];
  t.added <- [];
  t.to_free <- [];
  Hashtbl.reset t.dirty_lines;
  t.pending_drain <- false;
  t.depth <- 0

(* Growth retries double the log each time; 6 retries = 64x the original
   capacity before giving up with the typed {!Log_full}. *)
let max_growth_retries = 6

let run_now t f =
  let outermost = t.depth = 0 in
  let rec attempt retries =
    begin_ t;
    match f () with
    | result ->
        commit t;
        result
    | exception Log_full_retry when outermost ->
        (* [add] appended nothing; the log's existing entries are intact,
           so the normal undo path cleanly rewinds this transaction.
           Then grow the log and re-run the whole flattened body. *)
        if t.depth > 0 then abort t;
        if retries = 0 then raise Log_full;
        grow_log t ~at_least:(2 * Wal.capacity t.log);
        attempt (retries - 1)
    | exception e ->
        (* flattened nesting: any exception aborts the outermost tx (a
           nested Log_full_retry keeps propagating so the true outermost
           frame, whose abort already ran here, performs the retry) *)
        if t.depth > 0 then abort t;
        raise e
  in
  attempt max_growth_retries

(* The telemetry depth guard keeps nested [run]s (and [run]s embedded in
   a structure-level span, e.g. CommitUnrelated inside a batch) from
   recording twice: only the outermost span owns the stats delta. *)
let run t f =
  Pmalloc.Heap.span t.heap ~structure:"tx" ~op:"run" (fun () -> run_now t f)

(* Group commit, the PM-STM counterpart of [Mod_core.Batch]: one
   transaction covering [n] logical operations amortizes the snapshot
   and commit-path ordering points across the group.  Nested [run]
   calls inside [f] flatten into this transaction, so existing per-op
   entry points batch unchanged. *)
let run_grouped t ~n f =
  run t (fun () ->
      for i = 0 to n - 1 do
        f i
      done)

(* Crash recovery: find the undo log and its nonce through the root
   record, as a restarted process must (it holds no [t]), roll back an
   interrupted transaction from it, then let the caller run heap-level
   leak recovery.  A slot still null means no log was ever registered. *)
let recover heap =
  let root, nonce = Pmalloc.Heap.root_get_versioned heap log_root_slot in
  if (not (Pmem.Word.is_ptr root)) || Pmem.Word.is_null root then false
  else Wal.recover heap ~body:(Pmem.Word.to_ptr root) ~nonce
