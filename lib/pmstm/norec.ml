(** NOrec-style validation STM over the simulated PM.

    NOrec (Dalessandro, Spear, Scott, PPoPP'10) serializes writers with
    one global sequence lock and keeps readers lock-free: a transaction
    records the {e values} it read and revalidates them whenever the
    global sequence number moves, so there is no per-location ownership
    metadata at all ("no ownership records").  This file adds the
    durability half for PM: a committing writer publishes its buffered
    write set into a checksummed redo log and fences {e once} -- that
    fence is the durable linearization point -- then applies the writes
    in place and durably retires the log.

    Commit protocol, while holding the sequence lock (odd [seq]):

    + publish: store every (offset, value) pair plus the entry count,
      a monotonic nonce and a checksum binding all of it into the redo
      log block; clwb the touched lines; {b sfence #1} -- from here the
      transaction survives any crash (recovery replays the log);
    + apply: in-place stores of the write set, clwb, {b sfence #2};
    + retire: zero the log's entry count, clwb, {b sfence #3} -- the
      log cannot replay over a later state.

    A crash before fence #1 leaves a checksum-invalid log (ignored); a
    crash between #1 and #3 leaves a valid log that {!recover} replays
    idempotently.  Three ordering points per writing commit -- compare
    the paper's 5-50 for PMDK v1.4 ({!Tx}) -- and zero for read-only
    transactions.

    Concurrency is the simulator's cooperative kind: every PM event is
    a potential preemption point ({!Pmem.Region.set_event_hook}), and
    loads are not PM events, so volatile straight-line OCaml (the
    lock acquisition, the validation scan) is atomic exactly like
    uninterrupted instructions on one core.  Spin-waits call the
    instance's [yield] so the lock holder can run. *)

(* Redo-log block layout (Raw block, never scanned):
   word 0            entry count (0 = no committed-but-unretired tx)
   word 1            nonce: the committing writer's odd sequence number
   word 2            checksum over (nonce, count, entries)
   word 3 + 2i       entry i target offset
   word 3 + 2i + 1   entry i value bits *)
let log_header_words = 3

(* Avalanche mix (same flavour as the heap's root-record checksum):
   stale log contents from an earlier epoch of the block can never
   validate against a fresh nonce. *)
let mix acc x =
  let x = (acc lxor x) * 0xFF51AFD7ED558C1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xC4CEB9FE1A85EC5 in
  x lxor (x lsr 32)

exception Conflict
(** Internal: value-based validation failed; {!run} re-executes. *)

type t = {
  heap : Pmalloc.Heap.t;
  log_body : int; (* redo-log block body offset *)
  log_capacity : int; (* total words in the log block *)
  mutable seq : int; (* the global sequence lock; odd = writer committing *)
  mutable yield : unit -> unit; (* cooperative backoff while locked *)
  mutable commits : int; (* writing commits (volatile diagnostic) *)
  mutable aborts : int; (* validation failures that forced a re-run *)
}

type tx = {
  stm : t;
  mutable snap : int; (* [seq] this tx last validated against (even) *)
  mutable reads : (int * int) list; (* value read set: (offset, bits) *)
  writes : (int, Pmem.Word.t) Hashtbl.t; (* buffered write set *)
  mutable worder : int list; (* distinct write offsets, newest first *)
}

(* The log must hold every buffered write of one transaction. *)
let max_write_set t = (t.log_capacity - log_header_words) / 2

(* The directory slot keeping the log reachable ({!Tx} uses the last). *)
let log_root_slot = Pmalloc.Heap.root_slots - 2

let create ?(log_capacity_words = 1 lsl 10) heap =
  if log_capacity_words < log_header_words + 2 then
    invalid_arg "Norec.create: log capacity too small for one entry";
  let log_body =
    Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:log_capacity_words
  in
  Pmalloc.Heap.store heap log_body (Pmem.Word.of_int 0);
  Pmalloc.Heap.clwb heap log_body;
  (* register the log in the root directory so recovery reachability
     never reclaims it, then make registration + empty marker durable
     (a never-bound log slot first pays one fence to bind it in the
     root summary, inside [root_set]) *)
  Pmalloc.Heap.root_set heap log_root_slot (Pmem.Word.of_ptr log_body);
  Pmalloc.Heap.sfence heap;
  {
    heap;
    log_body;
    log_capacity = log_capacity_words;
    seq = 0;
    yield = (fun () -> ());
    commits = 0;
    aborts = 0;
  }

let heap t = t.heap
let commits t = t.commits
let aborts t = t.aborts
let set_yield t f = t.yield <- f

(* Spin until no writer holds the sequence lock.  The fuel bound turns a
   scheduling bug (nobody left to release the lock) into a loud failure
   instead of a silent hang. *)
let wait_unlocked stm =
  let fuel = ref 1_000_000 in
  while stm.seq land 1 = 1 do
    decr fuel;
    if !fuel = 0 then
      failwith "Norec: sequence lock never released (scheduler livelock?)";
    stm.yield ()
  done

(* Value-based validation: wait out any in-flight commit, then confirm
   every read still returns the recorded bits.  On success the tx moves
   its snapshot forward; on failure it must re-execute from scratch. *)
let revalidate tx =
  let stm = tx.stm in
  wait_unlocked stm;
  let seq = stm.seq in
  List.iter
    (fun (off, bits) ->
      if Pmem.Word.bits (Pmalloc.Heap.load stm.heap off) <> bits then begin
        stm.aborts <- stm.aborts + 1;
        raise Conflict
      end)
    tx.reads;
  (* loads are not PM events: no yield could have interleaved a writer
     between [wait_unlocked] and here, so [seq] is still current *)
  tx.snap <- seq

let begin_tx stm =
  wait_unlocked stm;
  { stm; snap = stm.seq; reads = []; writes = Hashtbl.create 8; worder = [] }

let read tx off =
  match Hashtbl.find_opt tx.writes off with
  | Some w -> w (* read-your-writes from the buffer *)
  | None ->
      let v = ref (Pmalloc.Heap.load tx.stm.heap off) in
      (* NOrec post-validation: if the global sequence moved since our
         snapshot, some writer committed; prove our reads still hold,
         then re-read the new location under the fresh snapshot *)
      while tx.stm.seq <> tx.snap do
        revalidate tx;
        v := Pmalloc.Heap.load tx.stm.heap off
      done;
      tx.reads <- (off, Pmem.Word.bits !v) :: tx.reads;
      !v

let write tx off w =
  if not (Hashtbl.mem tx.writes off) then tx.worder <- off :: tx.worder;
  Hashtbl.replace tx.writes off w;
  if List.length tx.worder > max_write_set tx.stm then
    invalid_arg "Norec.write: write set exceeds the redo log capacity"

(* Acquire the sequence lock with a consistent read set.  [revalidate]
   leaves [seq] even and equal to [tx.snap] with no intervening PM event,
   so the check-and-bump below is indivisible under the cooperative
   scheduler -- the simulated equivalent of CAS(seq, snap, snap+1). *)
let rec acquire tx =
  let stm = tx.stm in
  if stm.seq = tx.snap then stm.seq <- tx.snap + 1
  else begin
    revalidate tx;
    acquire tx
  end

let commit ?(before_publish = ignore) ?(after_publish = ignore) tx =
  let stm = tx.stm in
  if Hashtbl.length tx.writes = 0 then begin
    (* read-only: a final validation is the whole commit; no fence *)
    if stm.seq <> tx.snap then revalidate tx
  end
  else begin
    acquire tx;
    (* -- locked; seq is odd ------------------------------------------- *)
    let nonce = stm.seq in
    let offs = List.rev tx.worder in
    let count = List.length offs in
    (* bookkeeping hook: from the very first log store a lucky crash
       could already expose this commit, so "pending" starts here *)
    before_publish ();
    (* publish the redo entries + header + checksum, flush, fence #1 *)
    let cursor = ref (stm.log_body + log_header_words) in
    let csum = ref (mix (mix 0 nonce) count) in
    List.iter
      (fun off ->
        let bits = Pmem.Word.bits (Hashtbl.find tx.writes off) in
        Pmalloc.Heap.store stm.heap !cursor (Pmem.Word.of_int off);
        Pmalloc.Heap.store stm.heap (!cursor + 1) (Pmem.Word.raw bits);
        csum := mix (mix !csum off) bits;
        cursor := !cursor + 2)
      offs;
    Pmalloc.Heap.store stm.heap stm.log_body (Pmem.Word.of_int count);
    Pmalloc.Heap.store stm.heap (stm.log_body + 1) (Pmem.Word.of_int nonce);
    Pmalloc.Heap.store stm.heap (stm.log_body + 2) (Pmem.Word.raw !csum);
    Pmalloc.Heap.clwb_range stm.heap stm.log_body
      (log_header_words + (2 * count));
    Pmalloc.Heap.sfence stm.heap;
    (* durably committed: recovery now replays this transaction *)
    after_publish ();
    (* apply in place, fence #2 *)
    List.iter
      (fun off ->
        Pmalloc.Heap.store stm.heap off (Hashtbl.find tx.writes off);
        Pmalloc.Heap.clwb stm.heap off)
      offs;
    Pmalloc.Heap.sfence stm.heap;
    (* retire the log, fence #3 *)
    Pmalloc.Heap.store stm.heap stm.log_body (Pmem.Word.of_int 0);
    Pmalloc.Heap.clwb stm.heap stm.log_body;
    Pmalloc.Heap.sfence stm.heap;
    (* release: seq moves from snap+1 (odd) to snap+2 (even) *)
    stm.seq <- tx.snap + 2;
    stm.commits <- stm.commits + 1;
    let stats = Pmalloc.Heap.stats stm.heap in
    stats.Pmem.Stats.commits <- stats.Pmem.Stats.commits + 1
  end

let run ?before_publish ?after_publish stm f =
  Pmalloc.Heap.span stm.heap ~structure:"norec" ~op:"run"
    (fun () ->
      let rec attempt () =
        let tx = begin_tx stm in
        match
          let r = f tx in
          commit ?before_publish ?after_publish tx;
          r
        with
        | r -> r
        | exception Conflict -> attempt ()
      in
      attempt ())

(* -- crash recovery ------------------------------------------------------ *)

(* Replay a committed-but-unretired redo log found through the root
   directory.  Idempotent: entries are (offset, value) redo records, so
   replaying over an image where the in-place apply already (partially)
   happened rewrites the same values.  Returns whether a log replayed.
   Called on the recovered heap before the reachability analysis. *)
let recover heap =
  let root = Pmalloc.Heap.root_get heap log_root_slot in
  if (not (Pmem.Word.is_ptr root)) || Pmem.Word.is_null root then false
  else begin
    let body = Pmem.Word.to_ptr root in
    let count = Pmem.Word.to_int (Pmalloc.Heap.load heap body) in
    let nonce = Pmem.Word.to_int (Pmalloc.Heap.load heap (body + 1)) in
    let csum = Pmem.Word.bits (Pmalloc.Heap.load heap (body + 2)) in
    (* a garbage count word cannot send the scan past the log block *)
    let block_words =
      Pmalloc.Allocator.used_of (Pmalloc.Heap.allocator heap) body
    in
    let fits = count > 0 && log_header_words + (2 * count) <= block_words in
    if not fits then false
    else begin
      let expect = ref (mix (mix 0 nonce) count) in
      let entries = ref [] in
      (try
         for i = 0 to count - 1 do
           let base = body + log_header_words + (2 * i) in
           let off = Pmem.Word.to_int (Pmalloc.Heap.load heap base) in
           let bits = Pmem.Word.bits (Pmalloc.Heap.load heap (base + 1)) in
           expect := mix (mix !expect off) bits;
           entries := (off, bits) :: !entries
         done
       with Invalid_argument _ ->
         (* an entry pointed outside the region: garbage count word *)
         expect := lnot csum);
      if !expect <> csum then false (* torn publish: pre-commit state *)
      else begin
        List.iter
          (fun (off, bits) ->
            Pmalloc.Heap.store heap off (Pmem.Word.raw bits);
            Pmalloc.Heap.clwb heap off)
          (List.rev !entries);
        Pmalloc.Heap.sfence heap;
        Pmalloc.Heap.store heap body (Pmem.Word.of_int 0);
        Pmalloc.Heap.clwb heap body;
        Pmalloc.Heap.sfence heap;
        true
      end
    end
  end
