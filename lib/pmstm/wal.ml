(** Persistent undo log for the PMDK-style software transactional memory.

    The log lives in a [Raw] PM block.  Layout:
    - word 0: number of valid entries (0 = log invalid / no tx in flight)
      in its low 32 bits, and above them a generation that every
      invalidation advances
    - then a sequence of self-describing entries:
      [target offset; word count + check; saved words ...]

    An entry's words and the count that publishes it are flushed in the
    same epoch, so a crash can persist the count's line without a line
    of the entry.  The check in the entry's second word binds the entry
    to the log's nonce, the generation, its index and its contents:
    recovery rolls back the prefix of the counted entries that
    validates, and a line still holding an earlier transaction's entry,
    or nothing, ends the prefix.  An entry that did not persist guards a
    range no in-place store has touched yet -- every [Tx.add] fences its
    entry before the store it protects -- so stopping there loses
    nothing.  Rollback applies entries in reverse order, restoring the
    snapshots.

    The generation tells one transaction's entries from the next within
    a log's life, but every log starts at generation 0, and a block the
    allocator hands out again still holds the entries of the logs it
    held before.  The nonce tells those apart: the owner binds each log
    it installs to a number it records durably and never gives an
    earlier log ([Tx]: the sequence number of the root record that
    points at the log), and recovery reads it back from the same place. *)

type t = {
  heap : Pmalloc.Heap.t;
  body : int; (* log block body offset *)
  capacity : int; (* total words in the log block *)
  mutable nonce : int; (* set by [bind] before the first append *)
  mutable gen : int; (* the durable generation *)
  mutable tail : int; (* volatile append cursor, relative to body *)
  mutable entries : int; (* volatile entry count *)
}

let count_bits = 32
let gen_mask = (1 lsl 28) - 1
let length_bits = 24
let length_mask = (1 lsl length_bits) - 1

(* Avalanche mix (the flavour of the heap's root-record checksum). *)
let mix acc x =
  let x = (acc lxor x) * 0xFF51AFD7ED558C1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xC4CEB9FE1A85EC5 in
  x lxor (x lsr 32)

(* The check an entry's length word carries above its 24-bit length. *)
let check t ~index ~off saved =
  let head = List.fold_left mix 0 [ t.nonce; t.gen; index; off ] in
  Array.fold_left mix (mix head (Array.length saved)) saved
  land ((1 lsl 36) - 1)

let header t ~entries = Pmem.Word.of_int ((t.gen lsl count_bits) lor entries)

let create heap ~capacity_words =
  let body = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:capacity_words in
  Pmalloc.Heap.store heap body (Pmem.Word.of_int 0);
  Pmalloc.Heap.clwb heap body;
  Pmalloc.Heap.sfence heap;
  { heap; body; capacity = capacity_words; nonce = 0; gen = 0; tail = 1;
    entries = 0 }

let bind t ~nonce = t.nonce <- nonce

let reset t =
  t.tail <- 1;
  t.entries <- 0

let body t = t.body

let entries t = t.entries

let capacity t = t.capacity

(* The copy into an entry retains nothing: a log entry is no parent. *)
let ignore_word () (_ : Pmem.Word.t) = ()

(* Snapshot [words] words starting at [off] into the log and flush the
   entry with unordered clwbs.  The caller decides when to fence (v1.4
   fences per entry; v1.5 batches the drain).  Log construction time is
   attributed to the Log phase (Figures 2 and 9).

   The check is computed from side-effect-free reads of the words the
   copy then loads: like libpmemobj's log-entry checksum it is part
   of the entry-construction overhead charged below, and adds no
   simulated access.

   A full log is a typed outcome, not a crash: the caller (Tx) aborts the
   transaction through the normal undo path -- the log's existing entries
   are still intact and valid at this point -- and may retry with a grown
   log.  Nothing has been appended when [Error `Log_full] returns. *)
let append_now t ~off ~words =
  let stats = Pmalloc.Heap.stats t.heap in
  Pmem.Stats.in_phase stats Pmem.Stats.Log (fun () ->
      (* entry construction overhead beyond the data copy (allocation and
         metadata bookkeeping in libpmemobj), in time and in cache-resident
         accesses *)
      Pmem.Stats.advance stats Pmem.Config.log_entry_overhead_ns;
      stats.Pmem.Stats.l1_hits <-
        stats.Pmem.Stats.l1_hits + Pmem.Config.log_entry_accesses;
      let region = Pmalloc.Heap.region t.heap in
      let check =
        check t ~index:t.entries ~off
          (Array.init words (fun i ->
               Pmem.Word.bits (Pmem.Region.peek_current region (off + i))))
      in
      let base = t.body + t.tail in
      Pmalloc.Heap.store t.heap base (Pmem.Word.of_int off);
      Pmalloc.Heap.store t.heap (base + 1)
        (Pmem.Word.of_int ((check lsl length_bits) lor words));
      Pmalloc.Heap.blit t.heap ~src:off ~dst:(base + 2) ~len:words ignore_word
        ();
      t.tail <- t.tail + 2 + words;
      t.entries <- t.entries + 1;
      (* publish the new entry count, then flush entry + header *)
      Pmalloc.Heap.store t.heap t.body (header t ~entries:t.entries);
      Pmalloc.Heap.clwb_range t.heap base (2 + words);
      Pmalloc.Heap.clwb t.heap t.body;
      stats.Pmem.Stats.log_writes <- stats.Pmem.Stats.log_writes + 1)

let append t ~off ~words =
  if words > length_mask || t.tail + 2 + words > t.capacity then
    Error `Log_full
  else Ok (append_now t ~off ~words)

(* Persist a log-metadata update (stage transitions, entry publication):
   one header store plus its flush; the caller orders it. *)
let touch_metadata t =
  let stats = Pmalloc.Heap.stats t.heap in
  Pmem.Stats.in_phase stats Pmem.Stats.Log (fun () ->
      Pmalloc.Heap.store t.heap t.body (header t ~entries:t.entries);
      Pmalloc.Heap.clwb t.heap t.body)

(* Durably invalidate the log (transaction finished or rolled back): the
   zeroed count carries the advanced generation, so no entry written
   before this point validates again. *)
let invalidate t =
  t.gen <- (t.gen + 1) land gen_mask;
  Pmalloc.Heap.store t.heap t.body (header t ~entries:0);
  Pmalloc.Heap.clwb t.heap t.body;
  Pmalloc.Heap.sfence t.heap;
  reset t

(* The first [counted] entries that validate, as (target offset, saved
   words), newest first: the entries a rollback may apply.  Reads the
   image, so after a crash it sees what persisted; in a live abort every
   appended entry validates.  Words are decoded without [Word.to_int]:
   a stale word may hold a pointer, and the check, not the decode,
   rejects it. *)
let valid_prefix t ~counted =
  let load i = Pmem.Word.bits (Pmalloc.Heap.load t.heap (t.body + i)) in
  let rec scan index cursor acc =
    if index = counted then acc
    else
      let off = load cursor asr 1 and length = load (cursor + 1) asr 1 in
      let words = length land length_mask in
      if length < 0 || cursor + 2 + words > t.capacity then acc
      else
        let saved = Array.init words (fun j -> load (cursor + 2 + j)) in
        if check t ~index ~off saved <> length lsr length_bits then acc
        else scan (index + 1) (cursor + 2 + words) ((off, saved) :: acc)
  in
  scan 0 1 []

(* Apply the valid undo entries among the first [entries_valid] in
   reverse, restoring snapshots, then invalidate.  Used both for
   in-flight aborts (reading the volatile view) and for crash recovery
   (where current == durable after the crash). *)
let rollback t ~entries_valid =
  List.iter
    (fun (off, saved) ->
      Array.iteri
        (fun j bits -> Pmalloc.Heap.store t.heap (off + j) (Pmem.Word.raw bits))
        saved;
      Pmalloc.Heap.clwb_range t.heap off (Array.length saved))
    (valid_prefix t ~counted:entries_valid);
  Pmalloc.Heap.sfence t.heap;
  invalidate t

(* Crash recovery of the log at [body] bound to [nonce], both found
   through the owner's root record: if the durable entry count is
   non-zero, a transaction was interrupted; roll back what of it
   persisted.  The block's size bounds the entry scan, so a stale length
   cannot send it past the log. *)
let recover heap ~body ~nonce =
  let header = Pmem.Word.to_int (Pmalloc.Heap.load heap body) in
  let valid = header land ((1 lsl count_bits) - 1) in
  if valid > 0 then begin
    let t =
      {
        heap;
        body;
        capacity = Pmalloc.Allocator.used_of (Pmalloc.Heap.allocator heap) body;
        nonce;
        gen = header lsr count_bits;
        tail = 1;
        entries = 0;
      }
    in
    rollback t ~entries_valid:valid;
    true
  end
  else false
