(** Segregated free lists for the persistent-memory allocator, with
    neighbor coalescing.

    The lists themselves are volatile (ordinary OCaml state): after a crash
    they are reconstructed by the recovery garbage collector from the gaps
    between reachable blocks, exactly as the paper's reclamation design
    permits (Section 5.3: only reachability needs to be durable).

    Bins hold entries describing free extents.  Capacities up to
    [exact_max] get an exact-fit bin each; larger blocks fall into
    power-of-two buckets that are searched first-fit and split.

    Every insert checks both physical neighbors of the incoming extent
    (two O(1) hash probes on the extent's end offsets) and merges with
    any that are free, so split tails re-fuse with their siblings
    instead of fragmenting the heap into ever-smaller unusable shards.
    Merged-away constituents are marked dead and dropped lazily when a
    take pops them; the live-entry count and the coalesce counter are
    exported so fragmentation is observable. *)

let exact_max = 64
let buckets = 24 (* power-of-two classes above exact_max *)

type entry = { body : int; capacity : int; mutable dead : bool }

(* The coalescing index's tables, keyed by word offset.  They are only
   probed by key, never iterated, so the hash decides no result; a
   multiply and a fold of the high bits into the low ones (the bucket
   index is the low bits) keep it off the generic [caml_hash] and
   [compare]. *)
module Offsets = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)
end)

type t = {
  exact : entry list array; (* index = capacity, 0..exact_max *)
  coarse : entry list array; (* index = log2 class *)
  mutable free_words : int;
  (* physical-neighbor index for coalescing: a live entry keyed by the
     first word of its extent (its header offset) and by one-past its
     last word *)
  by_start : entry Offsets.t;
  by_end : entry Offsets.t;
  mutable entries : int; (* live entries across all bins *)
  mutable coalesces : int; (* neighbor merges performed *)
  (* the bins [bin_insert] filled since the last [clear]: exact bin [c]
     as [c], coarse bucket [b] as [exact_max + 1 + b]; [bin_mark] flags
     each listed bin *)
  used : int array;
  mutable used_len : int;
  bin_mark : Bytes.t;
}

let bins = exact_max + 1 + buckets

let create () =
  {
    exact = Array.make (exact_max + 1) [];
    coarse = Array.make buckets [];
    free_words = 0;
    by_start = Offsets.create 256;
    by_end = Offsets.create 256;
    entries = 0;
    coalesces = 0;
    used = Array.make bins 0;
    used_len = 0;
    bin_mark = Bytes.make bins '\000';
  }

let use t bin =
  if Bytes.unsafe_get t.bin_mark bin = '\000' then begin
    Bytes.unsafe_set t.bin_mark bin '\001';
    t.used.(t.used_len) <- bin;
    t.used_len <- t.used_len + 1
  end

(* A clear costs what the lists hold: only [bin_insert] fills bins and
   tables, so it empties the bins it filled.  While the tables hold a
   few entries it removes their keys one by one; past [few_entries], a
   reset (refilling a small table's 256 buckets, or dropping a grown
   one at once) is the cheaper. *)
let few_entries = 8

let clear t =
  let few = Offsets.length t.by_start <= few_entries in
  let drop =
    List.iter (fun e ->
        if few && not e.dead then begin
          Offsets.remove t.by_start (Block.header_of_body e.body);
          Offsets.remove t.by_end (Block.header_of_body e.body + e.capacity)
        end)
  in
  for i = 0 to t.used_len - 1 do
    let bin = t.used.(i) in
    if bin <= exact_max then begin
      drop t.exact.(bin);
      t.exact.(bin) <- []
    end
    else begin
      let b = bin - exact_max - 1 in
      drop t.coarse.(b);
      t.coarse.(b) <- []
    end;
    Bytes.unsafe_set t.bin_mark bin '\000'
  done;
  if not few then begin
    Offsets.reset t.by_start;
    Offsets.reset t.by_end
  end;
  t.used_len <- 0;
  t.free_words <- 0;
  t.entries <- 0

let bucket_of capacity =
  let rec log2 n acc = if n <= exact_max then acc else log2 (n lsr 1) (acc + 1) in
  min (buckets - 1) (log2 capacity 0)

let start_of e = Block.header_of_body e.body
let end_of e = Block.header_of_body e.body + e.capacity

let unhash t e =
  Offsets.remove t.by_start (start_of e);
  Offsets.remove t.by_end (end_of e)

(* Remove a live entry that is being merged into a larger one.  Its bin
   cell stays behind marked dead and is dropped when a take reaches it. *)
let kill t e =
  unhash t e;
  e.dead <- true;
  t.free_words <- t.free_words - e.capacity;
  t.entries <- t.entries - 1

let bin_insert t e =
  if e.capacity <= exact_max then begin
    use t e.capacity;
    t.exact.(e.capacity) <- e :: t.exact.(e.capacity)
  end
  else begin
    let b = bucket_of e.capacity in
    use t (exact_max + 1 + b);
    t.coarse.(b) <- e :: t.coarse.(b)
  end;
  Offsets.replace t.by_start (start_of e) e;
  Offsets.replace t.by_end (end_of e) e;
  t.free_words <- t.free_words + e.capacity;
  t.entries <- t.entries + 1

let insert t ~body ~capacity =
  if capacity >= Block.min_capacity then begin
    let start = Block.header_of_body body in
    let fin = start + capacity in
    (* merge with the physically adjacent free extents, if any; the
       lists never hold two adjacent live extents, so one probe per
       side is exhaustive *)
    let fin =
      match Offsets.find_opt t.by_start fin with
      | Some succ ->
          kill t succ;
          t.coalesces <- t.coalesces + 1;
          end_of succ
      | None -> fin
    in
    let start =
      match Offsets.find_opt t.by_end start with
      | Some pred ->
          kill t pred;
          t.coalesces <- t.coalesces + 1;
          start_of pred
      | None -> start
    in
    bin_insert t
      { body = Block.body_of_header start; capacity = fin - start; dead = false }
  end

let free_words t = t.free_words
let live_entries t = t.entries
let coalesces t = t.coalesces

let take t e =
  unhash t e;
  t.free_words <- t.free_words - e.capacity;
  t.entries <- t.entries - 1;
  Some e

(* Take a block of exactly [capacity] words if one is on an exact bin. *)
let take_exact t capacity =
  if capacity > exact_max then None
  else begin
    (* drop dead cells left behind by coalescing *)
    let rec pop = function
      | e :: rest when e.dead ->
          t.exact.(capacity) <- rest;
          pop rest
      | e :: rest ->
          t.exact.(capacity) <- rest;
          take t e
      | [] -> None
    in
    pop t.exact.(capacity)
  end

(* First-fit search of the coarse buckets for a block of at least
   [capacity] words.  The found block is removed; the caller splits. *)
let take_at_least t capacity =
  let found = ref None in
  let b = ref (bucket_of capacity) in
  while !found = None && !b < buckets do
    let keep = ref [] in
    let rec scan = function
      | [] -> ()
      | e :: rest when e.dead -> scan rest
      | e :: rest ->
          if !found = None && e.capacity >= capacity then begin
            found := take t e;
            keep := List.rev_append !keep rest
          end
          else begin
            keep := e :: !keep;
            scan rest
          end
    in
    scan t.coarse.(!b);
    t.coarse.(!b) <- List.rev !keep;
    incr b
  done;
  (* Fall back to scavenging larger exact bins. *)
  if !found = None && capacity <= exact_max then begin
    let c = ref capacity in
    while !found = None && !c <= exact_max do
      (match take_exact t !c with
      | Some _ as e -> found := e
      | None -> ());
      incr c
    done
  end;
  !found

let iter t fn =
  let live l = List.iter (fun e -> if not e.dead then fn e) l in
  Array.iter live t.exact;
  Array.iter live t.coarse
