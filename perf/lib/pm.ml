(* What the benchmark reads from the heaps it drives: PM and allocator
   counters, and the crash + recovery of a workload's final image. *)

type counts = {
  loads : int;
  stores : int;
  clwbs : int;
  fences : int;
  drained : int;  (** lines drained by fences *)
  l1_hits : int;
  l1_misses : int;
  allocs : int;
  frees : int;
  fresh_words : int;  (** words handed out by the allocator *)
}

let zero =
  {
    loads = 0;
    stores = 0;
    clwbs = 0;
    fences = 0;
    drained = 0;
    l1_hits = 0;
    l1_misses = 0;
    allocs = 0;
    frees = 0;
    fresh_words = 0;
  }

let combine f a b =
  {
    loads = f a.loads b.loads;
    stores = f a.stores b.stores;
    clwbs = f a.clwbs b.clwbs;
    fences = f a.fences b.fences;
    drained = f a.drained b.drained;
    l1_hits = f a.l1_hits b.l1_hits;
    l1_misses = f a.l1_misses b.l1_misses;
    allocs = f a.allocs b.allocs;
    frees = f a.frees b.frees;
    fresh_words = f a.fresh_words b.fresh_words;
  }

let counts heaps =
  List.fold_left
    (fun c heap ->
      let s = Pmalloc.Heap.stats heap and a = Pmalloc.Heap.allocator heap in
      combine ( + ) c
        {
          loads = s.Pmem.Stats.loads;
          stores = s.Pmem.Stats.stores;
          clwbs = s.Pmem.Stats.clwbs;
          fences = s.Pmem.Stats.fences;
          drained = s.Pmem.Stats.lines_drained;
          l1_hits = s.Pmem.Stats.l1_hits;
          l1_misses = s.Pmem.Stats.l1_misses;
          allocs = Pmalloc.Allocator.allocations a;
          frees = Pmalloc.Allocator.frees a;
          fresh_words = Pmalloc.Allocator.alloc_words_total a;
        })
    zero heaps

let sim_now heaps =
  List.fold_left
    (fun acc h -> acc +. (Pmalloc.Heap.stats h).Pmem.Stats.now_ns)
    0.0 heaps

let sum_allocator f heaps =
  List.fold_left (fun acc h -> acc + f (Pmalloc.Heap.allocator h)) 0 heaps

let live_words = sum_allocator Pmalloc.Allocator.live_words
let pad_words = sum_allocator Pmalloc.Allocator.pad_words

(* -- the final image ------------------------------------------------------ *)

type recovery = {
  rec_sim_ns : float;  (** simulated time of the first recovery *)
  rec_host_s : float;  (** fastest host time over the cycles *)
  live_words : int;  (** words reachable after the first recovery *)
}

(* Crash-and-recover cycles of a final image.  The first crash is
   [Randomize] with a survival seed derived from the run's seed, so
   whether the last, still unfenced root swing survives is part of the
   input; recovery writes nothing durable, so later cycles redo the same
   work and only sharpen the host time.  The cycles are interleaved with
   a run's rounds, so their fastest is picked from the whole run. *)
type recoverer = {
  heaps : Pmalloc.Heap.t list;
  seed : int;
  mutable result : recovery option;
  mutable cycles : int;
  mutable spent_s : float;  (** host time of every cycle *)
}

let recoverer ~seed heaps = { heaps; seed; result = None; cycles = 0; spent_s = 0.0 }

let cycle t =
  List.iter
    (fun h -> Pmalloc.Heap.crash ~mode:Pmem.Region.Randomize ~seed:(t.seed + t.cycles) h)
    t.heaps;
  let sim0 = sim_now t.heaps in
  let reports, host =
    Measure.timed (fun () -> List.map Mod_core.Recovery.recover_exn t.heaps)
  in
  t.cycles <- t.cycles + 1;
  t.spent_s <- t.spent_s +. host;
  t.result <-
    Some
      (match t.result with
      | Some r -> { r with rec_host_s = Float.min r.rec_host_s host }
      | None ->
          {
            rec_sim_ns = sim_now t.heaps -. sim0;
            rec_host_s = host;
            live_words =
              List.fold_left
                (fun acc r -> acc + r.Mod_core.Recovery.gc.Pmalloc.Recovery_gc.live_words)
                0 reports;
          })

(* Run a cycle if the cycles so far took less than a fifth of [elapsed]
   host seconds of rounds. *)
let keep_up t ~elapsed = if t.spent_s < elapsed /. 5.0 then cycle t

(* The recovery measured, after at least one cycle. *)
let recovered t =
  if t.result = None then cycle t;
  Option.get t.result
