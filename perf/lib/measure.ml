(* Clocks, sample statistics, the round loop and the per-layer ledger
   shared by every workload.

   Two clocks are read everywhere: the simulated PM clock
   ([Pmem.Stats.now_ns] of the heap doing the work), which is
   deterministic for a given seed, and the host monotonic clock, which
   is what the simulator itself costs on the host running it. *)

let host_ns () = Int64.to_float (Monotonic_clock.now ())
let host_s () = host_ns () *. 1e-9

(* -- sample statistics ---------------------------------------------------- *)

(* Nearest-rank percentile of an unsorted sample ([q] in (0, 1]). *)
let percentile q xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Measure.percentile: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let median xs = percentile 0.5 xs

let mean xs =
  if Array.length xs = 0 then invalid_arg "Measure.mean: empty sample";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* Mean of the slowest [share] of the sample.  Simulated latencies take
   few distinct values, so an order statistic such as the p99 sits on
   the same value for most inputs and moves in jumps; the tail mean
   moves with every sample in the tail. *)
let tail_mean share xs =
  let n = Array.length xs in
  let k = max 1 (int_of_float (Float.ceil (share *. float_of_int n))) in
  let s = Array.copy xs in
  Array.sort Float.compare s;
  mean (Array.sub s (n - k) k)

let minimum xs = Array.fold_left Float.min Float.infinity xs

(* Growable buffer of per-operation simulated latencies. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create n = { data = Array.make (max 1 n) 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* -- set-up and rounds ---------------------------------------------------- *)

(* Build the workload's initial state [n] times from scratch and return
   the first [keep] builds with the median host seconds one build took.
   Several builds make [setup_s] a median instead of a single noisy
   sample. *)
let setups n ~keep build =
  let kept = ref [] and times = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let t0 = host_s () in
    let x = build () in
    times.(i) <- host_s () -. t0;
    if i < keep then kept := x :: !kept
  done;
  (List.rev !kept, median times)

(* Run [round r] for r = 0, 1, ... until at least [min_rounds] rounds
   have run and [seconds] of host time have passed.  [round] returns the
   host seconds of its own timed part (checks and resets are excluded);
   the array of those is returned. *)
let rounds ~min_rounds ~seconds round =
  let t0 = host_s () in
  let times = ref [] in
  let r = ref 0 in
  while !r < min_rounds || host_s () -. t0 < seconds do
    times := round !r :: !times;
    incr r
  done;
  Array.of_list (List.rev !times)

(* Time [f] on the host clock; returns (result, seconds). *)
let timed f =
  let t0 = host_s () in
  let x = f () in
  (x, host_s () -. t0)

(* -- per-layer ledger ----------------------------------------------------- *)

(* The benchmark's layers, each named by the module whose public call the
   traced run wraps. *)
type layer =
  | Pfds_update  (** pure update: [insert_pure], [enqueue_pure], ... *)
  | Pfds_find  (** [Dmap.find_in] *)
  | Fence  (** [Pmalloc.Heap.sfence] *)
  | Commit  (** root read + [Commit.single ~reclaim:false] *)
  | Reclaim  (** [Commit.release_version] *)
  | Shard  (** [Shard.submit], less the fence stall its collector saw *)
  | Reexec  (** a crash-sweep re-execution of one workload op *)
  | Recovery  (** [Recovery.recover_exn] on a crashed image *)
  | Check  (** reading the recovered state back for the oracle *)

let layers =
  [ Pfds_update; Pfds_find; Fence; Commit; Reclaim; Shard; Reexec; Recovery;
    Check ]

let layer_name = function
  | Pfds_update -> "pfds.update"
  | Pfds_find -> "pfds.find"
  | Fence -> "fence"
  | Commit -> "commit"
  | Reclaim -> "reclaim"
  | Shard -> "shard"
  | Reexec -> "crashtest.reexec"
  | Recovery -> "recovery_gc"
  | Check -> "crashtest.check"

let layer_index l =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = l then i else go (i + 1) rest
  in
  go 0 layers

module Ledger = struct
  type t = {
    sim : float array;  (** simulated ns per layer *)
    host : float array;  (** host ns per layer *)
    mutable edge : (Pmem.Stats.t * float) option;
        (** the clock and its reading where the last span ended *)
    mutable leaks : int;
        (** spans that found simulated time spent since the previous
            span ended: work the ledger attributed to no layer *)
  }

  let create () =
    let n = List.length layers in
    { sim = Array.make n 0.0; host = Array.make n 0.0; edge = None; leaks = 0 }

  (* Forget the previous span's end: the caller is about to do untraced
     PM work (a rollback, a check) that belongs to no op. *)
  let cut t = t.edge <- None

  (* Attribute the simulated and host time of [f] to [layer].  Spans of
     one op are contiguous, so the simulated clock must not move between
     them; a span that finds it moved counts a leak. *)
  let span t layer (stats : Pmem.Stats.t) f =
    let s0 = stats.Pmem.Stats.now_ns in
    (match t.edge with
    | Some (st, e) when st == stats && e <> s0 -> t.leaks <- t.leaks + 1
    | _ -> ());
    let h0 = host_ns () in
    let x = f () in
    let h1 = host_ns () in
    let s1 = stats.Pmem.Stats.now_ns in
    let i = layer_index layer in
    t.sim.(i) <- t.sim.(i) +. (s1 -. s0);
    t.host.(i) <- t.host.(i) +. (h1 -. h0);
    t.edge <- Some (stats, s1);
    x

  (* Charge time measured elsewhere (e.g. by a telemetry collector) to a
     layer. *)
  let add t layer ~sim ~host =
    let i = layer_index layer in
    t.sim.(i) <- t.sim.(i) +. sim;
    t.host.(i) <- t.host.(i) +. host

  let sim_total t = Array.fold_left ( +. ) 0.0 t.sim
  let host_total t = Array.fold_left ( +. ) 0.0 t.host
end

(* -- results -------------------------------------------------------------- *)

type outcome = {
  attempted : int;  (** operations (or crash samples) the run issued *)
  failed : int;  (** ones that raised or returned a wrong result *)
  metrics : (string * float) list;
  problems : string list;
      (** violated self-checks: ledger identities, model mismatches *)
}
