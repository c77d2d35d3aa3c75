(* crash-sweep: the crash explorer over the sweeps every change pays
   for -- sequential [Explorer.explore] over map, queue and vec at [ops]
   ops, [Explorer.explore_concurrent] over cmap with [writers] x [cops],
   and the map-nofence negative control at [nofence_ops] -- with the
   default config and the run's seed as the master survival seed.

   An op here is one crash sample (a crash, a recovery and an oracle
   check); its simulated latency is the recovery it simulates, and the
   recovery metrics are those of every sample's recovery.  Host time per
   op is per crash point, the inverse of points/s.  The sweep itself is
   deterministic, so every round repeats the same points and samples:
   round 0 is the deterministic prefix. *)

module W = Crashtest.Workload
module E = Crashtest.Explorer

type sizes = {
  ops : int;
  writers : int;
  cops : int;
  nofence_ops : int;
  setups : int;
}

(* What the wrapped workload instances report, per layer. *)
type probe = {
  ledger : Measure.Ledger.t option;  (** traced rounds: host and sim spans *)
  sim : float array;  (** simulated ns per layer *)
  lat : Measure.Samples.t option;  (** per-sample recovery latencies *)
  mutable counts : Pm.counts option;  (** PM work of re-executed ops *)
  mutable starts : float list;
      (** host ns at each re-execution's start (one per crash point),
          newest first *)
  mutable recoveries : int;
  mutable rec_host_ns : float;  (** host time of every recovery *)
  mutable rec_words : int;  (** words live after each recovery, summed *)
}

let probe ?ledger ?lat ?(count = false) () =
  {
    ledger;
    sim = Array.make (List.length Measure.layers) 0.0;
    lat;
    counts = (if count then Some Pm.zero else None);
    starts = [];
    recoveries = 0;
    rec_host_ns = 0.0;
    rec_words = 0;
  }

(* The mean of the sweep's own recoveries. *)
let recovery p =
  let n = max 1 p.recoveries in
  {
    Pm.rec_sim_ns = p.sim.(Measure.layer_index Measure.Recovery) /. float_of_int n;
    rec_host_s = p.rec_host_ns *. 1e-9 /. float_of_int n;
    live_words = p.rec_words / n;
  }

(* Run [f] as a call into [layer] on [heap]: its simulated time always
   goes to the probe, its host time too when traced.  The explorer
   rewinds the region's clock between samples, so spans never compare
   clocks across calls ([Ledger.cut]). *)
let call p layer heap f x =
  let st = Pmalloc.Heap.stats heap in
  let before = Option.map (fun _ -> Pm.counts [ heap ]) p.counts in
  let s0 = st.Pmem.Stats.now_ns and h0 = Measure.host_ns () in
  let r =
    match p.ledger with
    | None -> f x
    | Some l ->
        Measure.Ledger.cut l;
        Measure.Ledger.span l layer st (fun () -> f x)
  in
  let h1 = Measure.host_ns () in
  let d = st.Pmem.Stats.now_ns -. s0 in
  let i = Measure.layer_index layer in
  p.sim.(i) <- p.sim.(i) +. d;
  if layer = Measure.Recovery then begin
    p.recoveries <- p.recoveries + 1;
    p.rec_host_ns <- p.rec_host_ns +. (h1 -. h0);
    p.rec_words <- p.rec_words + Pmalloc.Allocator.live_words (Pmalloc.Heap.allocator heap);
    Option.iter (fun s -> Measure.Samples.add s d) p.lat
  end;
  (match (before, p.counts) with
  | Some b, Some c -> p.counts <- Some (Pm.combine ( + ) c (Pm.combine ( - ) (Pm.counts [ heap ]) b))
  | _ -> ());
  r

let instrument p (w : W.t) =
  {
    w with
    W.make =
      (fun heap ->
        p.starts <- Measure.host_ns () :: p.starts;
        let i = w.W.make heap in
        {
          W.init = call p Reexec heap i.W.init;
          run_op = call p Reexec heap i.W.run_op;
          dump = call p Check heap i.W.dump;
          recover = call p Recovery heap i.W.recover;
        });
  }

(* The concurrent writers are fibers preempted at every PM event, so
   only their recovery and read-back are spans; re-execution stays
   unattributed. *)
let instrument_concurrent p (w : W.ct) =
  {
    w with
    W.cmake =
      (fun heap ->
        p.starts <- Measure.host_ns () :: p.starts;
        let i = w.W.cmake heap in
        {
          i with
          W.c_dump = call p Check heap i.W.c_dump;
          c_recover = call p Recovery heap i.W.c_recover;
        });
  }

type sweep = Seq of W.t | Conc of W.ct

let sweep_name = function Seq w -> w.W.name | Conc w -> w.W.cname

type outcome = {
  points : int;
  samples : int;
  failed : int;  (** oracle failures on positive sweeps, and a silent negative *)
  host_s : float array;  (** per sweep *)
  segments : float array;
      (** host ns between consecutive re-execution starts, all sweeps in
          order: the same segments, doing the same work, every round *)
}

let cfg ~seed = { E.default with E.seed }

(* One round: every sweep once, each timed on its own. *)
let round ~seed sweeps p =
  let points = ref 0 and samples = ref 0 and failed = ref 0 in
  let segments = ref [] in
  let host_s =
    Array.of_list
      (List.map
         (fun s ->
           p.starts <- [];
           let t0 = Measure.host_ns () in
           let (pts, smp, fails, negative), host =
             Measure.timed (fun () ->
                 match s with
                 | Seq w ->
                     let r = E.explore ~cfg:(cfg ~seed) (instrument p w) in
                     (r.E.points_tested, r.E.crashes_sampled, List.length r.E.failures,
                      w.W.negative)
                 | Conc w ->
                     let r = E.explore_concurrent ~cfg:(cfg ~seed) (instrument_concurrent p w) in
                     (r.E.cr_points_tested, r.E.cr_crashes_sampled,
                      List.length r.E.cr_failures, w.W.cnegative))
           in
           let edges = Array.of_list (t0 :: List.rev (Measure.host_ns () :: p.starts)) in
           segments :=
             Array.init (Array.length edges - 1) (fun i -> edges.(i + 1) -. edges.(i))
             :: !segments;
           points := !points + pts;
           samples := !samples + smp;
           (* a negative control must be caught; one that is not fails
              every sample it took *)
           failed := !failed + (if negative then (if fails = 0 then smp else 0) else fails);
           host)
         sweeps)
  in
  {
    points = !points;
    samples = !samples;
    failed = !failed;
    host_s;
    segments = Array.concat (List.rev !segments);
  }

let sweeps sz =
  [
    Seq (W.build "map" ~ops:sz.ops);
    Seq (W.build "queue" ~ops:sz.ops);
    Seq (W.build "vec" ~ops:sz.ops);
    Conc (W.cbuild "cmap" ~writers:sz.writers ~ops:sz.cops);
    Seq (W.build "map-nofence" ~ops:sz.nofence_ops);
  ]

(* -- the final image ------------------------------------------------------ *)

module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)

(* The sequential sweeps' uncrashed executions: each heap's last root
   swing is still unfenced. *)
let final_heaps sweeps =
  List.filter_map
    (function
      | Seq w when not w.W.negative -> (
          match E.run_until E.default w ~budget:None with
          | `Completed (_, heap) -> Some (w, heap)
          | `Crashed _ -> None)
      | _ -> None)
    sweeps

(* Live elements of a recovered sequential workload, through the
   structure the registry puts in slot 0. *)
let elements (w : W.t) heap =
  let h = Mod_core.Handle.make heap ~slot:0 in
  match w.W.name with
  | "map" -> Imap.cardinal h
  | "queue" -> Mod_core.Dqueue.length h
  | "vec" -> Mod_core.Dvec.size h
  | name -> invalid_arg ("Sweep_bench.elements: " ^ name)

(* The oracle's verdict on a recovered final image: the last or the
   penultimate distinct committed state. *)
let check_final (w : W.t) heap =
  let history =
    Array.fold_left
      (fun acc s -> match acc with h :: _ when h = s -> acc | _ -> s :: acc)
      [] w.W.model
  in
  let recovered = try Ok ((w.W.make heap).W.dump ()) with e -> Error e in
  Crashtest.Oracle.is_consistent
    (Crashtest.Oracle.check ~history ~pending:None ~recovered)

let run sz ~seed ~seconds ~traced =
  let built, setup_s =
    Measure.setups sz.setups ~keep:1 (fun () ->
        let s = sweeps sz in
        (s, final_heaps s))
  in
  let sweeps, finals = List.hd built in
  assert (List.map sweep_name sweeps = Metrics.sweep_names);
  (* The sweep's structures report their space in their final images. *)
  let heaps = List.map snd finals in
  let keys = List.fold_left (fun acc (w, heap) -> acc + elements w heap) 0 finals in
  let words_per_key = float_of_int (Pm.live_words heaps) /. float_of_int (max 1 keys) in
  let pad_words = Pm.pad_words heaps in
  Gc.full_major ();
  let attempted = ref 0 and failed = ref 0 in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  let round p =
    let o = round ~seed sweeps p in
    attempted := !attempted + o.samples;
    failed := !failed + o.failed;
    o
  in
  let per_point (o : outcome) = sum o.host_s /. float_of_int o.points in
  (* Rounds repeat the same crash points and recoveries; host times are
     those of the fastest round. *)
  let rec_host = ref Float.infinity in
  let plain_round p =
    let o = round p in
    rec_host := Float.min !rec_host (recovery p).Pm.rec_host_s;
    o
  in
  let recovery p = { (recovery p) with Pm.rec_host_s = !rec_host } in
  let metrics, problems =
    if not traced then begin
      (* The host time per point is taken segment by segment: each
         segment's fastest round. *)
      let lat = Measure.Samples.create 4096 in
      let first = probe ~lat () in
      let fastest = ref [||] and points = ref 0 and mismatch = ref false in
      ignore
        (Measure.rounds ~min_rounds:1 ~seconds (fun r ->
             let o = plain_round (if r = 0 then first else probe ()) in
             if r = 0 then begin
               fastest := o.segments;
               points := o.points
             end
             else if Array.length o.segments <> Array.length !fastest then mismatch := true
             else Array.iteri (fun i d -> !fastest.(i) <- Float.min !fastest.(i) d) o.segments;
             sum o.host_s));
      let host = [| sum !fastest *. 1e-9 /. float_of_int !points |] in
      let lat = Measure.Samples.to_array lat in
      ( Report.end_to_end ~lat ~host ~setup_s ~words_per_key ~recovery:(recovery first),
        if !mismatch then [ "rounds re-executed different crash points" ] else [] )
    end
    else begin
      (* The prefix is round 0 played traced, then plain; the two then
         alternate until [seconds] have passed. *)
      let t0 = Measure.host_s () in
      let ledger = Measure.Ledger.create () in
      let traced = probe ~ledger () in
      let o = round traced in
      let layer_sim = Array.copy traced.sim in
      let plain = probe ~count:true () in
      let q = plain_round plain in
      let traced_host = ref (sum o.host_s) and traced_rounds = ref 1 in
      let plain_host = Array.copy q.host_s in
      let best = [| per_point o; per_point q |] in
      ignore
        (Measure.rounds ~min_rounds:0
           ~seconds:(seconds -. (Measure.host_s () -. t0))
           (fun i ->
             let x =
               if i mod 2 = 0 then begin
                 let x = round (probe ~ledger ()) in
                 traced_host := !traced_host +. sum x.host_s;
                 incr traced_rounds;
                 x
               end
               else begin
                 let x = plain_round (probe ()) in
                 Array.iteri (fun j h -> plain_host.(j) <- plain_host.(j) +. h) x.host_s;
                 x
               end
             in
             best.(i mod 2) <- Float.min best.(i mod 2) (per_point x);
             sum x.host_s));
      ( Report.per_layer
        {
          Report.ledger;
          layer_sim;
          traced_sim_ns = sum layer_sim;
          traced_sim_ops = o.samples;
          plain_sim_ns = sum plain.sim;
          traced_host_s = !traced_host;
          traced_ops = !traced_rounds * o.points;
          traced_host_per_op = best.(0);
          plain_host_per_op = best.(1);
          telemetry_pct = 0.0;
          counted = Option.get plain.counts;
          counted_ops = q.samples;
          keys;
          pad_words;
          recovery = recovery plain;
          imbalance = 1.0;
          max_share = 1.0;
          points = o.points;
          samples = o.samples;
          sweep_host_pct =
            Array.to_list (Array.map (fun h -> Report.pct h (sum plain_host)) plain_host);
        },
        Report.identities ledger ~sim_total:(sum ledger.Measure.Ledger.sim)
          ~host_total:!traced_host )
    end
  in
  List.iter
    (fun (w, heap) ->
      Pmalloc.Heap.crash ~mode:Pmem.Region.Randomize ~seed heap;
      ignore (Mod_core.Recovery.recover_exn heap);
      if not (check_final w heap) then incr failed)
    finals;
  attempted := !attempted + List.length finals;
  { Measure.attempted = !attempted; failed = !failed; metrics; problems }
