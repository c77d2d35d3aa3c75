(* The run shared by every workload that drives durable structures with
   a stream of ops (map-upsert, map-lookup, queue-churn, serve-zipf).

   Set-up builds the workload [setups] times; builds are deterministic,
   so they are identical.  Every structure lives in root slot 0 of its
   heap(s).  With [rollback], the benchmark keeps a reference to each
   set-up version and swings the roots back before every round (one
   CommitSingle per heap, outside the timed part), so rounds are equal
   work on an equal image however many fit in the run.

   Round [r] runs op stream [r]; rounds [0, sim_rounds) are the
   deterministic prefix every simulated metric comes from.  The
   untraced run keeps only the measured build alive while it runs
   rounds for [seconds].  The traced run keeps three builds and plays
   the prefix three ways -- "main" under the layer ledger, "twin" plain,
   "spare" with telemetry toggled -- so the simulated tracing overhead
   is exact and telemetry must leave the simulated clock bit-identical;
   it then alternates the three ways on main with fresh streams until
   [seconds] have passed.  Host comparisons take the fastest round of
   each way.

   The final image is one more build, made after set-up and given op
   stream 0: its last root swing is still unfenced, so the seeded crash
   may or may not keep it, and the recovered state must match the model
   with or without that op.  Its crash-and-recover cycles are
   interleaved with the rounds that run for [seconds]. *)

let slot = 0

type sizes = {
  round_ops : int;  (** ops per round *)
  sim_rounds : int;  (** rounds in the deterministic prefix *)
  setups : int;  (** builds timed at set-up, at least 3 *)
}

type 'i spec = {
  build : unit -> 'i;
  heaps : 'i -> Pmalloc.Heap.t list;
  rollback : bool;
  prepare : int -> unit;
      (** make op stream [r] current and reset the model to the set-up
          state *)
  op : 'i -> int -> unit;  (** op [i] of the current stream; raising = failed *)
  traced_op : Measure.Ledger.t -> 'i -> int -> unit;
      (** the same op, every layer call inside a ledger span *)
  check_round : unit -> int;
      (** compare the round's buffered results with the model, advance
          the model by the round's writes; returns the mismatches *)
  toggle_telemetry : 'i -> bool -> unit;
      (** [true]: switch telemetry away from its shipped setting;
          [false]: restore it *)
  collector_shipped : bool;  (** the workload ships with collectors attached *)
  check_main : 'i -> int * int;
      (** end-of-run check of the measured build: (mismatches, checks) *)
  final_ops : 'i -> unit;  (** op stream 0, outside any round *)
  elements : 'i -> int;  (** live elements (keys, queue entries) *)
  check_recovered : 'i -> int * int;
      (** the recovered final image against the model window:
          (mismatches, checks) *)
}

(* One build with its rollback bases. *)
type 'i build = {
  inst : 'i;
  heaps : Pmalloc.Heap.t list;
  stats : Pmem.Stats.t array;
  bases : Pmem.Word.t list;
}

let prepare_build (spec : _ spec) inst =
  let heaps = spec.heaps inst in
  let bases = List.map (fun h -> Pmalloc.Heap.root_get h slot) heaps in
  List.iter2 (fun h b -> Pmalloc.Heap.retain h (Pmem.Word.to_ptr b)) heaps bases;
  { inst; heaps; stats = Array.of_list (List.map Pmalloc.Heap.stats heaps); bases }

(* Swing each root back to its retained set-up version, taking a fresh
   reference for the slot (ours stays) and releasing the current one. *)
let rollback b =
  List.iter2
    (fun h base ->
      Pmalloc.Heap.retain h (Pmem.Word.to_ptr base);
      Mod_core.Commit.single h ~slot base)
    b.heaps b.bases

(* The Commit half of a traced single-structure FASE, replaying
   [Commit.single] from outside with one span per layer: the ordering
   fence, the root swing (whose own fence now drains nothing), and
   reclamation of the superseded version.  The tracing overhead is that
   extra empty fence and one root read per op. *)
let traced_commit ledger heap shadow =
  let span l f = Measure.Ledger.span ledger l (Pmalloc.Heap.stats heap) f in
  span Measure.Fence (fun () -> Pmalloc.Heap.sfence heap);
  let old =
    span Measure.Commit (fun () ->
        let old = Pmalloc.Heap.root_get heap slot in
        Mod_core.Commit.single ~reclaim:false heap ~slot shadow;
        old)
  in
  span Measure.Reclaim (fun () -> Mod_core.Commit.release_version heap old)

(* The final image, counted before its first crash. *)
type 'i final = {
  image : 'i;
  recoverer : Pm.recoverer;
  keys : int;  (** live elements *)
  words_per_key : float;
  pad_words : int;
}

type round = {
  host_s : float;
  sim_ns : float;
  ops : int;
  counts : Pm.counts;
  per_heap : float array;  (** simulated ns each heap's clock advanced *)
}

let run sz (spec : _ spec) ~seed ~seconds ~traced =
  let n = sz.round_ops in
  let lat = Array.make n 0.0 in
  let failed = ref 0 and attempted = ref 0 in
  let round ?ledger ?(toggle = false) b r =
    spec.prepare r;
    if spec.rollback then rollback b;
    if toggle then spec.toggle_telemetry b.inst true;
    let clock () =
      let s = ref 0.0 in
      for j = 0 to Array.length b.stats - 1 do
        s := !s +. b.stats.(j).Pmem.Stats.now_ns
      done;
      !s
    in
    let before = Pm.counts b.heaps in
    let sim0 = Array.map (fun s -> s.Pmem.Stats.now_ns) b.stats in
    let t0 = Measure.host_s () in
    (match ledger with
    | None ->
        for i = 0 to n - 1 do
          let s0 = clock () in
          (try spec.op b.inst i with _ -> incr failed);
          lat.(i) <- clock () -. s0
        done
    | Some l ->
        for i = 0 to n - 1 do
          try spec.traced_op l b.inst i with _ -> incr failed
        done);
    let host_s = Measure.host_s () -. t0 in
    let per_heap = Array.mapi (fun j s -> s.Pmem.Stats.now_ns -. sim0.(j)) b.stats in
    let counts = Pm.combine ( - ) (Pm.counts b.heaps) before in
    if toggle then spec.toggle_telemetry b.inst false;
    failed := !failed + spec.check_round ();
    attempted := !attempted + n;
    { host_s; sim_ns = Array.fold_left ( +. ) 0.0 per_heap; ops = n; counts; per_heap }
  in
  let per_op x = x.host_s /. float_of_int x.ops in
  (* The timed set-up builds, then the final image and its counts. *)
  let set_up ~keep =
    let builds, setup_s =
      Measure.setups sz.setups ~keep (fun () -> prepare_build spec (spec.build ()))
    in
    let image = spec.build () in
    spec.final_ops image;
    let heaps = spec.heaps image in
    let keys = spec.elements image in
    let final =
      {
        image;
        recoverer = Pm.recoverer ~seed heaps;
        keys;
        words_per_key = float_of_int (Pm.live_words heaps) /. float_of_int (max 1 keys);
        pad_words = Pm.pad_words heaps;
      }
    in
    Gc.compact ();
    (builds, setup_s, final)
  in
  (* the rounds' host seconds so far, for [Pm.keep_up] *)
  let elapsed = ref 0.0 in
  let main, final, metrics, problems =
    if not traced then begin
      let builds, setup_s, final = set_up ~keep:1 in
      let main = List.hd builds in
      let samples = Measure.Samples.create (sz.sim_rounds * n) in
      let host =
        Measure.rounds ~min_rounds:sz.sim_rounds ~seconds (fun r ->
            let x = round main r in
            if r < sz.sim_rounds then Array.iter (Measure.Samples.add samples) lat;
            elapsed := !elapsed +. x.host_s;
            Pm.keep_up final.recoverer ~elapsed:!elapsed;
            per_op x)
      in
      let lat = Measure.Samples.to_array samples in
      ( main,
        final,
        Report.end_to_end ~lat ~host ~setup_s ~words_per_key:final.words_per_key
          ~recovery:(Pm.recovered final.recoverer),
        [] )
    end
    else begin
      let builds, _, final = set_up ~keep:3 in
      let main, spare, twin =
        match builds with
        | a :: b :: c :: _ -> (a, b, c)
        | _ -> invalid_arg "Streams.run: sizes.setups < 3"
      in
      let t0 = Measure.host_s () in
      let ledger = Measure.Ledger.create () in
      let traced_sim = ref 0.0 and plain_sim = ref 0.0 and toggled_sim = ref 0.0 in
      let traced_host = ref 0.0 and traced_ops = ref 0 in
      let best = Array.make 3 Float.infinity in
      let note i x =
        best.(i) <- Float.min best.(i) (per_op x);
        x
      in
      let traced_round r =
        Measure.Ledger.cut ledger;
        let x = note 0 (round ~ledger main r) in
        traced_host := !traced_host +. x.host_s;
        traced_ops := !traced_ops + x.ops;
        x
      in
      let counted = ref Pm.zero in
      let heap_sim = Array.make (List.length main.heaps) 0.0 in
      for r = 0 to sz.sim_rounds - 1 do
        traced_sim := !traced_sim +. (traced_round r).sim_ns;
        let y = note 1 (round twin r) in
        plain_sim := !plain_sim +. y.sim_ns;
        counted := Pm.combine ( + ) !counted y.counts;
        Array.iteri (fun j d -> heap_sim.(j) <- heap_sim.(j) +. d) y.per_heap;
        toggled_sim := !toggled_sim +. (note 2 (round ~toggle:true spare r)).sim_ns
      done;
      let layer_sim = Array.copy ledger.Measure.Ledger.sim in
      let traced_sim_all = ref !traced_sim in
      ignore
        (Measure.rounds ~min_rounds:0
           ~seconds:(seconds -. (Measure.host_s () -. t0))
           (fun i ->
             let r = sz.sim_rounds + i in
             let x =
               match i mod 3 with
               | 0 ->
                   let x = traced_round r in
                   traced_sim_all := !traced_sim_all +. x.sim_ns;
                   x
               | 1 -> note 1 (round main r)
               | _ -> note 2 (round ~toggle:true main r)
             in
             elapsed := !elapsed +. x.host_s;
             Pm.keep_up final.recoverer ~elapsed:!elapsed;
             x.host_s));
      let problems =
        Report.identities ledger ~sim_total:!traced_sim_all ~host_total:!traced_host
        @
        if !toggled_sim <> !plain_sim then
          [
            Printf.sprintf "toggling telemetry moved the sim clock: %.3f ns vs %.3f"
              !toggled_sim !plain_sim;
          ]
        else []
      in
      let on, off =
        if spec.collector_shipped then (best.(1), best.(2)) else (best.(2), best.(1))
      in
      let total = Array.fold_left ( +. ) 0.0 heap_sim in
      let busiest = Array.fold_left Float.max 0.0 heap_sim in
      ( main,
        final,
        Report.per_layer
          {
            Report.ledger;
            layer_sim;
            traced_sim_ns = !traced_sim;
            traced_sim_ops = sz.sim_rounds * n;
            plain_sim_ns = !plain_sim;
            traced_host_s = !traced_host;
            traced_ops = !traced_ops;
            traced_host_per_op = best.(0);
            plain_host_per_op = best.(1);
            telemetry_pct = Report.pct (on -. off) on;
            counted = !counted;
            counted_ops = sz.sim_rounds * n;
            keys = final.keys;
            pad_words = final.pad_words;
            recovery = Pm.recovered final.recoverer;
            imbalance = busiest *. float_of_int (Array.length heap_sim) /. total;
            max_share = busiest /. total;
            points = 0;
            samples = 0;
            sweep_host_pct = [];
          },
        problems )
    end
  in
  let bad, checks = spec.check_main main.inst in
  failed := !failed + bad;
  attempted := !attempted + checks;
  let bad, checks = spec.check_recovered final.image in
  failed := !failed + bad;
  attempted := !attempted + checks;
  { Measure.attempted = !attempted; failed = !failed; metrics; problems }
