(* serve-zipf: the sharded serving layer in Inline mode, memcached
   shape (16-byte keys, 512-byte values), zipfian (theta 0.99) keys over
   [keyspace], 95% sets.  Set-up is [warmup] requests; every request
   goes through [Shard.submit], with the per-shard telemetry collectors
   the layer ships with attached.  A request's simulated latency is its
   owning shard's clock. *)

let slot = Streams.slot

let value_pool ~seed =
  let rng = Random.State.make [| seed; -3 |] in
  Array.init 64 (fun _ -> String.init 512 (fun _ -> Char.chr (33 + Random.State.int rng 94)))

(* Stream [r] (the warmup is stream -1): zipfian keys, 5% gets. *)
let stream ~seed ~keyspace ~pool ~ops r =
  let z = Shard.Router.zipf ~seed:(Hashtbl.hash (seed, r)) ~n:keyspace () in
  let mix = Random.State.make [| seed; r; -4 |] in
  Array.init ops (fun _ ->
      let k = Shard.Router.key_of_index (Shard.Router.next z) in
      if Random.State.int mix 100 < 5 then Shard.Get k
      else Shard.Set (k, pool.(Random.State.int mix (Array.length pool))))

let build ~nshards warm =
  let t = Shard.create ~mode:Shard.Inline ~capacity_words:(1 lsl 20) ~nshards () in
  Array.iter (Shard.apply t) warm;
  t

(* -- the volatile model ---------------------------------------------------- *)

let apply_sets tbl reqs =
  Array.iter (function Shard.Set (k, v) -> Hashtbl.replace tbl k v | Shard.Get _ -> ()) reqs

(* [Shard.dump]'s rendering of the model's keys owned by [owner]
   (all keys when [None]). *)
let render ~nshards ?owner tbl =
  Hashtbl.fold
    (fun k v acc ->
      match owner with
      | Some i when Shard.Router.shard_of_key ~nshards k <> i -> acc
      | _ -> (k, v) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat ";"

(* -- the traced request ---------------------------------------------------- *)

(* [Shard.submit] is one span on the owning shard's clock; the fence
   drain inside it is the Flush-phase time the region's own stats
   charge, moved to the fence layer. *)
let traced_submit ledger t req =
  let nshards = Shard.nshards t in
  let owner = Shard.Router.shard_of_key ~nshards (Shard.key_of req) in
  let st = Pmalloc.Heap.stats (Shard.heap t owner) in
  let f0 = st.Pmem.Stats.ns_flush in
  Measure.Ledger.span ledger Shard st (fun () -> Shard.submit t req);
  let drain = st.Pmem.Stats.ns_flush -. f0 in
  Measure.Ledger.add ledger Fence ~sim:drain ~host:0.0;
  Measure.Ledger.add ledger Shard ~sim:(-.drain) ~host:0.0

let spec ~nshards ~keyspace ~warmup ~ops ~seed =
  let pool = value_pool ~seed in
  let warm = stream ~seed ~keyspace ~pool ~ops:warmup (-1) in
  let base = Hashtbl.create keyspace in
  apply_sets base warm;
  let model = Hashtbl.create keyspace in
  let s = ref [||] in
  let s0 = stream ~seed ~keyspace ~pool ~ops 0 in
  let heaps t = List.init (Shard.nshards t) (Shard.heap t) in
  {
    Streams.build = (fun () -> build ~nshards warm);
    heaps;
    rollback = true;
    prepare =
      (fun r ->
        Hashtbl.reset model;
        Hashtbl.iter (Hashtbl.replace model) base;
        s := stream ~seed ~keyspace ~pool ~ops r);
    op = (fun t j -> Shard.submit t !s.(j));
    traced_op = (fun l t j -> traced_submit l t !s.(j));
    check_round =
      (fun () ->
        apply_sets model !s;
        0);
    toggle_telemetry =
      (fun t off ->
        List.iteri
          (fun i h ->
            Pmalloc.Heap.set_telemetry h
              (if off then None else Some (Shard.collector t i)))
          (heaps t));
    collector_shipped = true;
    check_main = (fun t -> ((if Shard.dump_all t = render ~nshards model then 0 else 1), 1));
    final_ops = (fun t -> Array.iter (Shard.submit t) s0);
    elements =
      (fun t ->
        List.fold_left
          (fun acc h -> acc + Shard.Kv.cardinal (Shard.Kv.open_or_create h ~slot))
          0 (heaps t));
    check_recovered =
      (fun t ->
        (* each shard's last set is still unfenced: per shard, the
           model with or without it *)
        let after = Hashtbl.copy base in
        apply_sets after s0;
        let bad = ref 0 in
        for i = 0 to nshards - 1 do
          let last = ref (-1) in
          Array.iteri
            (fun j req ->
              match req with
              | Shard.Set (k, _) when Shard.Router.shard_of_key ~nshards k = i -> last := j
              | _ -> ())
            s0;
          let before = Hashtbl.copy base in
          apply_sets before (Array.sub s0 0 (max 0 !last));
          let got = Shard.dump t i in
          if got <> render ~nshards ~owner:i after && got <> render ~nshards ~owner:i before
          then incr bad
        done;
        (!bad, nshards));
  }

let zipf sizes ~nshards ~keyspace ~warmup ~seed ~seconds ~traced =
  Streams.run sizes
    (spec ~nshards ~keyspace ~warmup ~ops:sizes.Streams.round_ops ~seed)
    ~seed ~seconds ~traced
