(** Per-operation flush/fence profiling (Figure 10 and the Section 3
    fence analysis).

    For each operation type the paper plots, run a fresh instance,
    prefill it, then measure [samples] operations of exactly that type
    and average the flush and fence counts. *)

type point = {
  label : string;
  backend : Backend.kind;
  flushes : float;
  fences : float;
}

let measure ctx ~samples op =
  let stats = Backend.stats ctx in
  let before = Pmem.Stats.snapshot stats in
  for i = 1 to samples do
    op i
  done;
  let d = Pmem.Stats.diff ~before ~after:(Pmem.Stats.snapshot stats) in
  ( float_of_int d.Pmem.Stats.s_clwbs /. float_of_int samples,
    float_of_int d.Pmem.Stats.s_fences /. float_of_int samples )

let point label backend (flushes, fences) = { label; backend; flushes; fences }

let map_insert backend ~samples ~size =
  let ctx = Backend.create backend in
  let m = Ops.Int_map.open_ ctx ~size in
  let rng = Backend.rng ctx in
  for _ = 1 to size do
    m.insert (Random.State.int rng size) 1
  done;
  point "map-insert" backend
    (measure ctx ~samples (fun _ -> m.insert (Random.State.int rng size) 2))

let set_insert backend ~samples ~size =
  let ctx = Backend.create backend in
  let s = Ops.Int_set.open_ ctx ~size in
  let rng = Backend.rng ctx in
  for _ = 1 to size do
    s.insert (Random.State.int rng size) ()
  done;
  point "set-insert" backend
    (measure ctx ~samples (fun _ -> s.insert (Random.State.int rng size) ()))

(* Push and pop of a stack or queue holding [size] + [samples] elements. *)
let seq_ops name open_ backend ~samples ~size =
  let ctx = Backend.create backend in
  let s : Ops.seq = open_ ctx in
  for i = 1 to size + samples do
    s.push i
  done;
  let push = point (name ^ "-push") backend (measure ctx ~samples s.push) in
  let pop =
    point (name ^ "-pop") backend
      (measure ctx ~samples (fun _ -> ignore (s.pop () : int option)))
  in
  [ push; pop ]

let vector_ops backend ~samples ~size =
  let ctx = Backend.create backend in
  let v = Ops.vector ctx ~size in
  let rng = Backend.rng ctx in
  let write =
    point "vector-write" backend
      (measure ctx ~samples (fun i -> v.write (Random.State.int rng size) i))
  in
  let swap =
    point "vec-swap" backend
      (measure ctx ~samples (fun _ ->
           let i = Random.State.int rng size in
           let j = (i + 1 + Random.State.int rng (size - 1)) mod size in
           v.swap i j))
  in
  [ write; swap ]

let all ?(samples = 500) ?(size = 10_000) () =
  List.concat_map
    (fun backend ->
      [ map_insert backend ~samples ~size; set_insert backend ~samples ~size ]
      @ seq_ops "queue" Ops.queue backend ~samples ~size
      @ seq_ops "stack" Ops.stack backend ~samples ~size
      @ vector_ops backend ~samples ~size)
    [ Backend.Pmdk15; Backend.Mod ]

(* Figure 4: average simulated latency of one flush when
   [flushes_per_fence] clwbs share each sfence, over 320 distinct
   cachelines that fit the L1D. *)
let avg_flush_ns ~flushes_per_fence:n =
  let lines = 320 in
  let region = Pmem.Region.create ~capacity_words:(1 lsl 16) () in
  let offs = Array.init lines (fun i -> i * Pmem.Config.words_per_line) in
  Array.iter (fun off -> Pmem.Region.store region off (Pmem.Word.of_int 1)) offs;
  let stats = Pmem.Region.stats region in
  let t0 = stats.Pmem.Stats.now_ns in
  Array.iteri
    (fun i off ->
      Pmem.Region.clwb region off;
      if (i + 1) mod n = 0 then Pmem.Region.sfence region)
    offs;
  if lines mod n <> 0 then Pmem.Region.sfence region;
  (stats.Pmem.Stats.now_ns -. t0) /. float_of_int lines
