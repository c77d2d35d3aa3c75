(** The memcached workload (Table 2): an in-memory key-value cache whose
    store is one recoverable map; 95% sets / 5% gets, 16-byte keys,
    512-byte values.

    This is the port the paper describes in Section 6.2: memcached's cache
    logic decoupled from its custom in-place hashmap and rebound to a
    recoverable map -- every set is a single-update FASE on one map (the
    Basic interface's common case). *)

module Kv = Ops.Map_of (Pfds.Kv.String_blob) (Pfds.Kv.String_blob)

(* Key popularity is skewed towards a hot working set, like a cache. *)
let pick_key rng ~keyspace =
  let i =
    if Random.State.int rng 100 < 80 then Random.State.int rng (max 1 (keyspace / 10))
    else Random.State.int rng keyspace
  in
  Printf.sprintf "k%015d" i

let run ?(batch = 1) ctx ~ops ~keyspace =
  let kv = Kv.open_ ctx ~size:keyspace in
  let rng = Backend.rng ctx in
  (* warm the cache; value before key (the draw-order note in Ops) *)
  for _ = 1 to keyspace / 4 do
    let v = Codecs.value512 rng in
    kv.insert (pick_key rng ~keyspace) v
  done;
  Backend.start_measuring ctx;
  (* --batch N: sets retire in groups; gets read the staged (pending)
     version, so the cache stays read-your-writes within a group *)
  Ops.run ~staged:Kv.staged ctx ~ops ~batch kv (fun kv ->
      let k = pick_key rng ~keyspace in
      if Random.State.int rng 100 < 95 then kv.insert k (Codecs.value512 rng)
      else kv.find k)
