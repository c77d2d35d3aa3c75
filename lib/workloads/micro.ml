(** The six microbenchmark workloads of Table 2, each one op mix over its
    structure's {!Ops} record, so it runs on the MOD and PMDK backends
    alike.

    Every workload follows the paper's harness: set up and prefill the
    datastructure, reset the measurement clock, then run [ops] iterations
    of the operation mix (the paper runs 1 million; the scale here is a
    parameter).  [batch] > 1 retires the updates in groups ({!Ops.run});
    vec-swap has no staged variant. *)

let map_run ?(batch = 1) ctx ~ops ~size =
  let m = Ops.Int_map.open_ ctx ~size in
  let rng = Backend.rng ctx in
  for _ = 1 to size / 2 do
    (* value before key (the draw-order note in Ops) *)
    let v = Random.State.int rng 1000000 in
    m.insert (Random.State.int rng size) v
  done;
  Backend.start_measuring ctx;
  Ops.run ~staged:Ops.Int_map.staged ctx ~ops ~batch m (fun m ->
      let k = Random.State.int rng size in
      if Random.State.bool rng then m.insert k (Random.State.int rng 1000000)
      else m.find k)

let set_run ?(batch = 1) ctx ~ops ~size =
  let s = Ops.Int_set.open_ ctx ~size in
  let rng = Backend.rng ctx in
  for _ = 1 to size / 2 do
    s.insert (Random.State.int rng size) ()
  done;
  Backend.start_measuring ctx;
  Ops.run ~staged:Ops.Int_set.staged ctx ~ops ~batch s (fun s ->
      let k = Random.State.int rng size in
      if Random.State.bool rng then s.insert k () else s.find k)

(* Stack and queue share their mix; an empty structure skips the coin. *)
let seq_run open_ staged ?(batch = 1) ctx ~ops ~size =
  let s : Ops.seq = open_ ctx in
  let rng = Backend.rng ctx in
  for i = 1 to size / 2 do
    s.push i
  done;
  Backend.start_measuring ctx;
  Ops.run ~staged ctx ~ops ~batch s (fun s ->
      if s.is_empty () || Random.State.bool rng then
        s.push (Random.State.int rng 1000000)
      else ignore (s.pop () : int option))

let stack_run = seq_run Ops.stack Ops.stack_staged
let queue_run = seq_run Ops.queue Ops.queue_staged

let vector_run ?(batch = 1) ctx ~ops ~size =
  let v = Ops.vector ctx ~size in
  let rng = Backend.rng ctx in
  Backend.start_measuring ctx;
  Ops.run ~staged:Ops.vector_staged ctx ~ops ~batch v (fun v ->
      let i = Random.State.int rng size in
      if Random.State.bool rng then v.write i (Random.State.int rng 1000000)
      else v.read i)

let vec_swap_run ?(batch = 1) ctx ~ops ~size =
  let v = Ops.vector ctx ~size in
  let rng = Backend.rng ctx in
  Backend.start_measuring ctx;
  Ops.run ctx ~ops ~batch v (fun v ->
      let i = Random.State.int rng size in
      let j = Random.State.int rng size in
      if i <> j then v.swap i j)
