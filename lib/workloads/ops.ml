(** The Table 2 structures, each written once per backend as a record of
    its operations, and the one loop that runs an op mix over them.

    A record binds its structure to {!Backend.slot} of a context:
    - on MOD through the structure's handle, opened under the context's
      commit policy, so every update is one FASE;
    - on PMDK through {!Backend.publish}, with each update in its own
      [Tx.run]; lookups run bare, as they never flush or fence
      (Section 6.4).

    For group commit, a [staged] constructor builds the MOD record again
    on a {!window}: updates stage pure shadows into one [Mod_core.Batch],
    reads go through [Batch.pending] (read-your-writes), and the batch
    commits after every [size] staged updates.

    Draw order: OCaml evaluates an application's arguments right to
    left, so a call that draws two random numbers as arguments draws the
    last one first.  The mixes bind such draws with [let], in the order
    the pinned numbers were made with. *)

type ('k, 'v) map = { insert : 'k -> 'v -> unit; find : 'k -> unit }
(** map, set (['v = unit]) and memcached's blob map; [find] drops what
    it reads. *)

type seq = {
  push : int -> unit;
  pop : unit -> int option;
  is_empty : unit -> bool;
}
(** stack and queue *)

type vec = {
  write : int -> int -> unit;
  read : int -> unit;
  swap : int -> int -> unit;
  push_back : int -> unit;
}

(* -- the group-commit window (MOD) --------------------------------------- *)

type window = {
  heap : Pmalloc.Heap.t;
  batch : Mod_core.Batch.t;
  size : int;
  mutable staged : int;
}

let flush w =
  if not (Mod_core.Batch.is_empty w.batch) then
    ignore (Mod_core.Batch.commit w.batch : Mod_core.Batch.commit_point);
  w.staged <- 0

(* Stage one pure update; the window's [size]-th commits the group. *)
let stage w f =
  Mod_core.Batch.stage w.batch ~slot:Backend.slot f;
  w.staged <- w.staged + 1;
  if w.staged >= w.size then flush w

let pending w = Mod_core.Batch.pending w.batch ~slot:Backend.slot

(* Stage a pop; an empty version stays as it is and pops nothing. *)
let stage_pop w pop =
  let popped = ref None in
  stage w (fun version ->
      match pop version with
      | None -> version
      | Some (x, shadow) ->
          popped := Some (Pmem.Word.to_int x);
          shadow);
  !popped

let int_opt = Option.map Pmem.Word.to_int

(* -- maps and sets --------------------------------------------------------- *)

module Map_of (K : Pfds.Kv.CODEC) (V : Pfds.Kv.CODEC) = struct
  module Mod = Mod_core.Dmap.Make (K) (V)
  module Pmdk = Pmstm.Pm_hashmap.Make (K) (V)

  let open_ ctx ~size : (K.t, V.t) map =
    let heap = Backend.heap ctx in
    match Backend.kind ctx with
    | Backend.Mod ->
        let m =
          Mod.open_or_create ~persist:(Backend.persist ctx) heap
            ~slot:Backend.slot
        in
        {
          insert = Mod.insert m;
          find = (fun k -> ignore (Mod.find m k : V.t option));
        }
    | Backend.Pmdk14 | Backend.Pmdk15 ->
        let desc =
          Backend.publish ctx (fun tx ->
              Pmdk.create tx ~nbuckets:(max 64 size))
        in
        let tx = Backend.tx ctx in
        {
          insert =
            (fun k v ->
              Pmstm.Tx.run tx (fun () ->
                  ignore (Pmdk.insert tx desc k v : bool)));
          find = (fun k -> ignore (Pmdk.find heap desc k : V.t option));
        }

  let staged w =
    {
      insert =
        (fun k v ->
          stage w (fun version -> Mod.insert_pure w.heap version k v));
      find = (fun k -> ignore (Mod.find_in w.heap (pending w) k : V.t option));
    }
end

(* 8-byte keys, 32-byte values *)
module Int_map = Map_of (Pfds.Kv.Int) (Codecs.Val32)

module Int_set = struct
  module Mod = Mod_core.Dset.Make (Pfds.Kv.Int)
  module Pmdk = Pmstm.Pm_hashmap.Make (Pfds.Kv.Int) (Pfds.Kv.Unit)

  let open_ ctx ~size : (int, unit) map =
    let heap = Backend.heap ctx in
    match Backend.kind ctx with
    | Backend.Mod ->
        let s =
          Mod.open_or_create ~persist:(Backend.persist ctx) heap
            ~slot:Backend.slot
        in
        {
          insert = (fun k () -> Mod.add s k);
          find = (fun k -> ignore (Mod.mem s k : bool));
        }
    | Backend.Pmdk14 | Backend.Pmdk15 ->
        let desc =
          Backend.publish ctx (fun tx ->
              Pmdk.create tx ~nbuckets:(max 64 size))
        in
        let tx = Backend.tx ctx in
        {
          insert =
            (fun k () ->
              Pmstm.Tx.run tx (fun () ->
                  ignore (Pmdk.insert tx desc k () : bool)));
          find = (fun k -> ignore (Pmdk.mem heap desc k : bool));
        }

  let staged w =
    {
      insert =
        (fun k () -> stage w (fun version -> Mod.add_pure w.heap version k));
      find = (fun k -> ignore (Mod.mem_in w.heap (pending w) k : bool));
    }
end

(* -- stack and queue ------------------------------------------------------- *)

let stack ctx =
  let heap = Backend.heap ctx in
  match Backend.kind ctx with
  | Backend.Mod ->
      let s =
        Mod_core.Dstack.open_or_create ~persist:(Backend.persist ctx) heap
          ~slot:Backend.slot
      in
      {
        push = (fun v -> Mod_core.Dstack.push s (Pmem.Word.of_int v));
        pop = (fun () -> int_opt (Mod_core.Dstack.pop s));
        is_empty = (fun () -> Mod_core.Dstack.is_empty s);
      }
  | Backend.Pmdk14 | Backend.Pmdk15 ->
      let desc = Backend.publish ctx Pmstm.Pm_stack.create in
      let tx = Backend.tx ctx in
      {
        push =
          (fun v ->
            Pmstm.Tx.run tx (fun () ->
                Pmstm.Pm_stack.push tx desc (Pmem.Word.of_int v)));
        pop =
          (fun () ->
            int_opt (Pmstm.Tx.run tx (fun () -> Pmstm.Pm_stack.pop tx desc)));
        is_empty = (fun () -> Pmstm.Pm_stack.is_empty heap desc);
      }

let stack_staged w =
  {
    push =
      (fun v ->
        stage w (fun version ->
            Pfds.Pstack.push w.heap version (Pmem.Word.of_int v)));
    pop = (fun () -> stage_pop w (Pfds.Pstack.pop w.heap));
    is_empty = (fun () -> Pfds.Pstack.is_empty (pending w));
  }

let queue ctx =
  let heap = Backend.heap ctx in
  match Backend.kind ctx with
  | Backend.Mod ->
      let q =
        Mod_core.Dqueue.open_or_create ~persist:(Backend.persist ctx) heap
          ~slot:Backend.slot
      in
      {
        push = (fun v -> Mod_core.Dqueue.enqueue q (Pmem.Word.of_int v));
        pop = (fun () -> int_opt (Mod_core.Dqueue.dequeue q));
        is_empty = (fun () -> Mod_core.Dqueue.is_empty q);
      }
  | Backend.Pmdk14 | Backend.Pmdk15 ->
      let desc = Backend.publish ctx Pmstm.Pm_queue.create in
      let tx = Backend.tx ctx in
      {
        push =
          (fun v ->
            Pmstm.Tx.run tx (fun () ->
                Pmstm.Pm_queue.enqueue tx desc (Pmem.Word.of_int v)));
        pop =
          (fun () ->
            int_opt
              (Pmstm.Tx.run tx (fun () -> Pmstm.Pm_queue.dequeue tx desc)));
        is_empty = (fun () -> Pmstm.Pm_queue.is_empty heap desc);
      }

let queue_staged w =
  {
    push =
      (fun v ->
        stage w (fun version ->
            Pfds.Pqueue.enqueue w.heap version (Pmem.Word.of_int v)));
    pop = (fun () -> stage_pop w (Pfds.Pqueue.dequeue w.heap));
    is_empty = (fun () -> Pfds.Pqueue.is_empty w.heap (pending w));
  }

(* -- vector ---------------------------------------------------------------- *)

(* Opened holding 1..[size]. *)
let vector ctx ~size =
  let heap = Backend.heap ctx in
  let v =
    match Backend.kind ctx with
    | Backend.Mod ->
        let v =
          Mod_core.Dvec.open_or_create ~persist:(Backend.persist ctx) heap
            ~slot:Backend.slot
        in
        {
          write = (fun i x -> Mod_core.Dvec.set v i (Pmem.Word.of_int x));
          read = (fun i -> ignore (Mod_core.Dvec.get v i : Pmem.Word.t));
          swap = Mod_core.Dvec.swap v;
          push_back =
            (fun x -> Mod_core.Dvec.push_back v (Pmem.Word.of_int x));
        }
    | Backend.Pmdk14 | Backend.Pmdk15 ->
        let desc =
          Backend.publish ctx (fun tx ->
              Pmstm.Pm_array.create tx ~capacity:(max 16 size))
        in
        let tx = Backend.tx ctx in
        let run f = Pmstm.Tx.run tx f in
        {
          write =
            (fun i x ->
              run (fun () ->
                  Pmstm.Pm_array.set tx desc i (Pmem.Word.of_int x)));
          read =
            (fun i -> ignore (Pmstm.Pm_array.get heap desc i : Pmem.Word.t));
          swap = (fun i j -> run (fun () -> Pmstm.Pm_array.swap tx desc i j));
          push_back =
            (fun x ->
              run (fun () ->
                  Pmstm.Pm_array.push_back tx desc (Pmem.Word.of_int x)));
        }
  in
  for i = 1 to size do
    v.push_back i
  done;
  v

(* The vector mix's writes and reads.  A swap is two updates with a
   superseded shadow between them, which one staged update cannot
   release, so vec-swap has no staged variant; no mix grows a vector in
   a batch. *)
let vector_staged w =
  let unstaged op = invalid_arg ("Ops.vector_staged: no staged " ^ op) in
  {
    write =
      (fun i x ->
        stage w (fun version ->
            Pfds.Pvec.set w.heap version i (Pmem.Word.of_int x)));
    read =
      (fun i -> ignore (Pfds.Pvec.get w.heap (pending w) i : Pmem.Word.t));
    swap = (fun _ _ -> unstaged "swap");
    push_back = (fun _ -> unstaged "push_back");
  }

(* -- the op-mix loop ------------------------------------------------------- *)

(* Run [ops] iterations of [step] over the record, each after the per-op
   application pause.  With [batch] > 1, updates retire in groups of
   [batch]: on PMDK each window of [batch] iterations runs in one
   transaction ([Tx.run_grouped]; the ops' own [Tx.run]s flatten into
   it), and on MOD [step] runs on the [staged] record over one window.
   A mix with no staged variant cannot batch. *)
let run ?staged ctx ~ops ~batch plain step =
  let iterate r n =
    for _ = 1 to n do
      Backend.op_pause ctx;
      step r
    done
  in
  if batch <= 1 then iterate plain ops
  else
    match (Backend.kind ctx, staged) with
    | _, None ->
        invalid_arg "Ops.run: a mix with no staged variant cannot batch"
    | (Backend.Pmdk14 | Backend.Pmdk15), Some _ ->
        let tx = Backend.tx ctx in
        let remaining = ref ops in
        while !remaining > 0 do
          let n = min batch !remaining in
          Pmstm.Tx.run_grouped tx ~n (fun _ -> iterate plain 1);
          remaining := !remaining - n
        done
    | Backend.Mod, Some staged ->
        let heap = Backend.heap ctx in
        let w =
          { heap; batch = Mod_core.Batch.create heap; size = batch; staged = 0 }
        in
        iterate (staged w) ops;
        flush w
