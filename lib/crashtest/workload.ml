(** Deterministic workload scripts for the crash-point explorer.

    A workload is a fixed, seed-determined sequence of operations against
    one durable structure, paired with a purely volatile model of the
    abstract state after every prefix of operations.  States are rendered
    canonically (sorted, fully explicit) so the durable-linearizability
    oracle can compare a recovered structure against model prefixes with
    plain string equality.

    [make] builds a per-heap instance whose closures apply operations,
    recover after a crash, and dump the recovered abstract state.
    Instance construction itself performs no PM work; [init] does, so a
    crash can land inside initialization too. *)

type state = string

type instance = {
  init : unit -> unit;  (** durable initialization (may commit) *)
  run_op : int -> unit;  (** apply operation [i] through the structure *)
  dump : unit -> state;  (** canonical view of the (recovered) state *)
  recover : unit -> unit;  (** post-crash recovery for this workload *)
}

type t = {
  name : string;
  ops : int;
  negative : bool;
      (** negative control: the oracle is expected to report violations *)
  check_trace : bool;
      (** also run the Section 5.4 trace checker (MOD-only invariant) *)
  persist : Pmalloc.Heap.policy option;  (** the policy it was built with *)
  model : state array;  (** [model.(i)] = state after [i] operations *)
  make : Pmalloc.Heap.t -> instance;
}

let seed_of name ~ops = (Hashtbl.hash name * 65599) + ops

(* Backup-policy plumbing.  A workload built with [~persist:Backup] runs
   the same script against the same model (seeds key off the canonical
   name), but the structure commits under the "don't persist all" policy:
   interior nodes stay volatile-clean and recovery replays the slot's op
   log.  Dumps therefore reconstruct before reading -- a no-op under Full
   -- because the kill-9 harness dumps a freshly reopened heap and the
   explorer dumps after recovery cleared the volatile backup state.  The
   log append is an in-place write pattern by design, so the Section 5.4
   MOD trace invariant is only checked under Full. *)
let is_backup = function Some Pmalloc.Heap.Backup -> true | _ -> false

(* -- canonical renderings ------------------------------------------------- *)

let render_ints l =
  "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

let render_pairs l =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) l)
  ^ "}"

(* [prefix_states ~init ~apply script] is the ops+1 abstract states after
   every prefix of [script], starting from [init]. *)
let prefix_states ~init ~apply script =
  let _, acc =
    List.fold_left
      (fun (cur, acc) op ->
        let next = apply cur op in
        (next, next :: acc))
      (init, [ init ]) script
  in
  Array.of_list (List.rev acc)

(* -- map ------------------------------------------------------------------ *)

module IntMap = Map.Make (Int)
module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)

type map_op = Minsert of int * int | Mremove of int

let map_script ~ops seed =
  let rng = Random.State.make [| seed |] in
  List.init ops (fun _ ->
      let k = Random.State.int rng 24 in
      if Random.State.int rng 3 < 2 then
        Minsert (k, Random.State.int rng 1000)
      else Mremove k)

let map_model script =
  Array.map
    (fun m -> render_pairs (IntMap.bindings m))
    (prefix_states ~init:IntMap.empty
       ~apply:(fun m -> function
         | Minsert (k, v) -> IntMap.add k v m
         | Mremove k -> IntMap.remove k m)
       script)

let dump_map heap =
  Imap.reconstruct heap ~slot:0;
  let h = Mod_core.Handle.make heap ~slot:0 in
  render_pairs
    (IntMap.bindings (Imap.fold h IntMap.add IntMap.empty))

let map_workload ?persist ~ops () =
  let script = map_script ~ops (seed_of "map" ~ops) in
  let arr = Array.of_list script in
  {
    name = "map";
    ops;
    negative = false;
    check_trace = not (is_backup persist);
    persist;
    model = map_model script;
    make =
      (fun heap ->
        let h = Mod_core.Handle.make heap ~slot:0 in
        {
          init =
            (fun () -> ignore (Imap.open_or_create ?persist heap ~slot:0));
          run_op =
            (fun i ->
              match arr.(i) with
              | Minsert (k, v) -> Imap.insert h k v
              | Mremove k -> ignore (Imap.remove h k : bool));
          dump = (fun () -> dump_map heap);
          recover = (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

(* A deliberately broken MOD map: commits swing the root pointer without
   the preceding sfence, so the durable root can point at a shadow whose
   nodes never became durable.  The Section 5.4 trace checker does not
   catch this (it only inspects flush-before-fence pairs, and there are
   no fences); only the durable-linearizability oracle does. *)
let map_nofence_workload ~ops =
  let script = map_script ~ops (seed_of "map" ~ops) in
  let arr = Array.of_list script in
  let base = map_workload ~ops () in
  let broken_commit heap version =
    let old = Pmalloc.Heap.root_get heap 0 in
    (* missing ordering point: no sfence before the root swing *)
    Pmalloc.Heap.root_set heap 0 version;
    if Pmem.Word.is_ptr old && not (Pmem.Word.is_null old) then
      Pmalloc.Heap.release heap (Pmem.Word.to_ptr old)
  in
  {
    base with
    name = "map-nofence";
    negative = true;
    make =
      (fun heap ->
        let h = Mod_core.Handle.make heap ~slot:0 in
        {
          init = (fun () -> ());
          run_op =
            (fun i ->
              let v = Mod_core.Handle.current h in
              match arr.(i) with
              | Minsert (k, value) ->
                  broken_commit heap (Imap.insert_pure heap v k value)
              | Mremove k ->
                  let shadow, removed = Imap.remove_pure heap v k in
                  if removed then broken_commit heap shadow);
          dump = (fun () -> dump_map heap);
          recover = (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

(* -- set ------------------------------------------------------------------ *)

module Iset = Mod_core.Dset.Make (Pfds.Kv.Int)
module IntSet = Set.Make (Int)

type set_op = Sadd of int | Sremove of int

let set_workload ?persist ~ops () =
  let rng = Random.State.make [| seed_of "set" ~ops |] in
  let script =
    List.init ops (fun _ ->
        let k = Random.State.int rng 24 in
        if Random.State.int rng 3 < 2 then Sadd k else Sremove k)
  in
  let arr = Array.of_list script in
  let model =
    Array.map
      (fun s -> render_ints (IntSet.elements s))
      (prefix_states ~init:IntSet.empty
         ~apply:(fun s -> function
           | Sadd k -> IntSet.add k s
           | Sremove k -> IntSet.remove k s)
         script)
  in
  let dump heap =
    Iset.reconstruct heap ~slot:0;
    let h = Mod_core.Handle.make heap ~slot:0 in
    render_ints (IntSet.elements (Iset.fold h IntSet.add IntSet.empty))
  in
  {
    name = "set";
    ops;
    negative = false;
    check_trace = not (is_backup persist);
    persist;
    model;
    make =
      (fun heap ->
        let h = Mod_core.Handle.make heap ~slot:0 in
        {
          init =
            (fun () -> ignore (Iset.open_or_create ?persist heap ~slot:0));
          run_op =
            (fun i ->
              match arr.(i) with
              | Sadd k -> Iset.add h k
              | Sremove k -> ignore (Iset.remove h k : bool));
          dump = (fun () -> dump heap);
          recover = (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

(* -- stack / queue -------------------------------------------------------- *)

type sq_op = Push of int | Pop

let sq_script name ~ops =
  let rng = Random.State.make [| seed_of name ~ops |] in
  let rec gen i depth acc =
    if i = ops then List.rev acc
    else if depth > 0 && Random.State.int rng 3 = 0 then
      gen (i + 1) (depth - 1) (Pop :: acc)
    else gen (i + 1) (depth + 1) (Push (Random.State.int rng 1000) :: acc)
  in
  gen 0 0 []

let stack_workload ?persist ~ops () =
  let script = sq_script "stack" ~ops in
  let arr = Array.of_list script in
  let model =
    Array.map render_ints
      (prefix_states ~init:[]
         ~apply:(fun s -> function
           | Push v -> v :: s
           | Pop -> ( match s with [] -> [] | _ :: tl -> tl))
         script)
  in
  let dump heap =
    Mod_core.Dstack.reconstruct heap ~slot:0;
    let h = Mod_core.Handle.make heap ~slot:0 in
    render_ints (List.map Pmem.Word.to_int (Mod_core.Dstack.to_list h))
  in
  {
    name = "stack";
    ops;
    negative = false;
    check_trace = not (is_backup persist);
    persist;
    model;
    make =
      (fun heap ->
        let h = Mod_core.Handle.make heap ~slot:0 in
        {
          init =
            (fun () ->
              ignore (Mod_core.Dstack.open_or_create ?persist heap ~slot:0));
          run_op =
            (fun i ->
              match arr.(i) with
              | Push v -> Mod_core.Dstack.push h (Pmem.Word.of_int v)
              | Pop -> ignore (Mod_core.Dstack.pop h));
          dump = (fun () -> dump heap);
          recover = (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

let queue_workload ?persist ~ops () =
  let script = sq_script "queue" ~ops in
  let arr = Array.of_list script in
  let model =
    Array.map render_ints
      (prefix_states ~init:[]
         ~apply:(fun q -> function
           | Push v -> q @ [ v ]
           | Pop -> ( match q with [] -> [] | _ :: tl -> tl))
         script)
  in
  let dump heap =
    Mod_core.Dqueue.reconstruct heap ~slot:0;
    let h = Mod_core.Handle.make heap ~slot:0 in
    if not (Mod_core.Handle.is_initialized h) then render_ints []
    else
      render_ints (List.map Pmem.Word.to_int (Mod_core.Dqueue.to_list h))
  in
  {
    name = "queue";
    ops;
    negative = false;
    check_trace = not (is_backup persist);
    persist;
    model;
    make =
      (fun heap ->
        let h = Mod_core.Handle.make heap ~slot:0 in
        {
          init =
            (fun () ->
              ignore (Mod_core.Dqueue.open_or_create ?persist heap ~slot:0));
          run_op =
            (fun i ->
              match arr.(i) with
              | Push v -> Mod_core.Dqueue.enqueue h (Pmem.Word.of_int v)
              | Pop -> ignore (Mod_core.Dqueue.dequeue h));
          dump = (fun () -> dump heap);
          recover = (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

(* -- vector / sequence ---------------------------------------------------- *)

type vec_op = Vpush of int | Vset of int * int | Vpop

let vec_script name ~ops =
  let rng = Random.State.make [| seed_of name ~ops |] in
  let rec gen i size acc =
    if i = ops then List.rev acc
    else
      let choice = if size = 0 then 0 else Random.State.int rng 4 in
      match choice with
      | 0 | 3 ->
          gen (i + 1) (size + 1) (Vpush (Random.State.int rng 1000) :: acc)
      | 1 ->
          gen (i + 1) size
            (Vset (Random.State.int rng size, Random.State.int rng 1000)
            :: acc)
      | _ -> gen (i + 1) (size - 1) (Vpop :: acc)
  in
  gen 0 0 []

let vec_like_states script =
  let apply l = function
    | Vpush v -> l @ [ v ]
    | Vset (i, v) -> List.mapi (fun j x -> if j = i then v else x) l
    | Vpop -> ( match List.rev l with [] -> [] | _ :: tl -> List.rev tl)
  in
  Array.map render_ints (prefix_states ~init:[] ~apply script)

let vec_workload ?persist ~ops () =
  let script = vec_script "vec" ~ops in
  let arr = Array.of_list script in
  let dump heap =
    Mod_core.Dvec.reconstruct heap ~slot:0;
    let h = Mod_core.Handle.make heap ~slot:0 in
    if not (Mod_core.Handle.is_initialized h) then render_ints []
    else render_ints (List.map Pmem.Word.to_int (Mod_core.Dvec.to_list h))
  in
  {
    name = "vec";
    ops;
    negative = false;
    check_trace = not (is_backup persist);
    persist;
    model = vec_like_states script;
    make =
      (fun heap ->
        let h = Mod_core.Handle.make heap ~slot:0 in
        {
          init =
            (fun () ->
              ignore (Mod_core.Dvec.open_or_create ?persist heap ~slot:0));
          run_op =
            (fun i ->
              match arr.(i) with
              | Vpush v -> Mod_core.Dvec.push_back h (Pmem.Word.of_int v)
              | Vset (j, v) -> Mod_core.Dvec.set h j (Pmem.Word.of_int v)
              | Vpop -> ignore (Mod_core.Dvec.pop_back h));
          dump = (fun () -> dump heap);
          recover = (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

let seq_workload ?persist ~ops () =
  let script = vec_script "seq" ~ops in
  let arr = Array.of_list script in
  let dump heap =
    Mod_core.Dseq.reconstruct heap ~slot:0;
    let h = Mod_core.Handle.make heap ~slot:0 in
    if not (Mod_core.Handle.is_initialized h) then render_ints []
    else render_ints (List.map Pmem.Word.to_int (Mod_core.Dseq.to_list h))
  in
  {
    name = "seq";
    ops;
    negative = false;
    check_trace = not (is_backup persist);
    persist;
    model = vec_like_states script;
    make =
      (fun heap ->
        let h = Mod_core.Handle.make heap ~slot:0 in
        {
          init =
            (fun () ->
              ignore (Mod_core.Dseq.open_or_create ?persist heap ~slot:0));
          run_op =
            (fun i ->
              match arr.(i) with
              | Vpush v -> Mod_core.Dseq.push_back h (Pmem.Word.of_int v)
              | Vset (j, v) -> Mod_core.Dseq.set h j (Pmem.Word.of_int v)
              | Vpop ->
                  let size = Mod_core.Dseq.size h in
                  Mod_core.Dseq.restrict h ~pos:0 ~len:(size - 1));
          dump = (fun () -> dump heap);
          recover = (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

(* -- priority queue ------------------------------------------------------- *)

type pq_op = Pinsert of int | Pdelete_min

let pqueue_workload ?persist ~ops () =
  let rng = Random.State.make [| seed_of "pqueue" ~ops |] in
  let rec gen i size acc =
    if i = ops then List.rev acc
    else if size > 0 && Random.State.int rng 3 = 0 then
      gen (i + 1) (size - 1) (Pdelete_min :: acc)
    else gen (i + 1) (size + 1) (Pinsert (Random.State.int rng 1000) :: acc)
  in
  let script = gen 0 0 [] in
  let arr = Array.of_list script in
  let model =
    Array.map render_ints
      (prefix_states ~init:[]
         ~apply:(fun s -> function
           | Pinsert p -> List.sort compare (p :: s)
           | Pdelete_min -> ( match s with [] -> [] | _ :: tl -> tl))
         script)
  in
  let dump heap =
    Mod_core.Dpqueue.reconstruct heap ~slot:0;
    let h = Mod_core.Handle.make heap ~slot:0 in
    render_ints
      (Pfds.Pheap.to_sorted_list_model heap (Mod_core.Handle.current h))
  in
  {
    name = "pqueue";
    ops;
    negative = false;
    check_trace = not (is_backup persist);
    persist;
    model;
    make =
      (fun heap ->
        let h = Mod_core.Handle.make heap ~slot:0 in
        {
          init =
            (fun () ->
              ignore (Mod_core.Dpqueue.open_or_create ?persist heap ~slot:0));
          run_op =
            (fun i ->
              match arr.(i) with
              | Pinsert p -> Mod_core.Dpqueue.insert h p
              | Pdelete_min -> ignore (Mod_core.Dpqueue.delete_min h));
          dump = (fun () -> dump heap);
          recover = (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

(* -- group-commit batching (Batch / CommitSiblings / CommitUnrelated) ----- *)

(* Each logical operation is a group of [batch_group] map sub-operations
   staged into one {!Mod_core.Batch} and retired by a single
   CommitSingle: a crash inside the group must recover to either the
   state before the whole group or after it, never in between. *)
let batch_group = 3

let batched_workload ?persist ~ops () =
  let script =
    map_script ~ops:(ops * batch_group) (seed_of "batched" ~ops)
  in
  let groups =
    Array.init ops (fun i ->
        Array.init batch_group (fun j ->
            List.nth script ((i * batch_group) + j)))
  in
  let model =
    Array.map
      (fun m -> render_pairs (IntMap.bindings m))
      (prefix_states ~init:IntMap.empty
         ~apply:(fun m group ->
           Array.fold_left
             (fun m -> function
               | Minsert (k, v) -> IntMap.add k v m
               | Mremove k -> IntMap.remove k m)
             m group)
         (Array.to_list groups))
  in
  {
    name = "batched";
    ops;
    negative = false;
    check_trace = not (is_backup persist);
    persist;
    model;
    make =
      (fun heap ->
        let b = Mod_core.Batch.create heap in
        {
          init =
            (fun () -> ignore (Imap.open_or_create ?persist heap ~slot:0));
          run_op =
            (fun i ->
              Array.iter
                (function
                  | Minsert (k, v) ->
                      Mod_core.Batch.stage b ~slot:0 (fun version ->
                          Imap.insert_pure heap version k v)
                  | Mremove k ->
                      Mod_core.Batch.stage b ~slot:0 (fun version ->
                          fst (Imap.remove_pure heap version k)))
                groups.(i);
              ignore (Mod_core.Batch.commit b : Mod_core.Batch.commit_point));
          dump = (fun () -> dump_map heap);
          recover = (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

(* CommitSiblings under crash: one parent object at slot 0 whose two
   fields are independent stacks; every op updates both fields through
   {!Mod_core.Batch.stage_field} and retires them with one fresh parent
   and one fence.  Recovery must see both stacks move together. *)
let siblings_workload ~ops =
  let script = sq_script "siblings" ~ops in
  let arr = Array.of_list script in
  let render (a, b) = render_ints a ^ "|" ^ render_ints b in
  let model =
    Array.map render
      (prefix_states ~init:([], [])
         ~apply:(fun (a, b) -> function
           | Push v -> (v :: a, (v + 500) :: b)
           | Pop -> (
               match (a, b) with
               | _ :: ta, _ :: tb -> (ta, tb)
               | _ -> (a, b)))
         script)
  in
  let dump heap =
    let root = Pmalloc.Heap.root_get heap 0 in
    if Pmem.Word.is_null root then model.(0)
    else
      let parent = Pmem.Word.to_ptr root in
      let stack f =
        List.map Pmem.Word.to_int
          (Pfds.Pstack.to_list heap (Pfds.Node.get heap parent f))
      in
      render_ints (stack 0) ^ "|" ^ render_ints (stack 1)
  in
  {
    name = "siblings";
    ops;
    negative = false;
    check_trace = true;
    persist = None;
    model;
    make =
      (fun heap ->
        let b = Mod_core.Batch.create heap in
        {
          init =
            (fun () ->
              (* one FASE: build the two-field parent, install it *)
              let parent = Pfds.Node.alloc heap ~words:2 in
              Pfds.Node.set heap parent 0 Pfds.Pstack.empty;
              Pfds.Node.set heap parent 1 Pfds.Pstack.empty;
              Pfds.Node.finish heap parent;
              Mod_core.Commit.single heap ~slot:0 (Pmem.Word.of_ptr parent));
          run_op =
            (fun i ->
              let stage_stack field f =
                Mod_core.Batch.stage_field b ~slot:0 ~field f
              in
              (match arr.(i) with
              | Push v ->
                  stage_stack 0 (fun w ->
                      Pfds.Pstack.push heap w (Pmem.Word.of_int v));
                  stage_stack 1 (fun w ->
                      Pfds.Pstack.push heap w (Pmem.Word.of_int (v + 500)))
              | Pop ->
                  let pop w =
                    match Pfds.Pstack.pop heap w with
                    | None -> w
                    | Some (_, shadow) -> shadow
                  in
                  stage_stack 0 pop;
                  stage_stack 1 pop);
              ignore (Mod_core.Batch.commit b : Mod_core.Batch.commit_point));
          dump = (fun () -> dump heap);
          recover = (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

(* CommitUnrelated under crash: two maps at unrelated root slots 0 and 1,
   both updated in one batch, retired by the shadow fence plus the
   embedded PM-STM root-swing transaction.  A crash inside that
   transaction must roll back both root swings together (the WAL is the
   atomicity mechanism, exactly Figure 8d). *)
let unrelated_workload ~ops =
  let rng = Random.State.make [| seed_of "unrelated" ~ops |] in
  let script =
    List.init ops (fun _ ->
        let k = Random.State.int rng 24 in
        let v = Random.State.int rng 1000 in
        (k, v, Random.State.int rng 3 < 2))
  in
  let arr = Array.of_list script in
  let render (m0, m1) =
    render_pairs (IntMap.bindings m0) ^ "|" ^ render_pairs (IntMap.bindings m1)
  in
  let model =
    Array.map render
      (prefix_states
         ~init:(IntMap.empty, IntMap.empty)
         ~apply:(fun (m0, m1) (k, v, add1) ->
           ( IntMap.add k v m0,
             if add1 then IntMap.add k (v + 1) m1 else IntMap.remove k m1 ))
         script)
  in
  let dump heap =
    dump_map heap ^ "|"
    ^
    let h = Mod_core.Handle.make heap ~slot:1 in
    render_pairs (IntMap.bindings (Imap.fold h IntMap.add IntMap.empty))
  in
  {
    name = "unrelated";
    ops;
    negative = false;
    (* the embedded PM-STM transaction writes in place by design, so the
       Section 5.4 MOD trace invariant does not apply *)
    check_trace = false;
    persist = None;
    model;
    make =
      (fun heap ->
        let batch = ref None in
        {
          init =
            (fun () ->
              let tx = Pmstm.Tx.create heap ~version:Pmstm.Tx.V1_5 in
              batch := Some (Mod_core.Batch.create ~tx heap));
          run_op =
            (fun i ->
              let b = Option.get !batch in
              let k, v, add1 = arr.(i) in
              Mod_core.Batch.stage b ~slot:0 (fun version ->
                  Imap.insert_pure heap version k v);
              Mod_core.Batch.stage b ~slot:1 (fun version ->
                  if add1 then Imap.insert_pure heap version k (v + 1)
                  else fst (Imap.remove_pure heap version k));
              ignore (Mod_core.Batch.commit b : Mod_core.Batch.commit_point));
          dump = (fun () -> dump heap);
          recover =
            (fun () -> ignore (Mod_core.Recovery.recover_exn ~stm:true heap));
        });
  }

(* -- PM-STM baselines ----------------------------------------------------- *)

(* An 8-cell counter array updated in place under PMDK-style transactions.
   The undo log makes every committed transaction durable, so recovery
   must observe exactly the last committed state (positive control).  The
   [broken] variant skips the snapshot fences and the commit-time data
   flushes -- the oracle must catch it. *)
let stm_cells = 8

let stm_workload name version ~broken ~ops =
  let rng = Random.State.make [| seed_of name ~ops |] in
  let script =
    List.init ops (fun _ ->
        (Random.State.int rng stm_cells, 1 + Random.State.int rng 99))
  in
  let arr = Array.of_list script in
  let model =
    Array.map
      (fun c -> render_ints (Array.to_list c))
      (prefix_states
         ~init:(Array.make stm_cells 0)
         ~apply:(fun c (idx, delta) ->
           let c' = Array.copy c in
           c'.(idx) <- c'.(idx) + delta;
           c')
         script)
  in
  let dump heap =
    let root = Pmalloc.Heap.root_get heap 1 in
    if Pmem.Word.is_null root then model.(0)
    else
      let body = Pmem.Word.to_ptr root in
      render_ints
        (List.init stm_cells (fun i ->
             Pmem.Word.to_int (Pmalloc.Heap.load heap (body + i))))
  in
  {
    name;
    ops;
    negative = broken;
    check_trace = false (* in-place by design: invariant 1 never holds *);
    persist = None;
    model;
    make =
      (fun heap ->
        let tx = ref None in
        let body = ref (-1) in
        {
          init =
            (fun () ->
              let t =
                Pmstm.Tx.create heap ~version ~broken_ordering:broken
              in
              tx := Some t;
              let b =
                Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw
                  ~words:stm_cells
              in
              for i = 0 to stm_cells - 1 do
                Pmalloc.Heap.store heap (b + i) (Pmem.Word.of_int 0)
              done;
              Pmalloc.Heap.flush_block heap b;
              Pmalloc.Heap.root_set heap 1 (Pmem.Word.of_ptr b);
              Pmalloc.Heap.sfence heap;
              body := b);
          run_op =
            (fun i ->
              let t = Option.get !tx in
              let idx, delta = arr.(i) in
              let off = !body + idx in
              Pmstm.Tx.run t (fun () ->
                  Pmstm.Tx.add t ~off ~words:1;
                  let v = Pmem.Word.to_int (Pmstm.Tx.load t off) in
                  Pmstm.Tx.store t off (Pmem.Word.of_int (v + delta))));
          dump = (fun () -> dump heap);
          recover =
            (fun () -> ignore (Mod_core.Recovery.recover_exn ~stm:true heap));
        });
  }

(* -- serving-layer shards ------------------------------------------------- *)

(* [shard<i>of<n>]: shard [i] of an [n]-shard serving set.  The script
   is the serving stream, seeded from [n] and [ops] so all [n] targets
   share it.  Each request is routed by key: the target's go to the map
   on the swept heap, the siblings' to their own in-memory heaps.  A
   shard owns one heap and one map, so its crash is a sequential
   history of one object: the model is the target's map after each
   request, and a GET or a sibling's request repeats the state.
   Recovery also checks shard independence: before and after the target
   recovers, every sibling must dump its model at the requests the run
   applied.  A sweep's samples share one run, so the siblings are
   dumped again only if a request or a PM store reached them since the
   last check that passed: a recovery that stores into a sibling's heap
   is caught and named. *)
module Smap = Map.Make (String)

let shard_name ~target ~nshards = Printf.sprintf "shard%dof%d" target nshards

let shard_names nshards =
  List.init nshards (fun target -> shard_name ~target ~nshards)

let shard_target name =
  match Scanf.sscanf name "shard%uof%u%!" (fun i n -> (i, n)) with
  | i, n when i < n && shard_name ~target:i ~nshards:n = name -> Some (i, n)
  | _ | (exception (Scanf.Scan_failure _ | Failure _ | End_of_file)) -> None

let is_shard name = shard_target name <> None

let shard_script ~nshards ~ops =
  Shard.script ~seed:(seed_of (Printf.sprintf "shards%d" nshards) ~ops) ops

let shard_workload ~target ~nshards ~ops =
  let script = shard_script ~nshards ~ops in
  let owner key = Shard.Router.shard_of_key ~nshards key in
  (* the whole keyspace after each prefix of the script *)
  let states =
    let m = ref Smap.empty in
    Array.init (ops + 1) (fun i ->
        (if i > 0 then
           match script.(i - 1) with
           | Shard.Set (k, v) -> m := Smap.add k v !m
           | Shard.Get _ -> ());
        !m)
  in
  let model_of s i =
    Shard.render (Smap.bindings (Smap.filter (fun k _ -> owner k = s) states.(i)))
  in
  {
    name = shard_name ~target ~nshards;
    ops;
    negative = false;
    check_trace = true;
    persist = None;
    model = Array.init (ops + 1) (model_of target);
    make =
      (fun heap ->
        let siblings = Shard.create ~nshards () in
        let kv = Mod_core.Handle.make heap ~slot:Shard.kv_slot in
        let applied = ref 0 in
        let passed = ref None in
        let check_siblings moment =
          let events s =
            Pmem.Region.pm_events (Pmalloc.Heap.region (Shard.heap siblings s))
          in
          let now = Some (!applied, List.init nshards events) in
          if !passed <> now then begin
            for s = 0 to nshards - 1 do
              if s <> target && Shard.dump siblings s <> model_of s !applied
              then
                failwith
                  (Printf.sprintf
                     "sibling shard %d differs from its model after %d \
                      requests, %s shard %d's recovery"
                     s !applied moment target)
            done;
            passed := now
          end
        in
        {
          init =
            (fun () -> ignore (Shard.Kv.open_or_create heap ~slot:Shard.kv_slot));
          run_op =
            (fun i ->
              let req = script.(i) in
              if owner (Shard.key_of req) = target then Shard.execute kv req
              else Shard.apply siblings req;
              applied := i + 1);
          dump = (fun () -> Shard.dump_kv kv);
          recover =
            (fun () ->
              check_siblings "before";
              ignore (Mod_core.Recovery.recover_exn heap);
              check_siblings "after");
        });
  }

(* -- concurrent workloads ------------------------------------------------- *)

(* A concurrent workload scripts [cwriters] writers, each with its own
   deterministic operation sequence over one shared structure; the
   interleaving explorer runs them as cooperative fibers.  The shared
   volatile model advances at each commit's linearization point -- the
   {!Oracle.tracker} hooks fire inside the commit protocol, where the
   simulator guarantees no preemption -- so the tracked history is the
   exact total order the root-record CAS (or the NOrec sequence lock)
   serialized. *)

type cinstance = {
  c_init : unit -> unit;  (** single-writer durable initialization *)
  c_writers : (unit -> unit) array;  (** one closure per writer *)
  c_tracker : Oracle.tracker;
  c_dump : unit -> state;
  c_recover : unit -> unit;
}

type ct = {
  cname : string;
  cwriters : int;
  cops : int;  (** operations per writer *)
  cnegative : bool;
  cmake : Pmalloc.Heap.t -> cinstance;
}

(* Per-writer scripts draw from one small key range so writers genuinely
   contend: overlapping keys force CAS retries and validation aborts. *)
let cmap_scripts name ~writers ~ops =
  Array.init writers (fun w ->
      let rng =
        Random.State.make
          [| seed_of (Printf.sprintf "%s-w%d" name w) ~ops |]
      in
      Array.init ops (fun _ ->
          let k = Random.State.int rng 12 in
          if Random.State.int rng 3 < 2 then
            Minsert (k, Random.State.int rng 1000)
          else Mremove k))

let render_map m = render_pairs (IntMap.bindings m)

let cmap_workload ~writers ~ops =
  let scripts = cmap_scripts "cmap" ~writers ~ops in
  {
    cname = "cmap";
    cwriters = writers;
    cops = ops;
    cnegative = false;
    cmake =
      (fun heap ->
        let tr = Oracle.tracker ~writers ~init:(render_map IntMap.empty) in
        let model = ref IntMap.empty in
        let h = Mod_core.Handle.make heap ~slot:0 in
        let run_op w op =
          let apply m =
            match op with
            | Minsert (k, v) -> IntMap.add k v m
            | Mremove k -> IntMap.remove k m
          in
          let build old =
            match op with
            | Minsert (k, v) -> Some (Imap.insert_pure heap old k v, [])
            | Mremove k ->
                let shadow, removed = Imap.remove_pure heap old k in
                if removed then Some (shadow, []) else None
          in
          (* reclaim:false -- a racing writer may still be mid-build over
             the superseded version; recovery GC scrubs the garbage *)
          ignore
            (Mod_core.Handle.update_cas h ~reclaim:false ~build
               ~before_swing:(fun () ->
                 Oracle.track_pending tr ~writer:w
                   (render_map (apply !model)))
               ~after_swing:(fun () ->
                 model := apply !model;
                 Oracle.track_commit tr ~writer:w (render_map !model))
              : int)
        in
        {
          c_init = (fun () -> ignore (Imap.open_or_create heap ~slot:0));
          c_writers =
            Array.init writers (fun w () ->
                Array.iter (run_op w) scripts.(w));
          c_tracker = tr;
          c_dump = (fun () -> dump_map heap);
          c_recover =
            (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

let cset_scripts ~writers ~ops =
  Array.init writers (fun w ->
      let rng =
        Random.State.make
          [| seed_of (Printf.sprintf "cset-w%d" w) ~ops |]
      in
      Array.init ops (fun _ ->
          let k = Random.State.int rng 12 in
          if Random.State.int rng 3 < 2 then Sadd k else Sremove k))

let cset_workload ~writers ~ops =
  let scripts = cset_scripts ~writers ~ops in
  let render s = render_ints (IntSet.elements s) in
  {
    cname = "cset";
    cwriters = writers;
    cops = ops;
    cnegative = false;
    cmake =
      (fun heap ->
        let tr = Oracle.tracker ~writers ~init:(render IntSet.empty) in
        let model = ref IntSet.empty in
        let h = Mod_core.Handle.make heap ~slot:0 in
        let run_op w op =
          let apply s =
            match op with
            | Sadd k -> IntSet.add k s
            | Sremove k -> IntSet.remove k s
          in
          let build old =
            match op with
            | Sadd k -> Some (Iset.add_pure heap old k, [])
            | Sremove k ->
                let shadow, removed = Iset.remove_pure heap old k in
                if removed then Some (shadow, []) else None
          in
          ignore
            (Mod_core.Handle.update_cas h ~reclaim:false ~build
               ~before_swing:(fun () ->
                 Oracle.track_pending tr ~writer:w (render (apply !model)))
               ~after_swing:(fun () ->
                 model := apply !model;
                 Oracle.track_commit tr ~writer:w (render !model))
              : int)
        in
        {
          c_init = (fun () -> ignore (Iset.open_or_create heap ~slot:0));
          c_writers =
            Array.init writers (fun w () ->
                Array.iter (run_op w) scripts.(w));
          c_tracker = tr;
          c_dump =
            (fun () ->
              Iset.reconstruct heap ~slot:0;
              let h = Mod_core.Handle.make heap ~slot:0 in
              render_ints
                (IntSet.elements (Iset.fold h IntSet.add IntSet.empty)));
          c_recover =
            (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

(* Two writers over the NOrec STM: read-modify-write increments of a
   shared counter array, each commit serialized by the sequence lock and
   made durable by the published redo log.  The model advances at the
   publish fence (the durable linearization point). *)
let cstm_norec_workload ~writers ~ops =
  let scripts =
    Array.init writers (fun w ->
        let rng =
          Random.State.make
            [| seed_of (Printf.sprintf "cstm-w%d" w) ~ops |]
        in
        Array.init ops (fun _ ->
            (Random.State.int rng stm_cells, 1 + Random.State.int rng 99)))
  in
  {
    cname = "cstm-norec";
    cwriters = writers;
    cops = ops;
    cnegative = false;
    cmake =
      (fun heap ->
        let render c = render_ints (Array.to_list c) in
        let model = Array.make stm_cells 0 in
        let tr = Oracle.tracker ~writers ~init:(render model) in
        let stm = ref None in
        let body = ref (-1) in
        let run_op w (idx, delta) =
          let s = Option.get !stm in
          let off = !body + idx in
          Pmstm.Norec.run
            ~before_publish:(fun () ->
              let c = Array.copy model in
              c.(idx) <- c.(idx) + delta;
              Oracle.track_pending tr ~writer:w (render c))
            ~after_publish:(fun () ->
              model.(idx) <- model.(idx) + delta;
              Oracle.track_commit tr ~writer:w (render model))
            s
            (fun tx ->
              let v = Pmem.Word.to_int (Pmstm.Norec.read tx off) in
              Pmstm.Norec.write tx off (Pmem.Word.of_int (v + delta)))
        in
        {
          c_init =
            (fun () ->
              let b =
                Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw
                  ~words:stm_cells
              in
              for i = 0 to stm_cells - 1 do
                Pmalloc.Heap.store heap (b + i) (Pmem.Word.of_int 0)
              done;
              Pmalloc.Heap.flush_block heap b;
              Pmalloc.Heap.root_set heap 1 (Pmem.Word.of_ptr b);
              Pmalloc.Heap.sfence heap;
              body := b;
              let s = Pmstm.Norec.create heap in
              Pmstm.Norec.set_yield s Interleave.yield;
              stm := Some s);
          c_writers =
            Array.init writers (fun w () ->
                Array.iter (run_op w) scripts.(w));
          c_tracker = tr;
          c_dump =
            (fun () ->
              let root = Pmalloc.Heap.root_get heap 1 in
              if Pmem.Word.is_null root then render (Array.make stm_cells 0)
              else
                let b = Pmem.Word.to_ptr root in
                render_ints
                  (List.init stm_cells (fun i ->
                       Pmem.Word.to_int (Pmalloc.Heap.load heap (b + i)))));
          c_recover =
            (fun () ->
              ignore (Mod_core.Recovery.recover_exn ~norec:true heap));
        });
  }

(* The concurrent negative control: lock-free CAS commits whose
   pre-swing sfence is missing, so the root record can become durable
   while the shadow nodes it points at are still in flight.  The
   oracle must catch it; losing attempts leak their shadows
   on purpose (recovery reclaims them -- a real power failure would not
   unwind the loser either). *)
let cmap_nofence_cworkload ~writers ~ops =
  let scripts = cmap_scripts "cmap" ~writers ~ops in
  {
    cname = "cmap-nofence";
    cwriters = writers;
    cops = ops;
    cnegative = true;
    cmake =
      (fun heap ->
        let tr = Oracle.tracker ~writers ~init:(render_map IntMap.empty) in
        let model = ref IntMap.empty in
        let run_op w op =
          let apply m =
            match op with
            | Minsert (k, v) -> IntMap.add k v m
            | Mremove k -> IntMap.remove k m
          in
          let rec attempt () =
            let old, old_seq = Pmalloc.Heap.root_get_versioned heap 0 in
            let shadow =
              match op with
              | Minsert (k, v) -> Some (Imap.insert_pure heap old k v)
              | Mremove k ->
                  let s, removed = Imap.remove_pure heap old k in
                  if removed then Some s else None
            in
            match shadow with
            | None -> ()
            | Some shadow ->
                (* missing ordering point: no sfence before the swing *)
                Oracle.track_pending tr ~writer:w
                  (render_map (apply !model));
                if
                  Pmalloc.Heap.root_cas heap 0 ~expected:old
                    ~expected_seq:old_seq ~desired:shadow
                then begin
                  model := apply !model;
                  Oracle.track_commit tr ~writer:w (render_map !model)
                end
                else attempt ()
          in
          attempt ()
        in
        {
          c_init = (fun () -> ignore (Imap.open_or_create heap ~slot:0));
          c_writers =
            Array.init writers (fun w () ->
                Array.iter (run_op w) scripts.(w));
          c_tracker = tr;
          c_dump = (fun () -> dump_map heap);
          c_recover =
            (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

let concurrent_positive_names = [ "cmap"; "cset"; "cstm-norec" ]
let concurrent_negative_names = [ "cmap-nofence" ]
let concurrent_names = concurrent_positive_names @ concurrent_negative_names

let cbuild name ~writers ~ops =
  if writers < 1 then invalid_arg "Workload.cbuild: writers must be >= 1";
  match name with
  | "cmap" -> cmap_workload ~writers ~ops
  | "cset" -> cset_workload ~writers ~ops
  | "cstm-norec" -> cstm_norec_workload ~writers ~ops
  | "cmap-nofence" -> cmap_nofence_cworkload ~writers ~ops
  | _ ->
      invalid_arg
        (Printf.sprintf
           "Workload.cbuild: unknown concurrent workload %S (expected %s)"
           name
           (String.concat ", " concurrent_names))

(* -- registry ------------------------------------------------------------- *)

let mod_names =
  [
    "map"; "queue"; "stack"; "vec"; "set"; "pqueue"; "seq"; "batched";
    "siblings"; "unrelated";
  ]

(* The seven basic MOD structures: the fault-injection sweep covers
   exactly these.  The composition/STM workloads ride an undo log whose
   count-then-entries protocol is not torn-write-safe by design (the
   paper's FASEs never write multi-word records that must survive
   tearing; the log is the PMDK baseline), so torn faults there would
   report protocol limits, not datastructure bugs. *)
let basic_names = [ "map"; "queue"; "stack"; "vec"; "set"; "pqueue"; "seq" ]

let stm_names = [ "stm14"; "stm15" ]
let negative_names = [ "stm-broken"; "map-nofence" ]
let names = mod_names @ stm_names @ negative_names

(* The workloads that can run under [~persist:Backup]: the seven basic
   structures plus the single-slot batched group commit (whose Single
   commit point becomes a checkpoint).  Siblings/unrelated need
   multi-slot commit points and stage_field, which the Backup policy
   rejects; the STM and negative controls are policy-free baselines. *)
let backup_names = basic_names @ [ "batched" ]

let build ?persist name ~ops =
  (if is_backup persist && not (List.mem name backup_names) then
     invalid_arg
       (Printf.sprintf
          "Workload.build: workload %S does not support the Backup policy \
           (expected %s)"
          name
          (String.concat ", " backup_names)));
  match name with
  | "map" -> map_workload ?persist ~ops ()
  | "queue" -> queue_workload ?persist ~ops ()
  | "stack" -> stack_workload ?persist ~ops ()
  | "vec" -> vec_workload ?persist ~ops ()
  | "set" -> set_workload ?persist ~ops ()
  | "pqueue" -> pqueue_workload ?persist ~ops ()
  | "seq" -> seq_workload ?persist ~ops ()
  | "batched" -> batched_workload ?persist ~ops ()
  | "siblings" -> siblings_workload ~ops
  | "unrelated" -> unrelated_workload ~ops
  | "stm14" -> stm_workload "stm14" Pmstm.Tx.V1_4 ~broken:false ~ops
  | "stm15" -> stm_workload "stm15" Pmstm.Tx.V1_5 ~broken:false ~ops
  | "stm-broken" -> stm_workload "stm-broken" Pmstm.Tx.V1_4 ~broken:true ~ops
  | "map-nofence" -> map_nofence_workload ~ops
  | _ -> (
      match shard_target name with
      | Some (target, nshards) -> shard_workload ~target ~nshards ~ops
      | None ->
          invalid_arg
            (Printf.sprintf
               "Workload.build: unknown workload %S (expected %s, or \
                shard<i>of<n> with 0 <= i < n)"
               name (String.concat ", " names)))
