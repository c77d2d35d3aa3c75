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

(* [l]'s elements between [first] and [last], split by [sep]; one
   buffer, no format interpretation. *)
let render_list first sep last add l =
  let b = Buffer.create 64 in
  Buffer.add_char b first;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b sep;
      add b x)
    l;
  Buffer.add_char b last;
  Buffer.contents b

(* [i]'s decimal digits, as [string_of_int] prints them, written straight
   into [b]: [string_of_int] goes through [caml_format_int], which parses
   its "%d" format on every call.  [-min_int] does not exist, so
   [min_int] takes the library path. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b i =
  if i >= 0 then add_digits b i
  else if i = min_int then Buffer.add_string b (string_of_int i)
  else begin
    Buffer.add_char b '-';
    add_digits b (-i)
  end

let render_ints l = render_list '[' ';' ']' add_int l

(* [render_ints] of the words' integers, without the list of them. *)
let render_words l =
  render_list '[' ';' ']' (fun b w -> add_int b (Pmem.Word.to_int w)) l

let render_pairs l =
  render_list '{' ',' '}'
    (fun b (k, v) ->
      add_int b k;
      Buffer.add_char b ':';
      add_int b v)
    l

(* [prefix_states ~init ~apply script] is the ops+1 abstract states after
   every prefix of [script], starting from [init]. *)
let prefix_states ~init ~apply script =
  let states = Array.make (Array.length script + 1) init in
  Array.iteri (fun i op -> states.(i + 1) <- apply states.(i) op) script;
  states

(* [n] draws of [draw] from one RNG seeded with [seed].  A script must
   keep its draw order, and OCaml evaluates a constructor's or a
   function's arguments right to left: an expression that takes two
   draws stays exactly as written. *)
let draws ~seed n draw =
  let rng = Random.State.make [| seed |] in
  Array.init n (fun _ -> draw rng)

(* -- one shape for the one-slot structures -------------------------------- *)

(* What a workload needs of one structure at root slot 0, written once for
   its sequential and concurrent workloads.  The model: the empty state,
   one operation's effect and the canonical rendering.  [dump] renders
   the state the heap holds, after a Backup slot's reconstruction,
   straight from the structure: the string [render] gives the same
   abstract state.  [open_] initializes the slot under a commit policy,
   and [op heap] is one instance's operation body, built with the
   instance, so it may hold per-heap state (a handle, a batch). *)
type ('op, 's) spec = {
  empty : 's;
  apply : 's -> 'op -> 's;
  render : 's -> state;
  dump : Pmalloc.Heap.t -> state;
  open_ : Pmalloc.Heap.policy option -> Pmalloc.Heap.t -> unit;
  op : Pmalloc.Heap.t -> 'op -> unit;
}

(* A sequential workload: [s]'s operation body runs [script]. *)
let basic ?persist ?(negative = false) name ~ops s script =
  {
    name;
    ops;
    negative;
    check_trace = not (is_backup persist);
    persist;
    model =
      Array.map s.render (prefix_states ~init:s.empty ~apply:s.apply script);
    make =
      (fun heap ->
        let op = s.op heap in
        {
          init = (fun () -> s.open_ persist heap);
          run_op = (fun i -> op script.(i));
          dump = (fun () -> s.dump heap);
          recover = (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

(* Slot 0's handle, once a Backup slot's log is replayed (a no-op under
   Full). *)
let slot0 reconstruct heap =
  reconstruct heap ~slot:0;
  Mod_core.Handle.make heap ~slot:0

let on_slot0 f heap = f (Mod_core.Handle.make heap ~slot:0)
let tail = function [] -> [] | _ :: tl -> tl

(* -- map / set ------------------------------------------------------------ *)

module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)
module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)
module Iset = Mod_core.Dset.Make (Pfds.Kv.Int)

type map_op = Minsert of int * int | Mremove of int
type set_op = Sadd of int | Sremove of int

let map_op ~keys rng =
  let k = Random.State.int rng keys in
  if Random.State.int rng 3 < 2 then Minsert (k, Random.State.int rng 1000)
  else Mremove k

let set_op ~keys rng =
  let k = Random.State.int rng keys in
  if Random.State.int rng 3 < 2 then Sadd k else Sremove k

(* A map's and a set's renderings from their CHAMP folds: the fold's
   loads as they come, then its keys sorted, as [IntMap.bindings] and
   [IntSet.elements] list them.  A damaged image can fold a key twice,
   and the rendering keeps one binding, the one folded last, as
   [IntMap.add] would. *)
let dump_map h =
  let rec first_of_each = function
    | ((k, _) as b) :: (k', _) :: l when k = k' -> first_of_each (b :: l)
    | b :: l -> b :: first_of_each l
    | [] -> []
  in
  (* newest first, so the stable sort puts each key's last binding first *)
  render_pairs
    (first_of_each
       (List.stable_sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (Imap.fold h (fun k v l -> (k, v) :: l) [])))

let dump_set h =
  render_ints (List.sort_uniq Int.compare (Iset.fold h (fun k l -> k :: l) []))

let map =
  {
    empty = IntMap.empty;
    apply =
      (fun m -> function
        | Minsert (k, v) -> IntMap.add k v m
        | Mremove k -> IntMap.remove k m);
    render = (fun m -> render_pairs (IntMap.bindings m));
    dump = (fun heap -> dump_map (slot0 Imap.reconstruct heap));
    open_ =
      (fun persist heap -> ignore (Imap.open_or_create ?persist heap ~slot:0));
    op =
      on_slot0 (fun h -> function
        | Minsert (k, v) -> Imap.insert h k v
        | Mremove k -> ignore (Imap.remove h k : bool));
  }

let set =
  {
    empty = IntSet.empty;
    apply =
      (fun s -> function
        | Sadd k -> IntSet.add k s
        | Sremove k -> IntSet.remove k s);
    render = (fun s -> render_ints (IntSet.elements s));
    dump = (fun heap -> dump_set (slot0 Iset.reconstruct heap));
    open_ =
      (fun persist heap -> ignore (Iset.open_or_create ?persist heap ~slot:0));
    op =
      on_slot0 (fun h -> function
        | Sadd k -> Iset.add h k
        | Sremove k -> ignore (Iset.remove h k : bool));
  }

(* A map or set operation as a pure update of [version]: the shadow, and
   whether it changed anything (removing an absent key returns
   [version]). *)
let map_step heap version = function
  | Minsert (k, v) -> (Imap.insert_pure heap version k v, true)
  | Mremove k -> Imap.remove_pure heap version k

let set_step heap version = function
  | Sadd k -> (Iset.add_pure heap version k, true)
  | Sremove k -> Iset.remove_pure heap version k

let map_script ~ops = draws ~seed:(seed_of "map" ~ops) ops (map_op ~keys:24)

(* A deliberately broken MOD map: commits swing the root pointer without
   the preceding sfence, so the durable root can point at a shadow whose
   nodes never became durable.  The Section 5.4 trace checker does not
   catch this (it only inspects flush-before-fence pairs, and there are
   no fences); only the durable-linearizability oracle does. *)
let map_nofence =
  let broken_commit heap version =
    let old = Pmalloc.Heap.root_get heap 0 in
    (* missing ordering point: no sfence before the root swing *)
    Pmalloc.Heap.root_set heap 0 version;
    if Pmem.Word.is_ptr old && not (Pmem.Word.is_null old) then
      Pmalloc.Heap.release heap (Pmem.Word.to_ptr old)
  in
  {
    map with
    open_ = (fun _ _ -> ());
    op =
      on_slot0 (fun h op ->
          let heap = Mod_core.Handle.heap h in
          let shadow, changed = map_step heap (Mod_core.Handle.current h) op in
          if changed then broken_commit heap shadow);
  }

(* -- stack / queue / priority queue --------------------------------------- *)

type sq_op = Push of int | Pop

(* Pushes, and pops of a non-empty structure. *)
let push_pop name ~ops =
  let depth = ref 0 in
  draws ~seed:(seed_of name ~ops) ops (fun rng ->
      if !depth > 0 && Random.State.int rng 3 = 0 then begin
        decr depth;
        Pop
      end
      else begin
        incr depth;
        Push (Random.State.int rng 1000)
      end)

let stack =
  {
    empty = [];
    apply = (fun s -> function Push v -> v :: s | Pop -> tail s);
    render = render_ints;
    dump =
      (fun heap ->
        render_words
          (Mod_core.Dstack.to_list (slot0 Mod_core.Dstack.reconstruct heap)));
    open_ =
      (fun persist heap ->
        ignore (Mod_core.Dstack.open_or_create ?persist heap ~slot:0));
    op =
      on_slot0 (fun h -> function
        | Push v -> Mod_core.Dstack.push h (Pmem.Word.of_int v)
        | Pop -> ignore (Mod_core.Dstack.pop h));
  }

(* The elements of a descriptor-rooted structure: none before [init]
   commits its descriptor. *)
let elements to_list h =
  render_words (if Mod_core.Handle.is_initialized h then to_list h else [])

let queue =
  {
    stack with
    apply = (fun q -> function Push v -> q @ [ v ] | Pop -> tail q);
    dump =
      (fun heap ->
        elements Mod_core.Dqueue.to_list
          (slot0 Mod_core.Dqueue.reconstruct heap));
    open_ =
      (fun persist heap ->
        ignore (Mod_core.Dqueue.open_or_create ?persist heap ~slot:0));
    op =
      on_slot0 (fun h -> function
        | Push v -> Mod_core.Dqueue.enqueue h (Pmem.Word.of_int v)
        | Pop -> ignore (Mod_core.Dqueue.dequeue h));
  }

let pqueue =
  {
    stack with
    apply =
      (fun s -> function Push p -> List.sort compare (p :: s) | Pop -> tail s);
    dump =
      (fun heap ->
        render_ints
          (Pfds.Pheap.to_sorted_list_model heap
             (Mod_core.Handle.current
                (slot0 Mod_core.Dpqueue.reconstruct heap))));
    open_ =
      (fun persist heap ->
        ignore (Mod_core.Dpqueue.open_or_create ?persist heap ~slot:0));
    op =
      on_slot0 (fun h -> function
        | Push p -> Mod_core.Dpqueue.insert h p
        | Pop -> ignore (Mod_core.Dpqueue.delete_min h));
  }

(* -- vector / sequence ---------------------------------------------------- *)

type vec_op = Vpush of int | Vset of int * int | Vpop

let vec_script name ~ops =
  let size = ref 0 in
  draws ~seed:(seed_of name ~ops) ops (fun rng ->
      match if !size = 0 then 0 else Random.State.int rng 4 with
      | 0 | 3 ->
          incr size;
          Vpush (Random.State.int rng 1000)
      | 1 -> Vset (Random.State.int rng !size, Random.State.int rng 1000)
      | _ ->
          decr size;
          Vpop)

let vec =
  {
    empty = [];
    apply =
      (fun l -> function
        | Vpush v -> l @ [ v ]
        | Vset (i, v) -> List.mapi (fun j x -> if j = i then v else x) l
        | Vpop -> List.rev (tail (List.rev l)));
    render = render_ints;
    dump =
      (fun heap ->
        elements Mod_core.Dvec.to_list (slot0 Mod_core.Dvec.reconstruct heap));
    open_ =
      (fun persist heap ->
        ignore (Mod_core.Dvec.open_or_create ?persist heap ~slot:0));
    op =
      on_slot0 (fun h -> function
        | Vpush v -> Mod_core.Dvec.push_back h (Pmem.Word.of_int v)
        | Vset (j, v) -> Mod_core.Dvec.set h j (Pmem.Word.of_int v)
        | Vpop -> ignore (Mod_core.Dvec.pop_back h));
  }

let seq =
  {
    vec with
    dump =
      (fun heap ->
        elements Mod_core.Dseq.to_list (slot0 Mod_core.Dseq.reconstruct heap));
    open_ =
      (fun persist heap ->
        ignore (Mod_core.Dseq.open_or_create ?persist heap ~slot:0));
    op =
      on_slot0 (fun h -> function
        | Vpush v -> Mod_core.Dseq.push_back h (Pmem.Word.of_int v)
        | Vset (j, v) -> Mod_core.Dseq.set h j (Pmem.Word.of_int v)
        | Vpop ->
            let size = Mod_core.Dseq.size h in
            Mod_core.Dseq.restrict h ~pos:0 ~len:(size - 1));
  }

(* -- group-commit batching (Batch / CommitSiblings / CommitUnrelated) ----- *)

(* Each logical operation is a group of [batch_group] map sub-operations
   staged into one {!Mod_core.Batch} and retired by a single
   CommitSingle: a crash inside the group must recover to either the
   state before the whole group or after it, never in between. *)
let batch_group = 3

let batched_script ~ops =
  let subs =
    draws ~seed:(seed_of "batched" ~ops) (ops * batch_group) (map_op ~keys:24)
  in
  Array.init ops (fun i -> Array.sub subs (i * batch_group) batch_group)

let batched =
  {
    map with
    apply = (fun m group -> Array.fold_left map.apply m group);
    op =
      (fun heap ->
        let b = Mod_core.Batch.create heap in
        fun group ->
          Array.iter
            (fun op ->
              Mod_core.Batch.stage b ~slot:0 (fun version ->
                  fst (map_step heap version op)))
            group;
          ignore (Mod_core.Batch.commit b : Mod_core.Batch.commit_point));
  }

(* CommitSiblings under crash: one parent object at slot 0 whose two
   fields are independent stacks; every op updates both fields through
   {!Mod_core.Batch.stage_field} and retires them with one fresh parent
   and one fence.  Recovery must see both stacks move together. *)
let siblings =
  {
    empty = ([], []);
    apply =
      (fun (a, b) -> function
        | Push v -> (v :: a, (v + 500) :: b)
        | Pop -> (
            match (a, b) with _ :: ta, _ :: tb -> (ta, tb) | _ -> (a, b)));
    render = (fun (a, b) -> render_ints a ^ "|" ^ render_ints b);
    dump =
      (fun heap ->
        let root = Pmalloc.Heap.root_get heap 0 in
        if Pmem.Word.is_null root then "[]|[]"
        else
          let parent = Pmem.Word.to_ptr root in
          let stack f =
            render_words
              (Pfds.Pstack.to_list heap (Pfds.Node.get heap parent f))
          in
          (* field 1, then field 0: keep this load order, so the dump's
             simulated events stay as the sweeps recorded them *)
          let b = stack 1 in
          stack 0 ^ "|" ^ b);
    open_ =
      (fun _ heap ->
        (* one FASE: build the two-field parent, install it *)
        let parent = Pfds.Node.alloc heap ~words:2 in
        Pfds.Node.set heap parent 0 Pfds.Pstack.empty;
        Pfds.Node.set heap parent 1 Pfds.Pstack.empty;
        Pfds.Node.finish heap parent;
        Mod_core.Commit.single heap ~slot:0 (Pmem.Word.of_ptr parent));
    op =
      (fun heap ->
        let b = Mod_core.Batch.create heap in
        fun op ->
          let stage_stack field f =
            Mod_core.Batch.stage_field b ~slot:0 ~field f
          in
          (match op with
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
  }

(* CommitUnrelated under crash: two maps at unrelated root slots 0 and 1,
   both updated in one batch, retired by the shadow fence plus the
   embedded PM-STM root-swing transaction.  A crash inside that
   transaction must roll back both root swings together (the WAL is the
   atomicity mechanism, exactly Figure 8d).  Hand-written: its embedded
   transaction needs its own recovery and no trace check. *)
let unrelated_workload ~ops =
  let script =
    draws ~seed:(seed_of "unrelated" ~ops) ops (fun rng ->
        let k = Random.State.int rng 24 in
        let v = Random.State.int rng 1000 in
        (k, v, Random.State.int rng 3 < 2))
  in
  let render (m0, m1) = map.render m0 ^ "|" ^ map.render m1 in
  let dump heap =
    (* slot 1, then slot 0: keep this load order, so the dump's simulated
       events stay as the sweeps recorded them *)
    let m1 = dump_map (Mod_core.Handle.make heap ~slot:1) in
    map.dump heap ^ "|" ^ m1
  in
  {
    name = "unrelated";
    ops;
    negative = false;
    (* the embedded PM-STM transaction writes in place by design, so the
       Section 5.4 MOD trace invariant does not apply *)
    check_trace = false;
    persist = None;
    model =
      Array.map render
        (prefix_states
           ~init:(IntMap.empty, IntMap.empty)
           ~apply:(fun (m0, m1) (k, v, add1) ->
             ( IntMap.add k v m0,
               if add1 then IntMap.add k (v + 1) m1 else IntMap.remove k m1 ))
           script);
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
              let k, v, add1 = script.(i) in
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

(* An 8-cell counter array at root slot 1, updated in place by
   transactions: each op adds a delta to one cell. *)
let stm_cells = 8
let stm_op rng = (Random.State.int rng stm_cells, 1 + Random.State.int rng 99)

(* The counters, created zeroed and made durable under one fence. *)
let create_cells heap =
  let b = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:stm_cells in
  for i = 0 to stm_cells - 1 do
    Pmalloc.Heap.store heap (b + i) (Pmem.Word.of_int 0)
  done;
  Pmalloc.Heap.flush_block heap b;
  Pmalloc.Heap.root_set heap 1 (Pmem.Word.of_ptr b);
  Pmalloc.Heap.sfence heap;
  b

(* The counters' rendering: zeros before they exist. *)
let dump_cells heap =
  let root = Pmalloc.Heap.root_get heap 1 in
  render_ints
    (if Pmem.Word.is_null root then List.init stm_cells (fun _ -> 0)
     else
       let body = Pmem.Word.to_ptr root in
       List.init stm_cells (fun i ->
           Pmem.Word.to_int (Pmalloc.Heap.load heap (body + i))))

(* PMDK-style undo-log transactions.  The log makes every committed
   transaction durable, so recovery must observe exactly the last
   committed state (positive control).  The [broken] variant skips the
   snapshot fences and the commit-time data flushes -- the oracle must
   catch it. *)
let stm_workload name version ~broken ~ops =
  let script = draws ~seed:(seed_of name ~ops) ops stm_op in
  {
    name;
    ops;
    negative = broken;
    check_trace = false (* in-place by design: invariant 1 never holds *);
    persist = None;
    model =
      Array.map
        (fun c -> render_ints (Array.to_list c))
        (prefix_states
           ~init:(Array.make stm_cells 0)
           ~apply:(fun c (idx, delta) ->
             let c' = Array.copy c in
             c'.(idx) <- c'.(idx) + delta;
             c')
           script);
    make =
      (fun heap ->
        let tx = ref None in
        let body = ref (-1) in
        {
          init =
            (fun () ->
              tx :=
                Some (Pmstm.Tx.create heap ~version ~broken_ordering:broken);
              body := create_cells heap);
          run_op =
            (fun i ->
              let t = Option.get !tx in
              let idx, delta = script.(i) in
              let off = !body + idx in
              Pmstm.Tx.run t (fun () ->
                  Pmstm.Tx.add t ~off ~words:1;
                  let v = Pmem.Word.to_int (Pmstm.Tx.load t off) in
                  Pmstm.Tx.store t off (Pmem.Word.of_int (v + delta))));
          dump = (fun () -> dump_cells heap);
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

(* Per-writer scripts, each from its writer's own seed. *)
let writer_scripts name ~writers ~ops draw =
  Array.init writers (fun w ->
      draws ~seed:(seed_of (Printf.sprintf "%s-w%d" name w) ~ops) ops draw)

(* Lock-free writers over a one-slot structure: each operation is [step]'s
   pure update of the version the writer read, skipped when it changes
   nothing, and swung in by a root-record CAS retried until it wins.  The
   model, rendering and dump are [s]'s, as in the sequential workload.
   [~fenced:false] drops the sfence before the swing: the negative
   control, whose losing attempts leak their shadows on purpose
   (recovery reclaims them -- a real power failure would not unwind the
   loser either). *)
let cas_writers ?(fenced = true) name ~ops s ~step scripts =
  let writers = Array.length scripts in
  {
    cname = name;
    cwriters = writers;
    cops = ops;
    cnegative = not fenced;
    cmake =
      (fun heap ->
        let tr = Oracle.tracker ~writers ~init:(s.render s.empty) in
        let model = ref s.empty in
        let h = Mod_core.Handle.make heap ~slot:0 in
        let run_op w op =
          let before_swing () =
            Oracle.track_pending tr ~writer:w (s.render (s.apply !model op))
          in
          let after_swing () =
            model := s.apply !model op;
            Oracle.track_commit tr ~writer:w (s.render !model)
          in
          let build old =
            match step heap old op with
            | shadow, true -> Some (shadow, [])
            | _, false -> None
          in
          if fenced then
            (* reclaim:false -- a racing writer may still be mid-build over
               the superseded version; recovery GC scrubs the garbage *)
            ignore
              (Mod_core.Handle.update_cas h ~reclaim:false ~build ~before_swing
                 ~after_swing
                : int)
          else
            let rec attempt () =
              let old, old_seq = Pmalloc.Heap.root_get_versioned heap 0 in
              match build old with
              | None -> ()
              | Some (shadow, _) ->
                  (* missing ordering point: no sfence before the swing *)
                  before_swing ();
                  if
                    Pmalloc.Heap.root_cas heap 0 ~expected:old
                      ~expected_seq:old_seq ~desired:shadow
                  then after_swing ()
                  else attempt ()
            in
            attempt ()
        in
        {
          c_init = (fun () -> s.open_ None heap);
          c_writers =
            Array.init writers (fun w () -> Array.iter (run_op w) scripts.(w));
          c_tracker = tr;
          c_dump = (fun () -> s.dump heap);
          c_recover = (fun () -> ignore (Mod_core.Recovery.recover_exn heap));
        });
  }

(* Two writers over the NOrec STM: read-modify-write increments of a
   shared counter array, each commit serialized by the sequence lock and
   made durable by the published redo log.  The model advances at the
   publish fence (the durable linearization point).  Hand-written: its
   commits are transactions, not root swings. *)
let cstm_norec_workload ~writers ~ops =
  let scripts = writer_scripts "cstm" ~writers ~ops stm_op in
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
              body := create_cells heap;
              let s = Pmstm.Norec.create heap in
              Pmstm.Norec.set_yield s Interleave.yield;
              stm := Some s);
          c_writers =
            Array.init writers (fun w () ->
                Array.iter (run_op w) scripts.(w));
          c_tracker = tr;
          c_dump = (fun () -> dump_cells heap);
          c_recover =
            (fun () ->
              ignore (Mod_core.Recovery.recover_exn ~norec:true heap));
        });
  }

let concurrent_positive_names = [ "cmap"; "cset"; "cstm-norec" ]
let concurrent_negative_names = [ "cmap-nofence" ]
let concurrent_names = concurrent_positive_names @ concurrent_negative_names

let cbuild name ~writers ~ops =
  if writers < 1 then invalid_arg "Workload.cbuild: writers must be >= 1";
  (* the writers contend: their keys come from one small range *)
  let maps () = writer_scripts "cmap" ~writers ~ops (map_op ~keys:12) in
  match name with
  | "cmap" -> cas_writers name ~ops map ~step:map_step (maps ())
  | "cset" ->
      cas_writers name ~ops set ~step:set_step
        (writer_scripts "cset" ~writers ~ops (set_op ~keys:12))
  | "cstm-norec" -> cstm_norec_workload ~writers ~ops
  | "cmap-nofence" ->
      cas_writers ~fenced:false name ~ops map ~step:map_step (maps ())
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
  let structure s script = basic ?persist name ~ops s script in
  match name with
  | "map" -> structure map (map_script ~ops)
  | "queue" -> structure queue (push_pop name ~ops)
  | "stack" -> structure stack (push_pop name ~ops)
  | "vec" -> structure vec (vec_script name ~ops)
  | "set" ->
      structure set (draws ~seed:(seed_of name ~ops) ops (set_op ~keys:24))
  | "pqueue" -> structure pqueue (push_pop name ~ops)
  | "seq" -> structure seq (vec_script name ~ops)
  | "batched" -> structure batched (batched_script ~ops)
  | "siblings" -> basic name ~ops siblings (push_pop name ~ops)
  | "unrelated" -> unrelated_workload ~ops
  | "stm14" -> stm_workload "stm14" Pmstm.Tx.V1_4 ~broken:false ~ops
  | "stm15" -> stm_workload "stm15" Pmstm.Tx.V1_5 ~broken:false ~ops
  | "stm-broken" -> stm_workload "stm-broken" Pmstm.Tx.V1_4 ~broken:true ~ops
  | "map-nofence" ->
      basic ~negative:true name ~ops map_nofence (map_script ~ops)
  | _ -> (
      match shard_target name with
      | Some (target, nshards) -> shard_workload ~target ~nshards ~ops
      | None ->
          invalid_arg
            (Printf.sprintf
               "Workload.build: unknown workload %S (expected %s, or \
                shard<i>of<n> with 0 <= i < n)"
               name (String.concat ", " names)))
