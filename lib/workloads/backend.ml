(** Workload backends: the three systems Figure 9 compares.

    - [Mod]    -- the paper's contribution (this library);
    - [Pmdk14] -- PM-STM baseline with per-snapshot-fence undo logging;
    - [Pmdk15] -- PM-STM baseline with hybrid undo-redo logging.

    A context owns a fresh simulated heap; PMDK contexts carry the
    transaction machinery, a MOD context creates one lazily only if a
    CommitUnrelated needs it. *)

type kind = Mod | Pmdk14 | Pmdk15

let kind_name = function
  | Mod -> "MOD"
  | Pmdk14 -> "PMDK-1.4"
  | Pmdk15 -> "PMDK-1.5"

let all_kinds = [ Pmdk14; Pmdk15; Mod ]

type t = {
  kind : kind;
  heap : Pmalloc.Heap.t;
  mutable tx : Pmstm.Tx.t option;
  rng : Random.State.t;
  persist : Pmalloc.Heap.policy;
      (* commit policy the MOD structure setups promote their slots to *)
}

let create ?(capacity_words = 1 lsl 21) ?(trace = false) ?(seed = 7)
    ?(persist = Pmalloc.Heap.Full) kind =
  let heap = Pmalloc.Heap.create ~capacity_words ~trace ~seed () in
  let tx =
    match kind with
    | Mod -> None
    | Pmdk14 -> Some (Pmstm.Tx.create heap ~version:Pmstm.Tx.V1_4)
    | Pmdk15 -> Some (Pmstm.Tx.create heap ~version:Pmstm.Tx.V1_5)
  in
  { kind; heap; tx; rng = Random.State.make [| seed |]; persist }

let heap t = t.heap
let kind t = t.kind
let rng t = t.rng
let persist t = t.persist
let stats t = Pmalloc.Heap.stats t.heap

let tx t =
  match t.tx with
  | Some tx -> tx
  | None ->
      let tx = Pmstm.Tx.create t.heap ~version:Pmstm.Tx.V1_5 in
      t.tx <- Some tx;
      tx

(* Every workload keeps its structure in this root slot. *)
let slot = 0

(* The PMDK root publish: [create] builds the structure's descriptor in
   one transaction, which then snapshots the root slot and points it at
   the descriptor. *)
let publish t create =
  let tx = tx t in
  Pmstm.Tx.run tx (fun () ->
      let desc = create tx in
      Pmstm.Tx.add tx ~off:slot ~words:1;
      Pmstm.Tx.store tx slot (Pmem.Word.of_ptr desc);
      desc)

(* Charge the per-iteration application logic (key generation, branching,
   call overhead) that surrounds each datastructure operation.  Its stack
   and code accesses are L1-resident; they enter the hit count so the
   miss-ratio denominator reflects whole-program accesses, as the paper's
   hardware counters do (Figure 11). *)
let app_accesses_per_op = 50

let op_pause t =
  let s = stats t in
  Pmem.Stats.advance s Pmem.Config.op_overhead_ns;
  s.Pmem.Stats.l1_hits <- s.Pmem.Stats.l1_hits + app_accesses_per_op

(* Reset the measurement clock after setup so results cover only the
   measured operation loop.  A telemetry collector attached to this
   heap re-bases with the stats block, or its attribution totals would
   go negative against the zeroed counters. *)
let start_measuring t =
  Pmem.Stats.reset (stats t);
  Option.iter Telemetry.reset (Pmalloc.Heap.telemetry t.heap);
  Pmem.Trace.clear (Pmalloc.Heap.trace t.heap)
