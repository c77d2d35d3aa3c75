(* queue-churn: a Dqueue (Full policy) set up with [resident] elements;
   each round is a seed-driven random walk of single enqueues and
   dequeues that keeps the length within [resident/2, 3 resident/2] and
   ends back at [resident], so every round and the final image hold the
   same number of elements.
   At 64 elements the working set fits the simulated L1D, so an op is
   almost all per-FASE constant cost: the fence drain, the root swing,
   reclamation and a short path copy. *)

module Q = Mod_core.Dqueue

let slot = Streams.slot

type inst = { heap : Pmalloc.Heap.t; q : Q.t }

let build vals =
  let heap = Pmalloc.Heap.create () in
  let q = Q.open_or_create heap ~slot in
  Array.iter (fun v -> Q.enqueue q (Pmem.Word.of_int v)) vals;
  { heap; q }

(* An op stream of even length [ops]: a value >= 0 enqueues it, -1
   dequeues.  Once the steps left only just suffice to walk back to
   [resident], every step heads there. *)
let stream ~seed ~resident ~ops r =
  let rng = Random.State.make [| seed; r |] in
  let len = ref resident in
  Array.init ops (fun i ->
      let left = ops - i in
      let enqueue =
        if !len - resident >= left then false
        else if resident - !len >= left then true
        else if !len <= resident / 2 then true
        else if !len >= 3 * resident / 2 then false
        else Random.State.bool rng
      in
      if enqueue then begin
        incr len;
        Random.State.bits rng
      end
      else begin
        decr len;
        -1
      end)

(* The model after [ops] applied to a copy of [base]; [got.(i)] is what
   dequeue [i] returned (-1 empty, -2 raised) and each mismatch with the
   model's head counts one. *)
let replay base ops got =
  let m = Queue.copy base in
  let bad = ref 0 in
  Array.iteri
    (fun i op ->
      if op >= 0 then Queue.push op m
      else
        let want = match Queue.take_opt m with Some v -> v | None -> -1 in
        match got with
        | Some got when got.(i) <> -2 && got.(i) <> want -> incr bad
        | _ -> ())
    ops;
  (m, !bad)

let contents inst = List.map Pmem.Word.to_int (Q.to_list inst.q)
let model_list m = List.of_seq (Queue.to_seq m)

let decode = function Some w -> Pmem.Word.to_int w | None -> -1

let traced_op ledger inst op =
  let heap = inst.heap in
  let span l f = Measure.Ledger.span ledger l (Pmalloc.Heap.stats heap) f in
  if op >= 0 then begin
    Streams.traced_commit ledger heap
      (span Pfds_update (fun () ->
           Q.enqueue_pure heap (Mod_core.Handle.current inst.q) (Pmem.Word.of_int op)));
    None
  end
  else
    match
      span Pfds_update (fun () ->
          Q.dequeue_pure heap (Mod_core.Handle.current inst.q))
    with
    | None -> None
    | Some (v, shadow) ->
        Streams.traced_commit ledger heap shadow;
        Some v

let spec ~resident ~ops ~seed =
  let rng = Random.State.make [| seed; -2 |] in
  let vals = Array.init resident (fun _ -> Random.State.bits rng) in
  let base = Queue.create () in
  Array.iter (fun v -> Queue.push v base) vals;
  let s = ref [||] and got = Array.make ops 0 and last_model = ref base in
  let record i f =
    got.(i) <- -2;
    got.(i) <- decode (f ())
  in
  let s0 = stream ~seed ~resident ~ops 0 in
  {
    Streams.build = (fun () -> build vals);
    heaps = (fun i -> [ i.heap ]);
    rollback = true;
    prepare = (fun r -> s := stream ~seed ~resident ~ops r);
    op =
      (fun i j ->
        let op = !s.(j) in
        if op >= 0 then Q.enqueue i.q (Pmem.Word.of_int op)
        else record j (fun () -> Q.dequeue i.q));
    traced_op =
      (fun l i j ->
        let op = !s.(j) in
        if op >= 0 then ignore (traced_op l i op)
        else record j (fun () -> traced_op l i op));
    check_round =
      (fun () ->
        let m, bad = replay base !s (Some got) in
        last_model := m;
        bad);
    toggle_telemetry =
      (fun i on ->
        if on then ignore (Pmalloc.Heap.attach_telemetry i.heap)
        else Pmalloc.Heap.set_telemetry i.heap None);
    collector_shipped = false;
    check_main =
      (fun i -> ((if contents i = model_list !last_model then 0 else 1), 1));
    final_ops =
      (fun i ->
        Array.iter
          (fun op ->
            if op >= 0 then Q.enqueue i.q (Pmem.Word.of_int op)
            else ignore (Q.dequeue i.q))
          s0);
    elements = (fun i -> Q.length i.q);
    check_recovered =
      (fun i ->
        (* the last op's root swing may be lost: either state is allowed *)
        let after, _ = replay base s0 None in
        let before, _ = replay base (Array.sub s0 0 (ops - 1)) None in
        let got = contents i in
        ((if got = model_list after || got = model_list before then 0 else 1), 1));
  }

let churn sizes ~resident ~seed ~seconds ~traced =
  Streams.run sizes (spec ~resident ~ops:sizes.Streams.round_ops ~seed) ~seed ~seconds ~traced
