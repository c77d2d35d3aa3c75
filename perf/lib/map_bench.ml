(* map-upsert and map-lookup: one Dmap<int,int> (Full policy) holding
   [keys] keys, a seed-chosen half of [0, 2 keys) inserted in seed
   order; at 50,000 keys that is larger than the simulated 1 MB L2 and
   inside the LLC.  Ops draw keys uniformly from [0, 2 keys), so about
   half the upserts overwrite and half insert, and about half the finds
   hit. *)

module M = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)

let slot = Streams.slot

type inst = { heap : Pmalloc.Heap.t; map : M.t }

(* The set-up (key, value) pairs, in insertion order. *)
let setup_pairs ~seed keys =
  let rng = Random.State.make [| seed; -2 |] in
  let pool = Array.init (2 * keys) Fun.id in
  for i = Array.length pool - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- x
  done;
  Array.init keys (fun i -> (pool.(i), Random.State.bits rng))

let build pairs =
  let heap = Pmalloc.Heap.create () in
  let map = M.open_or_create heap ~slot in
  Array.iter (fun (k, v) -> M.insert map k v) pairs;
  { heap; map }

(* -- the volatile model ---------------------------------------------------- *)

(* The set-up contents plus the current round's writes. *)
type model = { base : (int, int) Hashtbl.t; overlay : (int, int) Hashtbl.t }

let model pairs =
  let base = Hashtbl.create (Array.length pairs) in
  Array.iter (fun (k, v) -> Hashtbl.replace base k v) pairs;
  { base; overlay = Hashtbl.create 1024 }

let model_find m k =
  match Hashtbl.find_opt m.overlay k with
  | Some _ as v -> v
  | None -> Hashtbl.find_opt m.base k

let model_cardinal m =
  Hashtbl.fold
    (fun k _ n -> if Hashtbl.mem m.base k then n else n + 1)
    m.overlay (Hashtbl.length m.base)

(* [samples] sampled keys plus the cardinality against the model;
   returns (mismatches, checks). *)
let check_map ~seed ~keys ~samples inst m =
  let rng = Random.State.make [| seed; -1 |] in
  let bad = ref (if M.cardinal inst.map = model_cardinal m then 0 else 1) in
  for _ = 1 to samples do
    let k = Random.State.int rng (2 * keys) in
    if M.find inst.map k <> model_find m k then incr bad
  done;
  (!bad, samples + 1)

(* -- op streams ------------------------------------------------------------ *)

type stream = { skeys : int array; svals : int array }

let stream ~seed ~keys ~ops r =
  let rng = Random.State.make [| seed; r |] in
  let skeys = Array.init ops (fun _ -> Random.State.int rng (2 * keys)) in
  let svals = Array.init ops (fun _ -> Random.State.bits rng) in
  { skeys; svals }

(* -- ops ------------------------------------------------------------------- *)

(* The traced upsert replays [M.insert]'s FASE from outside. *)
let traced_upsert ledger inst k v =
  let heap = inst.heap in
  Streams.traced_commit ledger heap
    (Measure.Ledger.span ledger Pfds_update (Pmalloc.Heap.stats heap) (fun () ->
         M.insert_pure heap (Mod_core.Handle.current inst.map) k v))

let traced_find ledger inst k =
  Measure.Ledger.span ledger Pfds_find (Pmalloc.Heap.stats inst.heap) (fun () ->
      M.find_in inst.heap (Mod_core.Handle.current inst.map) k)

(* Finds buffer their result for the check after the round: the value,
   -1 for absent, -2 when the find raised. *)
let encode = function Some v -> v | None -> -1

type kind = Upsert | Lookup

let spec kind ~keys ~ops ~check_keys ~seed =
  let pairs = setup_pairs ~seed keys in
  let m = model pairs in
  let s = ref (stream ~seed ~keys ~ops 0) in
  let found = Array.make ops 0 in
  let record i f =
    found.(i) <- -2;
    found.(i) <- encode (f ())
  in
  (* The final image's ops (stream 0) and the op whose root swing they
     leave unfenced, with that key's model value before it. *)
  let s0 = stream ~seed ~keys ~ops 0 in
  let fm = model pairs in
  let last =
    match kind with
    | Lookup ->
        let k, v = pairs.(keys - 1) in
        (k, v, None)
    | Upsert ->
        Array.iteri
          (fun i k -> if i < ops - 1 then Hashtbl.replace fm.overlay k s0.svals.(i))
          s0.skeys;
        let k = s0.skeys.(ops - 1) and v = s0.svals.(ops - 1) in
        let prev = model_find fm k in
        Hashtbl.replace fm.overlay k v;
        (k, v, prev)
  in
  {
    Streams.build = (fun () -> build pairs);
    heaps = (fun i -> [ i.heap ]);
    rollback = kind = Upsert;
    prepare =
      (fun r ->
        Hashtbl.reset m.overlay;
        s := stream ~seed ~keys ~ops r);
    op =
      (match kind with
      | Upsert -> fun i j -> M.insert i.map !s.skeys.(j) !s.svals.(j)
      | Lookup -> fun i j -> record j (fun () -> M.find i.map !s.skeys.(j)));
    traced_op =
      (match kind with
      | Upsert -> fun l i j -> traced_upsert l i !s.skeys.(j) !s.svals.(j)
      | Lookup -> fun l i j -> record j (fun () -> traced_find l i !s.skeys.(j)));
    check_round =
      (fun () ->
        match kind with
        | Upsert ->
            Array.iteri (fun j k -> Hashtbl.replace m.overlay k !s.svals.(j)) !s.skeys;
            0
        | Lookup ->
            let bad = ref 0 in
            Array.iteri
              (fun j k ->
                if found.(j) <> -2 && found.(j) <> encode (model_find m k) then
                  incr bad)
              !s.skeys;
            !bad);
    toggle_telemetry =
      (fun i on ->
        if on then ignore (Pmalloc.Heap.attach_telemetry i.heap)
        else Pmalloc.Heap.set_telemetry i.heap None);
    collector_shipped = false;
    check_main = (fun i -> check_map ~seed ~keys ~samples:check_keys i m);
    final_ops =
      (fun i ->
        match kind with
        | Upsert -> Array.iteri (fun j k -> M.insert i.map k s0.svals.(j)) s0.skeys
        | Lookup -> Array.iter (fun k -> ignore (M.find i.map k)) s0.skeys);
    elements = (fun i -> M.cardinal i.map);
    check_recovered =
      (fun i ->
        let k, v, prev = last in
        let got = M.find i.map k in
        let bad =
          if got = Some v then 0
          else if got = prev then begin
            (* the last op was lost: the window's older state *)
            Hashtbl.remove fm.overlay k;
            Hashtbl.remove fm.base k;
            Option.iter (Hashtbl.replace fm.overlay k) prev;
            0
          end
          else 1
        in
        let bad', checks = check_map ~seed ~keys ~samples:check_keys i fm in
        (bad + bad', checks + 1));
  }

let run kind sizes ~keys ~check_keys ~seed ~seconds ~traced =
  Streams.run sizes
    (spec kind ~keys ~ops:sizes.Streams.round_ops ~check_keys ~seed)
    ~seed ~seconds ~traced

let upsert = run Upsert
let lookup = run Lookup
