(** The vacation workload (Table 2): a travel-reservation system with four
    recoverable maps -- cars, flights, rooms, customers -- all members of
    one manager object.

    A reservation touches an item table {e and} the customer table in one
    failure-atomic section.  On MOD this is exactly the CommitSiblings
    case the paper used when porting vacation (Section 6.2): the manager
    parent object is shadow-copied to point at the updated maps and
    swapped in with a single fence + one atomic write.  On PMDK all
    updates run in one undo-logged transaction. *)

module Mod_tbl = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)
module Pm_tbl = Pmstm.Pm_hashmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)

let n_tables = 4
let cars = 0
let flights = 1
let rooms = 2
let customers = 3

(* Item payload: availability and price packed into one scalar. *)
let pack ~avail ~price = (avail * 10_000) + price
let avail_of v = v / 10_000
let price_of v = v mod 10_000

(* The manager's operations, each one failure-atomic section. *)
type ops = {
  put : table:int -> int -> int -> unit;  (* one item row *)
  reserve : table:int -> item:int -> cid:int -> unit;
  delete_customer : int -> unit;
}

(* -- MOD: manager object + Composition interface ------------------------- *)

let mod_ops heap =
  let slot = Backend.slot in
  let parent = Pfds.Node.alloc heap ~words:n_tables in
  for f = 0 to n_tables - 1 do
    Pfds.Node.set heap parent f (Mod_tbl.empty_version heap)
  done;
  Pfds.Node.finish heap parent;
  Mod_core.Commit.single heap ~slot (Pmem.Word.of_ptr parent);
  let field f =
    Pfds.Node.get heap (Pmem.Word.to_ptr (Pmalloc.Heap.root_get heap slot)) f
  in
  (* one FASE: pure updates on the named tables, then CommitSiblings *)
  let commit fields = Mod_core.Commit.siblings heap ~slot fields in
  {
    put =
      (fun ~table item payload ->
        let tbl' = Mod_tbl.insert_pure heap (field table) item payload in
        commit [ (table, tbl') ]);
    reserve =
      (fun ~table ~item ~cid ->
        let tbl = field table in
        match Mod_tbl.find_in heap tbl item with
        | Some v when avail_of v > 0 ->
            let tbl' =
              Mod_tbl.insert_pure heap tbl item
                (pack ~avail:(avail_of v - 1) ~price:(price_of v))
            in
            let cust = field customers in
            let count =
              Option.value ~default:0 (Mod_tbl.find_in heap cust cid)
            in
            let cust' = Mod_tbl.insert_pure heap cust cid (count + 1) in
            commit [ (table, tbl'); (customers, cust') ]
        | Some _ | None -> ());
    delete_customer =
      (fun cid ->
        let cust', removed = Mod_tbl.remove_pure heap (field customers) cid in
        if removed then commit [ (customers, cust') ]);
  }

(* -- PMDK: four hashmaps under a parent block ----------------------------- *)

let pmdk_ops ctx ~relations =
  let heap = Backend.heap ctx in
  let descs = Array.make n_tables 0 in
  ignore
    (Backend.publish ctx (fun tx ->
         for f = 0 to n_tables - 1 do
           descs.(f) <- Pm_tbl.create tx ~nbuckets:(max 64 relations)
         done;
         let parent =
           Pmstm.Tx.alloc tx ~kind:Pmalloc.Block.Scanned ~words:n_tables
         in
         Array.iteri
           (fun f d ->
             Pmstm.Tx.store_fresh tx (parent + f) (Pmem.Word.of_ptr d))
           descs;
         parent)
      : int);
  let tx = Backend.tx ctx in
  {
    put =
      (fun ~table item payload ->
        Pmstm.Tx.run tx (fun () ->
            ignore (Pm_tbl.insert tx descs.(table) item payload : bool)));
    reserve =
      (fun ~table ~item ~cid ->
        Pmstm.Tx.run tx (fun () ->
            match Pm_tbl.find heap descs.(table) item with
            | Some v when avail_of v > 0 ->
                ignore
                  (Pm_tbl.insert tx descs.(table) item
                     (pack ~avail:(avail_of v - 1) ~price:(price_of v))
                    : bool);
                let count =
                  Option.value ~default:0
                    (Pm_tbl.find heap descs.(customers) cid)
                in
                ignore
                  (Pm_tbl.insert tx descs.(customers) cid (count + 1) : bool)
            | Some _ | None -> ()));
    delete_customer =
      (fun cid ->
        Pmstm.Tx.run tx (fun () ->
            ignore (Pm_tbl.remove tx descs.(customers) cid : bool)));
  }

(* -- the operation mix ----------------------------------------------------- *)

let run ctx ~ops ~relations =
  let v =
    match Backend.kind ctx with
    | Backend.Mod -> mod_ops (Backend.heap ctx)
    | Backend.Pmdk14 | Backend.Pmdk15 -> pmdk_ops ctx ~relations
  in
  let rng = Backend.rng ctx in
  (* populate the three item tables *)
  for item = 0 to relations - 1 do
    let price = 100 + Random.State.int rng 400 in
    let avail = 10 + Random.State.int rng 90 in
    for table = 0 to 2 do
      v.put ~table item (pack ~avail ~price)
    done
  done;
  Backend.start_measuring ctx;
  Ops.run ctx ~ops ~batch:1 v (fun v ->
      let dice = Random.State.int rng 100 in
      if dice < 80 then begin
        let table = Random.State.int rng 3 in
        let item = Random.State.int rng relations in
        let cid = Random.State.int rng relations in
        v.reserve ~table ~item ~cid
      end
      else if dice < 90 then v.delete_customer (Random.State.int rng relations)
      else begin
        (* manage the tables: re-price and restock one item *)
        let table = Random.State.int rng 3 in
        let item = Random.State.int rng relations in
        let price = 100 + Random.State.int rng 400 in
        let avail = 50 + Random.State.int rng 50 in
        v.put ~table item (pack ~avail ~price)
      end)
