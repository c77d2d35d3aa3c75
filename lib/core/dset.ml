(** MOD durable set: a {!Dmap} with unit values (the paper's set shares
    the map's CHAMP implementation the same way). *)

module Make (K : Pfds.Kv.CODEC) = struct
  module M = Dmap.Make (K) (Pfds.Kv.Unit)

  type t = M.t
  type elt = K.t

  let structure = "dset"

  (* The map's layout under the set's own Backup tag, so neither opens
     the other's Backup slot. *)
  let layout =
    Handle.layout ~name:"Dset" ~shape:"CHAMP node (scanned block)" ~words:None
      ~empty:None M.apply

  let open_or_create ?persist = Handle.open_or_create layout ?persist
  let open_result = Handle.open_result layout
  let reconstruct = Handle.reconstruct layout
  let handle t = t
  let empty_version = M.empty_version
  let add_pure heap version key = M.insert_pure heap version key ()
  let remove_pure = M.remove_pure
  let mem_in = M.mem_in
  let size_in = M.size_in

  (* The set's span encloses the map's, and the outermost span owns the
     delta, so set traffic is attributed to "dset", never to "dmap". *)
  let add t key =
    Handle.span t ~structure ~op:"add" (fun () -> M.insert t key ())

  let add_many t ks = Handle.many t ~structure ~op:"add_many" add_pure ks

  let remove t key =
    Handle.span t ~structure ~op:"remove" (fun () -> M.remove t key)

  let mem t key = Handle.span t ~structure ~op:"mem" (fun () -> M.mem t key)
  let cardinal = M.cardinal
  let iter t fn = M.iter t (fun k () -> fn k)
  let fold t fn acc = M.fold t (fun k () acc -> fn k acc) acc
  let size = cardinal
  let is_empty = M.is_empty
  let iter_elts = iter
end
