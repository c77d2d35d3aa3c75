(** MOD durable set: a {!Dmap} with unit values (the paper's set shares
    the map's CHAMP implementation the same way). *)

module Make (K : Pfds.Kv.CODEC) = struct
  module M = Dmap.Make (K) (Pfds.Kv.Unit)

  type t = M.t
  type elt = K.t

  let structure = "dset"

  (* Spans here, not just in [M]: the outermost span owns the delta, so
     set traffic is attributed to "dset", never double counted as
     "dmap". *)
  let span t op f =
    Pmalloc.Heap.span (Handle.heap t) ~structure ~op f

  let span_n t op n f =
    Pmalloc.Heap.span (Handle.heap t) ~structure ~op ~ops:n f

  (* The map's layout under the set's own Backup tag, so neither opens
     the other's Backup slot. *)
  let tag = Commit.layout_tag "Dset"

  let reconstruct heap ~slot =
    Commit.reconstruct heap ~slot ~tag ~apply:(M.apply heap)

  let layout = { M.layout with Handle.name = "Dset"; tag; reconstruct }
  let open_or_create ?persist = Handle.open_or_create layout ?persist
  let open_result = Handle.open_result layout
  let handle t = t
  let empty_version = M.empty_version
  let add_pure heap version key = M.insert_pure heap version key ()
  let remove_pure = M.remove_pure
  let mem_in = M.mem_in
  let size_in = M.size_in
  let add t key = span t "add" (fun () -> M.insert t key ())

  let add_many t ks =
    span_n t "add_many" (List.length ks) (fun () ->
        M.insert_many t (List.map (fun k -> (k, ())) ks))

  let remove t key = span t "remove" (fun () -> M.remove t key)
  let mem t key = span t "mem" (fun () -> M.mem t key)
  let cardinal = M.cardinal
  let iter t fn = M.iter t (fun k () -> fn k)
  let fold t fn acc = M.fold t (fun k () acc -> fn k acc) acc
  let size = cardinal
  let is_empty = M.is_empty
  let iter_elts = iter
end
