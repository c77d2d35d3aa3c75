(** MOD durable map (Section 4: CHAMP trie + Functional Shadowing).

    The installed version is the CHAMP root itself (null = empty map), so
    each update flushes exactly the copied tree path and nothing else.

    Basic interface: [insert], [remove] are self-contained FASEs with one
    ordering point.  Composition interface: [insert_pure] / [remove_pure]
    return shadow versions for multi-update FASEs, installed with
    [Handle.commit] or {!Commit.siblings} / {!Commit.unrelated}. *)

module Make (K : Pfds.Kv.CODEC) (V : Pfds.Kv.CODEC) = struct
  module T = Pfds.Champ.Make (K) (V)

  type t = Handle.t
  type elt = K.t * V.t

  let structure = "dmap"
  let handle t = t
  let empty_version _heap = T.empty

  (* -- Composition interface: pure updates on versions ------------------ *)

  let insert_pure heap version key value =
    let tree', _grew = T.insert heap version key value in
    tree'

  (* Returns the unchanged version itself (un-owned) when the key was
     absent; callers skip the commit in that case. *)
  let remove_pure heap version key = T.remove heap version key

  (* -- Backup-policy op log ---------------------------------------------- *)

  let op_insert = 0
  let op_remove = 1

  let apply heap version ~opcode ~a0 ~a1 =
    match opcode with
    | 0 -> Some (insert_pure heap version (K.read heap a0) (V.read heap a1))
    | 1 -> Some (fst (remove_pure heap version (K.read heap a0)))
    | _ -> None

  (* A null version is a valid (empty) map, so opening just binds the
     slot; the first insert installs the first node. *)
  let layout =
    Handle.layout ~name:"Dmap" ~shape:"CHAMP node (scanned block)" ~words:None
      ~empty:None apply

  let open_or_create ?persist = Handle.open_or_create layout ?persist
  let open_result = Handle.open_result layout
  let reconstruct = Handle.reconstruct layout
  let find_in heap version key = T.find heap version key
  let mem_in heap version key = T.mem heap version key
  let card_of heap version = T.cardinal heap version
  let add_pure heap version (key, value) = insert_pure heap version key value
  let size_in = card_of

  (* -- Basic interface: each operation is a one-fence FASE -------------- *)

  let insert t key value =
    let entry =
      match (K.log_word key, V.log_word value) with
      | Some kw, Some vw -> Some (op_insert, kw, vw)
      | _ -> None
    in
    Handle.update t ~structure ~op:"insert" ?entry (fun heap cur ->
        insert_pure heap cur key value)

  let remove t key =
    let entry =
      Option.map (fun kw -> (op_remove, kw, Pmem.Word.zero)) (K.log_word key)
    in
    Option.is_some
      (Handle.take t ~structure ~op:"remove" ?entry (fun heap cur ->
           match remove_pure heap cur key with
           | shadow, true -> Some ((), shadow)
           | _, false -> None))

  let insert_many t kvs =
    Handle.many t ~structure ~op:"insert_many" add_pure kvs

  let find t key =
    Handle.span t ~structure ~op:"find" (fun () ->
        find_in (Handle.heap t) (Handle.current t) key)

  let mem t key =
    Handle.span t ~structure ~op:"mem" (fun () ->
        mem_in (Handle.heap t) (Handle.current t) key)

  (* O(n): cardinality is not materialized in the versioned state. *)
  let cardinal t = card_of (Handle.heap t) (Handle.current t)

  let iter t fn = T.iter (Handle.heap t) (Handle.current t) fn
  let fold t fn acc = T.fold (Handle.heap t) (Handle.current t) fn acc

  (* -- Unified interface ({!Intf.DURABLE}) ------------------------------- *)

  let add t (key, value) = insert t key value
  let add_many = insert_many
  let size = cardinal
  let is_empty t = Pmem.Word.is_null (Handle.current t)
  let iter_elts t fn = iter t (fun k v -> fn (k, v))
end
