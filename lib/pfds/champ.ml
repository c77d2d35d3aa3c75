(** Compressed Hash-Array Mapped Prefix tree (CHAMP) in persistent memory.

    This is the functional map/set the paper's MOD map and set are built
    from (Steindorfer & Vinju, OOPSLA'15; reference [43] in the paper):
    a 32-way hash trie whose nodes carry two bitmaps -- [datamap] marking
    in-node key/value entries and [nodemap] marking sub-tree pointers --
    so nodes store only occupied slots.  Updates copy the O(log32 n) nodes
    on the path to the affected slot and share everything else, which is
    the structural sharing that keeps MOD's shadow overhead below 0.01%
    per update (paper Section 4.2, Table 3).

    Node layouts (tagged words, [Scanned] blocks):
    - regular:   [packed_maps; k0; v0; ...; child0; child1; ...]
      with data entries sorted by bit index, then children by bit index;
    - collision: [-(count+1); k0; v0; k1; v1; ...] for keys whose hashes
      collide through every trie level.

    Packed headers.  A slot of the 32-way node is in one of three
    states -- empty, in-node entry ([datamap]), or sub-tree pointer
    ([nodemap]) -- and the two bitmaps are disjoint by construction, so
    storing them as separate words wastes a word and a PM load on every
    trie level of every operation.  Instead both maps live in one
    non-negative word: the 32 slots split into 8 groups of 4, each group
    ternary-coded into 7 bits (3^4 = 81 states), 56 bits total, with
    nibble-indexed side tables making pack/unpack a few volatile array
    reads.  Word 0 doubles as the node tag: negative means collision
    node (count = -w0 - 1), non-negative is a packed map pair.  One
    header word instead of two keeps small nodes a cacheline and makes
    every traversal step one header load instead of two.

    All update operations are pure: they return an owned pointer to a new
    root and never modify existing nodes.  New nodes are flushed with
    unordered clwbs; the single fence belongs to Commit. *)

let bits_per_level = 5
let branch = 1 lsl bits_per_level
let level_mask = branch - 1
let max_shift = 60 (* beyond this the 62-bit hash is exhausted *)

(* A SWAR count of a map below 2^32: bit pairs, then nibbles, then
   bytes, summed into byte 3 by one multiply. *)
let[@inline] popcount v =
  let v = v - ((v lsr 1) land 0x55555555) in
  let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
  let v = (v + (v lsr 4)) land 0x0F0F0F0F in
  ((v * 0x01010101) lsr 24) land 0xFF

(* -- packed map codec ------------------------------------------------------ *)

let group_bits = 7
let groups = 8

(* [enc.(d lor (m lsl 4))] = ternary code (0..80) of a 4-slot group whose
   datamap nibble is [d] and nodemap nibble is [m]; [dec] inverts it.
   Disjointness (d land m = 0) keeps exactly 81 of the 256 indices in
   use. *)
let enc = Array.make 256 0
let dec = Array.make 81 0

let () =
  for code = 0 to 80 do
    let d = ref 0 and m = ref 0 and c = ref code in
    for slot = 0 to 3 do
      (match !c mod 3 with
      | 1 -> d := !d lor (1 lsl slot)
      | 2 -> m := !m lor (1 lsl slot)
      | _ -> ());
      c := !c / 3
    done;
    let byte = !d lor (!m lsl 4) in
    enc.(byte) <- code;
    dec.(code) <- byte
  done

let pack_maps ~dm ~nm =
  let p = ref 0 in
  for g = 0 to groups - 1 do
    let d = (dm lsr (4 * g)) land 0xF and m = (nm lsr (4 * g)) land 0xF in
    p := !p lor (enc.(d lor (m lsl 4)) lsl (group_bits * g))
  done;
  !p

(* Group [g] of packed word [p], decoded: [d lor (m lsl 4)].  A code
   above 80 (a damaged header) raises as an out-of-bounds read. *)
let[@inline] group p g = dec.((p lsr (group_bits * g)) land 0x7F)

(* The datamap and the nodemap of a packed word, each unrolled over the
   eight groups.  Every caller decodes both at one site, where the
   compiler shares the eight table reads between them: a header costs
   eight loads, with no loop and no pair to allocate. *)
let[@inline] datamap p =
  group p 0 land 0xF
  lor ((group p 1 land 0xF) lsl 4)
  lor ((group p 2 land 0xF) lsl 8)
  lor ((group p 3 land 0xF) lsl 12)
  lor ((group p 4 land 0xF) lsl 16)
  lor ((group p 5 land 0xF) lsl 20)
  lor ((group p 6 land 0xF) lsl 24)
  lor ((group p 7 land 0xF) lsl 28)

let[@inline] nodemap p =
  group p 0 lsr 4
  lor ((group p 1 lsr 4) lsl 4)
  lor ((group p 2 lsr 4) lsl 8)
  lor ((group p 3 lsr 4) lsl 12)
  lor ((group p 4 lsr 4) lsl 16)
  lor ((group p 5 lsr 4) lsl 20)
  lor ((group p 6 lsr 4) lsl 24)
  lor ((group p 7 lsr 4) lsl 28)

module Make (K : Kv.CODEC) (V : Kv.CODEC) = struct
  type key = K.t
  type value = V.t

  let empty = Pmem.Word.null
  let is_empty root = Pmem.Word.is_null root

  (* -- node accessors ---------------------------------------------------- *)

  (* Word 0 is the whole header: negative tags a collision node (count =
     [-w0 - 1]), non-negative is a packed (datamap, nodemap) pair.  Every
     node visit loads it exactly once. *)
  let header heap n = Pmem.Word.to_int (Node.get heap n 0)
  let collision_count_of w0 = -w0 - 1
  let collision_header count = Pmem.Word.of_int (-(count + 1))
  let maps_header ~dm ~nm = Pmem.Word.of_int (pack_maps ~dm ~nm)
  let data_off di = 1 + (2 * di)
  let child_off dcount ci = 1 + (2 * dcount) + ci
  let chunk hash shift = (hash lsr shift) land level_mask

  (* -- lookup ------------------------------------------------------------ *)

  let rec find_rec heap shift hash key n =
    let w0 = header heap n in
    if w0 < 0 then begin
      let count = collision_count_of w0 in
      let rec scan i =
        if i >= count then None
        else if K.equal key (K.read heap (Node.get heap n (data_off i))) then
          Some (Node.get heap n (data_off i + 1))
        else scan (i + 1)
      in
      scan 0
    end
    else begin
      let dm = datamap w0 and nm = nodemap w0 in
      let bit = 1 lsl chunk hash shift in
      if dm land bit <> 0 then begin
        let di = popcount (dm land (bit - 1)) in
        if K.equal key (K.read heap (Node.get heap n (data_off di))) then
          Some (Node.get heap n (data_off di + 1))
        else None
      end
      else if nm land bit <> 0 then begin
        let ci = popcount (nm land (bit - 1)) in
        let child = Node.get heap n (child_off (popcount dm) ci) in
        find_rec heap (shift + bits_per_level) hash key (Pmem.Word.to_ptr child)
      end
      else None
    end

  let find_word heap root key =
    if is_empty root then None
    else find_rec heap 0 (K.hash key) key (Pmem.Word.to_ptr root)

  let find heap root key =
    Option.map (V.read heap) (find_word heap root key)

  let mem heap root key = Option.is_some (find_word heap root key)

  (* -- insertion --------------------------------------------------------- *)

  (* Build the subtree holding two entries whose hashes first diverge at or
     below [shift].  (k1, v1) come from an existing node and are shared;
     (k2, v2) are fresh and owned. *)
  let rec merge_entries heap shift h1 k1 v1 h2 k2 v2 =
    if shift >= max_shift then begin
      let n = Node.alloc heap ~words:5 in
      Node.set heap n 0 (collision_header 2);
      Node.set_shared heap n 1 k1;
      Node.set_shared heap n 2 v1;
      Node.set heap n 3 k2;
      Node.set heap n 4 v2;
      Node.finish heap n;
      Pmem.Word.of_ptr n
    end
    else begin
      let i1 = chunk h1 shift and i2 = chunk h2 shift in
      if i1 = i2 then begin
        let child =
          merge_entries heap (shift + bits_per_level) h1 k1 v1 h2 k2 v2
        in
        let n = Node.alloc heap ~words:2 in
        Node.set heap n 0 (maps_header ~dm:0 ~nm:(1 lsl i1));
        Node.set heap n 1 child;
        Node.finish heap n;
        Pmem.Word.of_ptr n
      end
      else begin
        let n = Node.alloc heap ~words:5 in
        Node.set heap n 0
          (maps_header ~dm:((1 lsl i1) lor (1 lsl i2)) ~nm:0);
        let set_entry off ~shared k v =
          if shared then begin
            Node.set_shared heap n off k;
            Node.set_shared heap n (off + 1) v
          end
          else begin
            Node.set heap n off k;
            Node.set heap n (off + 1) v
          end
        in
        if i1 < i2 then begin
          set_entry 1 ~shared:true k1 v1;
          set_entry 3 ~shared:false k2 v2
        end
        else begin
          set_entry 1 ~shared:false k2 v2;
          set_entry 3 ~shared:true k1 v1
        end;
        Node.finish heap n;
        Pmem.Word.of_ptr n
      end
    end

  let insert_collision heap n count key value =
    let used = 1 + (2 * count) in
    let rec find_idx i =
      if i >= count then None
      else if K.equal key (K.read heap (Node.get heap n (data_off i))) then Some i
      else find_idx (i + 1)
    in
    match find_idx 0 with
    | Some i ->
        let fresh = Node.alloc heap ~words:used in
        Node.blit_shared heap ~src:n ~soff:0 ~dst:fresh ~doff:0
          ~len:(data_off i + 1);
        Node.set heap fresh (data_off i + 1) (V.write heap value);
        Node.blit_shared heap ~src:n ~soff:(data_off i + 2) ~dst:fresh
          ~doff:(data_off i + 2)
          ~len:(used - data_off i - 2);
        Node.finish heap fresh;
        (Pmem.Word.of_ptr fresh, false)
    | None ->
        let fresh = Node.alloc heap ~words:(used + 2) in
        Node.set heap fresh 0 (collision_header (count + 1));
        Node.blit_shared heap ~src:n ~soff:1 ~dst:fresh ~doff:1 ~len:(used - 1);
        Node.set heap fresh used (K.write heap key);
        Node.set heap fresh (used + 1) (V.write heap value);
        Node.finish heap fresh;
        (Pmem.Word.of_ptr fresh, true)

  (* Returns (owned new node, grew). *)
  let rec insert_rec heap shift hash key value n =
    let w0 = header heap n in
    if w0 < 0 then insert_collision heap n (collision_count_of w0) key value
    else begin
      let dm = datamap w0 and nm = nodemap w0 in
      let dcount = popcount dm and ccount = popcount nm in
      let used = 1 + (2 * dcount) + ccount in
      let bit = 1 lsl chunk hash shift in
      if dm land bit <> 0 then begin
        let di = popcount (dm land (bit - 1)) in
        let kw = Node.get heap n (data_off di) in
        if K.equal key (K.read heap kw) then begin
          (* same key: copy the node, swapping in the new value *)
          let fresh = Node.alloc heap ~words:used in
          Node.blit_shared heap ~src:n ~soff:0 ~dst:fresh ~doff:0
            ~len:(data_off di + 1);
          Node.set heap fresh (data_off di + 1) (V.write heap value);
          Node.blit_shared heap ~src:n ~soff:(data_off di + 2) ~dst:fresh
            ~doff:(data_off di + 2)
            ~len:(used - data_off di - 2);
          Node.finish heap fresh;
          (Pmem.Word.of_ptr fresh, false)
        end
        else begin
          (* hash-path collision: push both entries one level down *)
          let vw = Node.get heap n (data_off di + 1) in
          let h1 = K.hash (K.read heap kw) in
          let k2 = K.write heap key and v2 = V.write heap value in
          let child =
            merge_entries heap (shift + bits_per_level) h1 kw vw hash k2 v2
          in
          let ci = popcount (nm land (bit - 1)) in
          let fresh = Node.alloc heap ~words:(used - 1) in
          Node.set heap fresh 0
            (maps_header ~dm:(dm land lnot bit) ~nm:(nm lor bit));
          (* data entries, skipping di *)
          Node.blit_shared heap ~src:n ~soff:1 ~dst:fresh ~doff:1
            ~len:(2 * di);
          Node.blit_shared heap ~src:n
            ~soff:(data_off (di + 1))
            ~dst:fresh ~doff:(data_off di)
            ~len:(2 * (dcount - 1 - di));
          (* children with the merged subtree inserted at ci *)
          let doff_children = child_off (dcount - 1) 0 in
          Node.blit_shared heap ~src:n ~soff:(child_off dcount 0) ~dst:fresh
            ~doff:doff_children ~len:ci;
          Node.set heap fresh (doff_children + ci) child;
          Node.blit_shared heap ~src:n
            ~soff:(child_off dcount ci)
            ~dst:fresh
            ~doff:(doff_children + ci + 1)
            ~len:(ccount - ci);
          Node.finish heap fresh;
          (Pmem.Word.of_ptr fresh, true)
        end
      end
      else if nm land bit <> 0 then begin
        let ci = popcount (nm land (bit - 1)) in
        let coff = child_off dcount ci in
        let child = Node.get heap n coff in
        let child', grew =
          insert_rec heap (shift + bits_per_level) hash key value
            (Pmem.Word.to_ptr child)
        in
        let fresh = Node.alloc heap ~words:used in
        Node.blit_shared heap ~src:n ~soff:0 ~dst:fresh ~doff:0 ~len:coff;
        Node.set heap fresh coff child';
        Node.blit_shared heap ~src:n ~soff:(coff + 1) ~dst:fresh
          ~doff:(coff + 1)
          ~len:(used - coff - 1);
        Node.finish heap fresh;
        (Pmem.Word.of_ptr fresh, grew)
      end
      else begin
        (* free slot: insert a fresh data entry *)
        let di = popcount (dm land (bit - 1)) in
        let fresh = Node.alloc heap ~words:(used + 2) in
        Node.set heap fresh 0 (maps_header ~dm:(dm lor bit) ~nm);
        Node.blit_shared heap ~src:n ~soff:1 ~dst:fresh ~doff:1 ~len:(2 * di);
        Node.set heap fresh (data_off di) (K.write heap key);
        Node.set heap fresh (data_off di + 1) (V.write heap value);
        Node.blit_shared heap ~src:n ~soff:(data_off di) ~dst:fresh
          ~doff:(data_off (di + 1))
          ~len:(used - data_off di);
        Node.finish heap fresh;
        (Pmem.Word.of_ptr fresh, true)
      end
    end

  (* Returns (owned new root, grew). *)
  let insert heap root key value =
    if is_empty root then begin
      let bit = 1 lsl chunk (K.hash key) 0 in
      let n = Node.alloc heap ~words:3 in
      Node.set heap n 0 (maps_header ~dm:bit ~nm:0);
      Node.set heap n 1 (K.write heap key);
      Node.set heap n 2 (V.write heap value);
      Node.finish heap n;
      (Pmem.Word.of_ptr n, true)
    end
    else insert_rec heap 0 (K.hash key) key value (Pmem.Word.to_ptr root)

  (* -- removal ----------------------------------------------------------- *)

  type removal =
    | Unchanged
    | Gone (* subtree became empty *)
    | Inline of Pmem.Word.t * Pmem.Word.t (* single surviving entry, owned *)
    | Replaced of int (* owned new node *)

  let remove_collision heap n count key =
    let rec find_idx i =
      if i >= count then None
      else if K.equal key (K.read heap (Node.get heap n (data_off i))) then Some i
      else find_idx (i + 1)
    in
    match find_idx 0 with
    | None -> Unchanged
    | Some i ->
        if count = 2 then begin
          let j = 1 - i in
          let k = Node.share heap (Node.get heap n (data_off j)) in
          let v = Node.share heap (Node.get heap n (data_off j + 1)) in
          Inline (k, v)
        end
        else begin
          let fresh = Node.alloc heap ~words:(1 + (2 * (count - 1))) in
          Node.set heap fresh 0 (collision_header (count - 1));
          Node.blit_shared heap ~src:n ~soff:1 ~dst:fresh ~doff:1 ~len:(2 * i);
          Node.blit_shared heap ~src:n
            ~soff:(data_off (i + 1))
            ~dst:fresh ~doff:(data_off i)
            ~len:(2 * (count - 1 - i));
          Node.finish heap fresh;
          Replaced fresh
        end

  let rec remove_rec heap shift hash key n =
    let w0 = header heap n in
    if w0 < 0 then remove_collision heap n (collision_count_of w0) key
    else begin
      let dm = datamap w0 and nm = nodemap w0 in
      let dcount = popcount dm and ccount = popcount nm in
      let used = 1 + (2 * dcount) + ccount in
      let bit = 1 lsl chunk hash shift in
      if dm land bit <> 0 then begin
        let di = popcount (dm land (bit - 1)) in
        if not (K.equal key (K.read heap (Node.get heap n (data_off di)))) then
          Unchanged
        else if dcount = 1 && ccount = 0 then Gone
        else if dcount = 2 && ccount = 0 && shift > 0 then begin
          (* canonical CHAMP: a lone entry migrates up into the parent *)
          let j = 1 - di in
          let k = Node.share heap (Node.get heap n (data_off j)) in
          let v = Node.share heap (Node.get heap n (data_off j + 1)) in
          Inline (k, v)
        end
        else begin
          let fresh = Node.alloc heap ~words:(used - 2) in
          Node.set heap fresh 0 (maps_header ~dm:(dm land lnot bit) ~nm);
          Node.blit_shared heap ~src:n ~soff:1 ~dst:fresh ~doff:1 ~len:(2 * di);
          Node.blit_shared heap ~src:n
            ~soff:(data_off (di + 1))
            ~dst:fresh ~doff:(data_off di)
            ~len:(used - data_off (di + 1));
          Node.finish heap fresh;
          Replaced fresh
        end
      end
      else if nm land bit <> 0 then begin
        let ci = popcount (nm land (bit - 1)) in
        let coff = child_off dcount ci in
        let child = Pmem.Word.to_ptr (Node.get heap n coff) in
        match remove_rec heap (shift + bits_per_level) hash key child with
        | Unchanged -> Unchanged
        | Gone ->
            (* children always hold >= 2 entries, so they collapse through
               Inline, never to Gone *)
            assert false
        | Replaced c' ->
            let fresh = Node.alloc heap ~words:used in
            Node.blit_shared heap ~src:n ~soff:0 ~dst:fresh ~doff:0 ~len:coff;
            Node.set heap fresh coff (Pmem.Word.of_ptr c');
            Node.blit_shared heap ~src:n ~soff:(coff + 1) ~dst:fresh
              ~doff:(coff + 1)
              ~len:(used - coff - 1);
            Node.finish heap fresh;
            Replaced fresh
        | Inline (k, v) ->
            if dcount = 0 && ccount = 1 && shift > 0 then
              (* this node reduces to that single entry too *)
              Inline (k, v)
            else begin
              (* child slot becomes an in-node data entry *)
              let di = popcount (dm land (bit - 1)) in
              let fresh = Node.alloc heap ~words:(used + 1) in
              Node.set heap fresh 0
                (maps_header ~dm:(dm lor bit) ~nm:(nm land lnot bit));
              Node.blit_shared heap ~src:n ~soff:1 ~dst:fresh ~doff:1
                ~len:(2 * di);
              Node.set heap fresh (data_off di) k;
              Node.set heap fresh (data_off di + 1) v;
              Node.blit_shared heap ~src:n ~soff:(data_off di) ~dst:fresh
                ~doff:(data_off (di + 1))
                ~len:(2 * (dcount - di));
              let doff_children = child_off (dcount + 1) 0 in
              Node.blit_shared heap ~src:n ~soff:(child_off dcount 0)
                ~dst:fresh ~doff:doff_children ~len:ci;
              Node.blit_shared heap ~src:n
                ~soff:(child_off dcount (ci + 1))
                ~dst:fresh
                ~doff:(doff_children + ci)
                ~len:(ccount - ci - 1);
              Node.finish heap fresh;
              Replaced fresh
            end
      end
      else Unchanged
    end

  (* Returns (new root, removed).  When nothing was removed the original
     root is returned un-owned and no commit is needed. *)
  let remove heap root key =
    if is_empty root then (root, false)
    else
      match remove_rec heap 0 (K.hash key) key (Pmem.Word.to_ptr root) with
      | Unchanged -> (root, false)
      | Gone -> (Pmem.Word.null, true)
      | Replaced n -> (Pmem.Word.of_ptr n, true)
      | Inline (k, v) ->
          (* rebuild a single-entry root *)
          let hash = K.hash (K.read heap k) in
          let bit = 1 lsl chunk hash 0 in
          let n = Node.alloc heap ~words:3 in
          Node.set heap n 0 (maps_header ~dm:bit ~nm:0);
          Node.set heap n 1 k;
          Node.set heap n 2 v;
          Node.finish heap n;
          (Pmem.Word.of_ptr n, true)

  (* -- traversal --------------------------------------------------------- *)

  let rec iter_node heap n fn =
    let w0 = header heap n in
    if w0 < 0 then begin
      let count = collision_count_of w0 in
      for i = 0 to count - 1 do
        fn (Node.get heap n (data_off i)) (Node.get heap n (data_off i + 1))
      done
    end
    else begin
      let dm = datamap w0 and nm = nodemap w0 in
      let dcount = popcount dm in
      let ccount = popcount nm in
      for i = 0 to dcount - 1 do
        fn (Node.get heap n (data_off i)) (Node.get heap n (data_off i + 1))
      done;
      for i = 0 to ccount - 1 do
        iter_node heap
          (Pmem.Word.to_ptr (Node.get heap n (child_off dcount i)))
          fn
      done
    end

  let iter_words heap root fn =
    if not (is_empty root) then iter_node heap (Pmem.Word.to_ptr root) fn

  let iter heap root fn =
    iter_words heap root (fun kw vw -> fn (K.read heap kw) (V.read heap vw))

  let fold heap root fn acc =
    let acc = ref acc in
    iter heap root (fun k v -> acc := fn k v !acc);
    !acc

  let cardinal heap root =
    let n = ref 0 in
    iter_words heap root (fun _ _ -> incr n);
    !n
end
