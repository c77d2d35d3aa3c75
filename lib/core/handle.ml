(** A handle binds a MOD datastructure to a persistent root slot.

    Through the Basic interface a handle behaves like a mutable
    datastructure with logically in-place, failure-atomic updates
    (Section 4.3.1); underneath, each operation is
    pure-update-then-CommitSingle.  The Composition interface exposes the
    versions (Section 4.3.2): [current] reads the installed version,
    pure updates return shadows, and {!Commit} installs them. *)

type t = { heap : Pmalloc.Heap.t; slot : int }

let make heap ~slot = { heap; slot }
let heap t = t.heap
let slot t = t.slot

(* Policy-aware: the durable root for Full slots, the volatile
   (log-covered) current version for Backup slots. *)
let current t = Commit.current_of t.heap ~slot:t.slot
let is_initialized t = not (Pmem.Word.is_null (current t))

(* Install an initial version into an empty slot, failure-atomically.
   Only meaningful while the slot commits as Full (structures initialize
   before promoting to Backup). *)
let initialize t version =
  if is_initialized t then invalid_arg "Handle.initialize: slot already bound";
  if Pmalloc.Heap.get_policy t.heap t.slot = Pmalloc.Heap.Backup then
    invalid_arg "Handle.initialize: slot already commits as Backup";
  Commit.single t.heap ~slot:t.slot version

(* Run a pure update against the current version.  Under Backup the
   bracket suppresses the shadows' clwbs into the checkpoint backlog --
   that is the whole point of the policy. *)
let pure t f =
  match Pmalloc.Heap.get_policy t.heap t.slot with
  | Pmalloc.Heap.Full -> f t.heap (current t)
  | Pmalloc.Heap.Backup ->
      Pmalloc.Heap.enter_backup_update t.heap;
      Fun.protect
        ~finally:(fun () -> Pmalloc.Heap.exit_backup_update t.heap)
        (fun () -> f t.heap (current t))

(* [entry] describes the operation as a Backup log record; [None] (blob
   arguments, multi-structure ops) forces a checkpoint on Backup slots.
   Full slots ignore it and CommitSingle as always. *)
let commit ?intermediates ?entry t version =
  match Pmalloc.Heap.get_policy t.heap t.slot with
  | Pmalloc.Heap.Full -> Commit.single ?intermediates t.heap ~slot:t.slot version
  | Pmalloc.Heap.Backup -> (
      let st =
        match Pmalloc.Heap.backup_state t.heap t.slot with
        | Some st -> st
        | None -> failwith "Handle.commit: Backup slot not reconstructed"
      in
      match entry with
      | Some (opcode, a0, a1)
        when st.Pmalloc.Heap.b_count < Pmalloc.Backup.log_capacity ->
          Commit.backup_append ?intermediates t.heap st ~opcode ~a0 ~a1
            ~latest:version
      | _ -> Commit.checkpoint ?intermediates t.heap ~slot:t.slot version)

(* The concurrent commit path: rebuild-and-CAS until the root swing
   wins (see {!Commit.commit_cas}).  Full-policy only -- a Backup
   slot's commit order is defined by its op-log append order, which a
   lock-free root CAS cannot serialize, so the combination is rejected
   rather than silently downgraded. *)
let update_cas ?reclaim ?before_swing ?after_swing t ~build =
  match Pmalloc.Heap.get_policy t.heap t.slot with
  | Pmalloc.Heap.Full ->
      Commit.commit_cas ?reclaim ?before_swing ?after_swing t.heap
        ~slot:t.slot ~build
  | Pmalloc.Heap.Backup ->
      invalid_arg
        "Handle.update_cas: Backup policy serializes commits through its op \
         log; the lock-free CAS root swing is Full-policy only"

(* -- The Basic interface's FASEs (Section 4.2) ---------------------------- *)

(* Every Basic entry point runs inside the heap's telemetry span under
   its structure's label; the outermost span owns the delta. *)
let span t ~structure ~op f = Pmalloc.Heap.span t.heap ~structure ~op f

let update ?entry t ~structure ~op f =
  Pmalloc.Heap.span t.heap ~structure ~op (fun () -> commit ?entry t (pure t f))

(* A pop-like FASE: it commits only when [f] finds something to take. *)
let take ?entry t ~structure ~op f =
  Pmalloc.Heap.span t.heap ~structure ~op (fun () ->
      match pure t f with
      | None -> None
      | Some (v, shadow) ->
          commit ?entry t shadow;
          Some v)

(* Group commit: one batch, one ordering point for all of [xs]. *)
let many t ~structure ~op f xs =
  match xs with
  | [] -> ()
  | _ ->
      Pmalloc.Heap.span t.heap ~structure ~op ~ops:(List.length xs) (fun () ->
          let b = Batch.create t.heap in
          List.iter
            (fun x ->
              Batch.stage b ~slot:t.slot (fun version -> f t.heap version x))
            xs;
          ignore (Batch.commit b : Batch.commit_point))

(* A log entry holds scalars only; a pointer argument (a blob element)
   forces a checkpoint instead. *)
let scalar_entry opcode a0 a1 =
  if Pmem.Word.is_ptr a0 || Pmem.Word.is_ptr a1 then None
  else Some (opcode, a0, a1)

(* -- Opening a structure's slot ------------------------------------------- *)

type layout = {
  name : string;
  tag : int;
  shape : string;
  words : int option;
  empty : (Pmalloc.Heap.t -> Pmem.Word.t) option;
  apply :
    Pmalloc.Heap.t ->
    Pmem.Word.t ->
    opcode:int ->
    a0:Pmem.Word.t ->
    a1:Pmem.Word.t ->
    Pmem.Word.t option;
}

let layout ~name ~shape ~words ~empty apply =
  { name; tag = Commit.layout_tag name; shape; words; empty; apply }

(* An opcode the layout does not know can come from an untagged (pre-tag)
   descriptor another structure wrote. *)
let reconstruct layout heap ~slot =
  Commit.reconstruct heap ~slot ~tag:layout.tag
    ~apply:(fun version ~opcode ~a0 ~a1 ->
      match layout.apply heap version ~opcode ~a0 ~a1 with
      | Some next -> next
      | None ->
          raise
            (Error.Error
               (Error.Corrupt_root
                  {
                    slot;
                    detail =
                      Printf.sprintf "%s Backup log entry, unknown opcode %d"
                        layout.name opcode;
                  })))

(* The commit-policy matrix every structure's open shares.  A null slot
   gets the layout's empty version, if it has one (null is the empty
   state of the others); [Backup] promotes a Full slot once it holds
   that version; a Backup slot is reconstructed; and [Full] on a Backup
   slot is refused -- demotion would silently drop the log's tail. *)
let bind layout ?persist t =
  let install () =
    match layout.empty with
    | Some empty when not (is_initialized t) -> initialize t (empty t.heap)
    | _ -> ()
  in
  match (persist, Pmalloc.Heap.get_policy t.heap t.slot) with
  | Some Pmalloc.Heap.Full, Pmalloc.Heap.Backup ->
      invalid_arg (layout.name ^ ".open_or_create: slot is committed as Backup")
  | (None | Some Pmalloc.Heap.Full), Pmalloc.Heap.Full -> install ()
  | Some Pmalloc.Heap.Backup, Pmalloc.Heap.Full ->
      install ();
      Commit.enable t.heap ~slot:t.slot ~tag:layout.tag
  | _, Pmalloc.Heap.Backup -> reconstruct layout t.heap ~slot:t.slot

let open_or_create layout ?persist heap ~slot =
  let t = make heap ~slot in
  bind layout ?persist t;
  t

(* -- Validated open path ------------------------------------------------- *)

(* Validators below look at the durable root directly (not the
   policy-aware [current]): on a Backup slot they run before the
   volatile state exists. *)
let durable_root t = Pmalloc.Heap.root_get t.heap t.slot

let describe_root t =
  let alloc = Pmalloc.Heap.allocator t.heap in
  let body = Pmem.Word.to_ptr (durable_root t) in
  Printf.sprintf "%s block, %d words"
    (match Pmalloc.Allocator.kind_of alloc body with
    | Pmalloc.Block.Scanned -> "scanned"
    | Pmalloc.Block.Raw -> "raw")
    (Pmalloc.Allocator.used_of alloc body)

(* Best-effort shape check for a non-null root known to point at an
   allocated block: every MOD version root is a Scanned block, and the
   descriptor-rooted structures have a fixed descriptor word count.
   On a Backup slot the durable root is the policy descriptor, not a
   structure version, so the check validates the descriptor shape
   instead; the structure's own version is volatile until [reconstruct]
   replays the log.  (An interrupted promotion leaves a Full-shaped
   root under the Backup policy word -- that still gets the structure
   check.) *)
let expect_shape layout t =
  let alloc = Pmalloc.Heap.allocator t.heap in
  let body = Pmem.Word.to_ptr (durable_root t) in
  let descriptor =
    if Pmalloc.Heap.get_policy t.heap t.slot = Pmalloc.Heap.Backup then
      let w = Pmalloc.Heap.load t.heap (body + Pmalloc.Backup.d_magic) in
      if Pmalloc.Backup.is_magic w then Some (Pmalloc.Backup.tag_of w)
      else None
    else None
  in
  let is_descriptor = Option.is_some descriptor in
  let kind_ok = Pmalloc.Allocator.kind_of alloc body = Pmalloc.Block.Scanned in
  let words_ok =
    match (is_descriptor, layout.words) with
    | true, _ -> Pmalloc.Allocator.used_of alloc body = Pmalloc.Backup.desc_words
    | false, None -> true
    | false, Some n -> Pmalloc.Allocator.used_of alloc body = n
  in
  match descriptor with
  | Some found when found <> 0 && found <> layout.tag ->
      (* another structure's Backup slot *)
      Error
        (Error.Codec_mismatch
           {
             slot = t.slot;
             expected = Commit.describe_tag layout.tag;
             found = Commit.describe_tag found;
           })
  | _ ->
      if kind_ok && words_ok then Ok t
      else
        Error
          (Error.Codec_mismatch
             { slot = t.slot; expected = layout.shape; found = describe_root t })

let open_slot layout heap ~slot =
  let limit = Pmalloc.Heap.root_slots in
  if slot < 0 || slot >= limit then
    Error (Error.Slot_out_of_range { slot; limit })
  else
    let t = { heap; slot } in
    match durable_root t with
    | exception Pmalloc.Heap.Torn_root { slot } ->
        Error
          (Error.Torn_root
             { slot; detail = "both root-record copies failed validation" })
    | exception Pmem.Region.Media_fault { off } ->
        Error (Error.Media_error { off; detail = "unrecoverable read fault" })
    | w ->
    if Pmem.Word.is_null w then Ok t
    else if not (Pmem.Word.is_ptr w) then
      Error
        (Error.Corrupt_root
           { slot; detail = "root slot holds a scalar, not a version pointer" })
    else if
      not
        (Pmalloc.Allocator.is_allocated (Pmalloc.Heap.allocator heap)
           (Pmem.Word.to_ptr w))
    then
      Error
        (Error.Corrupt_root
           {
             slot;
             detail =
               Printf.sprintf "root points at unallocated offset %d"
                 (Pmem.Word.to_ptr w);
           })
    else expect_shape layout t

let open_result layout heap ~slot =
  Result.bind (open_slot layout heap ~slot) (fun t ->
      match bind layout t with
      | () -> Ok t
      | exception Error.Error e -> Error e)
