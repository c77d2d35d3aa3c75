(** The shared shape of every MOD durable datastructure.

    The paper's recipe (Section 4.2) produces structures that all look
    alike: a handle bound to a root slot, a Composition interface of
    pure updates on version words, a Basic interface whose every entry
    point is a one-fence FASE, and a batched [*_many] form that retires
    N logical updates under a single ordering point.  [DURABLE] names
    that common shape once, with the historically divergent names
    unified ([add]/[add_pure]/[add_many] for the structure's natural
    insertion, [size] for cardinal/length, [iter_elts] for element
    iteration), so generic code such as the signature-conformance tests
    can be written once and instantiated over all seven structures.

    Each structure's [.mli] opens with
    [include Intf.DURABLE with type t = Handle.t and type elt = ...] and
    adds its domain-specific names ([push], [enqueue], [find_min], ...);
    [DURABLE] is the intersection, not the whole surface. *)

module type DURABLE = sig
  type t
  (** A handle bound to a root slot (the structure's identity). *)

  type elt
  (** What one logical insertion carries: a key/value pair for maps, an
      element word for the sequence structures, a priority for the
      priority queue. *)

  val structure : string
  (** Telemetry label; also the structure's name in exported metrics. *)

  val open_or_create :
    ?persist:Pmalloc.Heap.policy -> Pmalloc.Heap.t -> slot:int -> t
  (** Bind [slot], installing an empty version if the slot is null.
      No validation: trusts the slot's contents.  [persist] selects the
      commit policy: omitted, the slot's durable policy word governs
      (and a Backup slot is reconstructed); [Backup] promotes a Full
      slot; [Full] on a Backup-committed slot is [Invalid_argument] --
      demotion would silently drop the log's tail. *)

  val open_result : Pmalloc.Heap.t -> slot:int -> (t, Error.t) result
  (** Like [open_or_create] (following the stored policy), but validates
      the slot first: range check, pointer check, and a best-effort
      shape check of the root block against this structure's layout
      (the Backup descriptor's, when the slot commits as Backup).  A
      typed error the log replay raises is returned as [Error]. *)

  val reconstruct : Pmalloc.Heap.t -> slot:int -> unit
  (** Rebuild a Backup slot's volatile current version by replaying its
      op log from the checkpoint anchor ({!Handle.reconstruct}).
      Idempotent; a no-op on Full slots.  An entry whose opcode the
      structure does not define raises {!Error.Error} [Corrupt_root]. *)

  val handle : t -> Handle.t

  val empty_version : Pmalloc.Heap.t -> Pmem.Word.t
  (** A fresh empty version (null for structures whose empty state needs
      no descriptor). *)

  (** {2 Composition interface (Section 4.3.2)} *)

  val add_pure : Pmalloc.Heap.t -> Pmem.Word.t -> elt -> Pmem.Word.t
  (** Pure insertion: returns the successor shadow version; commit it
      with {!Handle.commit}, {!Commit} or a {!Batch}. *)

  val size_in : Pmalloc.Heap.t -> Pmem.Word.t -> int
  (** Element count of an arbitrary version. *)

  (** {2 Basic interface (Section 4.3.1): one-fence FASEs} *)

  val add : t -> elt -> unit
  val add_many : t -> elt list -> unit
  (** [add_many t es] retires all of [es] under one ordering point
      (group commit, Figure 8). *)

  (** {2 Queries} *)

  val size : t -> int
  val is_empty : t -> bool
  val iter_elts : t -> (elt -> unit) -> unit
end
