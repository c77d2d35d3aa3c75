(** Recovery-time garbage collection (paper Section 5.3): reachability
    analysis from the root directory that rebuilds the volatile
    allocator state (free lists, frontier, reference counts as
    in-degrees) after a crash, reclaims leaked blocks, scrubs reachable
    Raw payloads when media faults are armed, and refreshes the volatile
    commit-policy cache and root-summary state from the directory
    ({!Heap.read_directory}: the summary's bound slots, or all 64 when
    it fails its check or faults).  It issues no PM store.  Backup slots'
    volatile current versions are {e not} rebuilt here -- each
    structure's [reconstruct] replays its op log on first access. *)

type report = {
  live_blocks : int;
  live_words : int;
  reclaimed_extents : int;
  reclaimed_words : int;
  frontier : int;
  root_slots_read : int;  (** root slots whose records were validated *)
  via_summary : bool;
      (** the root summary chose those slots; [false] = full scan *)
}

val pp_report : Format.formatter -> report -> unit

val recover : Heap.t -> report
(** Walk the object graph from every bound root slot and hand the
    allocator its reconstructed state.  Clears all volatile Backup
    runtime state and re-reads the directory first.  Raises (typed by
    {!Mod_core.Recovery}): [Heap.Torn_root] when both copies of a root
    record fail validation, [Heap.Corrupt_policy] for a bound slot's
    policy word that is neither Full nor Backup,
    [Pmem.Region.Media_fault] when an armed line is reached by a root
    read, a policy read, a header read, or the Raw scrub (a fault on the
    summary's own line only forces the full scan), and
    [Invalid_argument] for a header that
    does not decode or two reachable bodies in one refcount slot.  A
    recovery that raises leaves the reference counts cleared: discard
    the heap or recover it again. *)
