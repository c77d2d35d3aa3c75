(** Recovery-time garbage collection (paper Section 5.3): reachability
    analysis from the root directory that rebuilds the volatile
    allocator state (free lists, frontier, reference counts as
    in-degrees) after a crash, reclaims leaked blocks, scrubs reachable
    Raw payloads when media faults are armed, and refreshes the volatile
    commit-policy cache from the durable policy words.  Backup slots'
    volatile current versions are {e not} rebuilt here -- each
    structure's [reconstruct] replays its op log on first access. *)

type report = {
  live_blocks : int;
  live_words : int;
  reclaimed_extents : int;
  reclaimed_words : int;
  frontier : int;
}

val pp_report : Format.formatter -> report -> unit

val recover : Heap.t -> report
(** Walk the object graph from every readable root slot and hand the
    allocator its reconstructed state.  Clears all volatile Backup
    runtime state and re-reads the policy directory first.  Raises
    (typed by {!Mod_core.Recovery}): [Heap.Torn_root] when both copies
    of a root record fail validation, [Pmem.Region.Media_fault] when an
    armed line is reached by a root read, the policy refresh, a header
    read, or the Raw scrub, and [Invalid_argument] for a header that
    does not decode or two reachable bodies in one refcount slot.  A
    recovery that raises leaves the reference counts cleared: discard
    the heap or recover it again. *)
