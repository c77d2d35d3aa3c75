(** Crash recovery for MOD heaps (paper Sections 5.2-5.3).

    After a power failure the durable image holds, per root slot, either
    the pre-FASE or the post-FASE version -- never a torn one -- plus
    leaked shadow allocations from any interrupted FASE.  Recovery rolls
    back an interrupted PM-STM transaction if the heap hosts one
    (CommitUnrelated / the PMDK baseline), then runs the reachability
    analysis that recomputes reference counts and reclaims every leak. *)

type report = {
  stm_rolled_back : bool;
  gc : Pmalloc.Recovery_gc.report;
  crash_seed : int option;
      (** seed that drove randomized line survival, when a crash was
          injected by {!crash_and_recover}; replay it with [?seed] *)
}

val recover :
  ?stm:bool -> ?norec:bool -> Pmalloc.Heap.t -> (report, Error.t) result
(** Recovery against the current durable image (call after a crash).
    [stm:true] first rolls back an interrupted {!Pmstm.Tx} transaction
    from the undo log its root slot names ({!Pmstm.Tx.recover}).
    A durable image recovery cannot make sense of -- an unreadable undo
    log, an unscannable block graph -- comes back as
    [Error (Corrupt_root { slot = -1; _ })] rather than an exception;
    a root record torn beyond its redundancy comes back as [Torn_root],
    and an unreadable (media-bad) line as [Media_error].  No exception
    escapes this function for any durable image: recovery either
    succeeds or degrades to a typed error. *)

val typed_of_exn : exn -> Error.t option
(** Typed form of the lower layers' raw fault exceptions
    ({!Pmalloc.Heap.Torn_root}, {!Pmem.Region.Media_fault}); [None] for
    anything else. *)

val crash_and_recover :
  ?mode:Pmem.Region.crash_mode ->
  ?seed:int ->
  ?torn:bool ->
  ?stm:bool ->
  ?norec:bool ->
  Pmalloc.Heap.t ->
  (report, Error.t) result
(** Inject a power failure, then recover.  [seed] pins the [Randomize]
    survival outcomes; the seed actually used is in the report; [torn]
    enables per-word torn-line persistence.  [norec:true] additionally
    replays a committed-but-unretired {!Pmstm.Norec} redo log before
    the reachability analysis. *)

val recover_exn : ?stm:bool -> ?norec:bool -> Pmalloc.Heap.t -> report
(** {!recover}, raising {!Error.Error} on corruption.  The crash-test
    oracle uses this form: an unrecoverable image must fail loudly. *)

type open_report = {
  heap : Pmalloc.Heap.t;
  journal : [ `None | `Replayed of int | `Discarded ];
      (** fate of the image's sidecar writeback journal: absent/empty, a
          committed journal replayed ([n] cachelines), or a torn one
          discarded *)
  recovery : report;
  reopen_ns : float;  (** wall-clock open + journal resolution + GC *)
}

val open_file :
  ?trace:bool ->
  ?seed:int ->
  path:string ->
  unit ->
  (open_report, Error.t) result
(** The externally-durable recovery cycle: reopen a file-backed heap
    image ({!Pmalloc.Heap.open_file} -- journal replay/discard and
    whole-image checksum verification) and rebuild the volatile
    allocator via the reachability analysis.  Unusable images come back
    as [Error (Bad_image _)], torn roots as [Error (Torn_root _)],
    unscannable graphs as [Error (Corrupt_root _)]; no exception escapes
    for any image, and no descriptor leaks on a failed open. *)

val crash_and_recover_exn :
  ?mode:Pmem.Region.crash_mode ->
  ?seed:int ->
  ?torn:bool ->
  ?stm:bool ->
  ?norec:bool ->
  Pmalloc.Heap.t ->
  report

val pp_report : Format.formatter -> report -> unit
