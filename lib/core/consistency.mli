(** Automated crash-consistency testing (paper Section 5.4).

    A static checker over the PM event trace.  Two invariants imply the
    correctness argument of Section 5.2:

    + every PM write outside a commit section targets memory allocated
      since the last completed commit (out-of-place discipline);
    + every written cacheline is flushed by a clwb before the next fence
      (so the commit fence really persists the whole shadow).

    Root-slot writes and commit-internal writes are governed by the commit
    protocol itself and exempt.  PMDK-style in-place transactions violate
    invariant 1 by design -- the tests use that as a negative control. *)

type violation =
  | In_place_write of { index : int; off : int }
  | Unflushed_write of { index : int; line : int }
  | Write_after_free of { index : int; off : int }

type report = {
  events : int;
  writes_checked : int;
  fences : int;
  violations : violation list;
}

val ok : report -> bool

(** Everything below {!Pmalloc.Heap.root_directory_words} (the
    dual-copy record area) is root-directory space, exempt from the
    out-of-place rule. *)
val check : Pmem.Trace.t -> report
val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
