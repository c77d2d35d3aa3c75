(** Offline image checker and repairer ([modpm fsck]).

    Validates the {e effective} image (file with a committed sidecar
    journal applied, a torn one ignored) without mutating disk unless
    {!repair} is called: file structure, whole-image checksum, both
    copies of every root record, every policy word, the root summary
    (invalid = [Degraded]: recovery will scan all 64 slots; valid but
    omitting a slot with a live root or a Backup policy word =
    [Corrupt]: recovery would reclaim it), a bounds- and
    header-validating reachability walk per root, and -- for slots whose
    durable policy word says Backup -- the descriptor/op-log shape on
    top.  A policy word that is neither Full nor Backup is [Corrupt].
    An image
    whose interior nodes were never flushed is still [Clean] under
    Backup (interior-absent is the point of the policy); a damaged
    anchor, log or descriptor is [Corrupt]. *)

type verdict = Clean | Repaired | Degraded | Corrupt

val verdict_name : verdict -> string

type slot_status =
  | Dual  (** both record copies validate *)
  | Single of int  (** only copy 0 or copy 1 validates *)
  | Dead  (** neither copy validates *)

type report = {
  verdict : verdict;
  detail : string list;  (** human-readable findings, worst first *)
  journal : Pmem.Backing.journal_status;
  checksum_ok : bool;
  slots : (int * slot_status) list;  (** non-[Dual] slots only *)
  unreachable_slots : int list;  (** slots whose object walk failed *)
  live_blocks : int;
  summary : int list option;
      (** slots the root summary covers; [None] when it is invalid *)
  quarantined : int list;  (** repair only: slots nulled *)
}

val pp_report : Format.formatter -> report -> unit

val check : string -> report
(** Read-only validation of the image at [path].  Never raises on a
    damaged file: unreadable images come back as [Corrupt] reports. *)

val repair : string -> report
(** Resolve the journal, restore dual-copy root redundancy from each
    slot's surviving copy, quarantine slots with no usable copy, a
    corrupt policy word or an unwalkable object graph (nulling the root
    and demoting its policy word to Full), rewrite the root summary so
    it covers every remaining slot with a live root or a Backup policy
    word (a slot it omitted keeps its root), and atomically rewrite the
    image.  The result always reopens; quarantined slots are reported,
    never silently resurrected. *)
