(** Deterministic workload scripts for the crash-point explorer.

    A workload is a fixed, seed-determined sequence of operations
    against one durable structure, paired with a purely volatile model
    of the abstract state after every prefix of operations.  States are
    rendered canonically (sorted, fully explicit) so the
    durable-linearizability oracle can compare a recovered structure
    against model prefixes with plain string equality. *)

type state = string

type instance = {
  init : unit -> unit;  (** durable initialization (may commit) *)
  run_op : int -> unit;  (** apply operation [i] through the structure *)
  dump : unit -> state;  (** canonical view of the (recovered) state *)
  recover : unit -> unit;  (** post-crash recovery for this workload *)
}

type t = {
  name : string;
  ops : int;
  negative : bool;
      (** negative control: the oracle is expected to report violations *)
  check_trace : bool;
      (** also run the Section 5.4 trace checker (MOD-only invariant) *)
  persist : Pmalloc.Heap.policy option;
      (** the commit policy {!build} was given; a replay rebuilds with it *)
  model : state array;  (** [model.(i)] = state after [i] operations *)
  make : Pmalloc.Heap.t -> instance;
      (** per-heap instance; construction performs no PM work ([init]
          does, so a crash can land inside initialization too) *)
}

(** {1 Canonical renderings}

    The models and the dumps of the integer structures render through
    these two, so a state renders one way only.  Each integer reads as
    [string_of_int] prints it. *)

val render_ints : int list -> state
(** [[1;-2;3]]: the elements in list order. *)

val render_pairs : (int * int) list -> state
(** [{1:10,2:-20}]: the pairs in list order. *)

(** {1 Registry} *)

val mod_names : string list
(** Workloads whose traces satisfy the Section 5.4 checker. *)

val basic_names : string list
(** One structure, one root slot -- the Backup-eligible subset. *)

val stm_names : string list
val negative_names : string list

val names : string list
(** Everything {!build} accepts. *)

val backup_names : string list
(** Workloads accepting [persist:Backup]. *)

val build : ?persist:Pmalloc.Heap.policy -> string -> ops:int -> t
(** Construct a registered workload or a shard target.  [Invalid_argument]
    on an unknown name or an unsupported [persist] policy. *)

(** {1 Serving-layer shards}

    [shard<i>of<n>] (0 <= i < n) is shard [i] of an [n]-shard serving
    set ({!Shard}), run over the [ops]-request script {!shard_script}.
    Requests are routed by key: the target's run on the swept heap, the
    siblings' on their own in-memory heaps.  [model.(k)] is the target's
    map after [k] requests, so a GET or a sibling's request repeats the
    state.  [recover] also requires every sibling, before and after the
    target's recovery, to dump its model at the requests the run
    applied, and raises naming the sibling otherwise.  The targets are
    not in {!names} and reject the Backup policy. *)

val shard_names : int -> string list
(** The [n] targets of an [n]-shard set, in shard order. *)

val is_shard : string -> bool
(** The name is a shard target {!build} accepts. *)

val shard_script : nshards:int -> ops:int -> Shard.request array
(** The script every target of an [nshards]-shard set runs: seeded from
    [nshards] and [ops], so a failure replays from its (name, ops). *)

(** {1 Concurrent workloads}

    A concurrent workload runs [cwriters] deterministic per-writer
    scripts under the cooperative interleaving scheduler
    ({!Interleave.run}); correctness is judged by {!Oracle.judge}
    against the model states recorded in [c_tracker] at each commit's
    linearization point. *)

type cinstance = {
  c_init : unit -> unit;  (** durable initialization (runs uninterleaved) *)
  c_writers : (unit -> unit) array;  (** one fiber body per writer *)
  c_tracker : Oracle.tracker;
  c_dump : unit -> state;
  c_recover : unit -> unit;
}

type ct = {
  cname : string;
  cwriters : int;
  cops : int;  (** operations per writer *)
  cnegative : bool;
      (** the oracle is expected to catch this workload *)
  cmake : Pmalloc.Heap.t -> cinstance;
}

val concurrent_positive_names : string list
val concurrent_negative_names : string list

val concurrent_names : string list
(** Everything {!cbuild} accepts. *)

val cbuild : string -> writers:int -> ops:int -> ct
(** Construct a registered concurrent workload.  [Invalid_argument] on
    an unknown name or [writers < 1]. *)
