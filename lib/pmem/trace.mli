(** Persistent-memory event trace (paper Section 5.4).

    The recording half of the paper's automated testing framework: the
    region emits every allocation, write, flush, fence, commit marker and
    crash; {!Mod_core.Consistency} is the checker that audits the result.
    Tracing is off by default (zero overhead for benchmarks). *)

type event =
  | Alloc of { off : int; words : int }
  | Free of { off : int; words : int }
  | Write of { off : int }
  | Flush of { line : int }
  | Fence
  | Commit_begin
  | Commit_end
  | Crash

type t

val create : enabled:bool -> t
val clear : t -> unit
val enabled : t -> bool
val emit : t -> event -> unit
val length : t -> int

val truncate : t -> int -> unit
(** [truncate t len] rewinds the trace to a previously observed {!length}
    (snapshot/restore support: drops events recorded after the snapshot). *)

val get : t -> int -> event
val iter : t -> (event -> unit) -> unit
val to_list : t -> event list
val pp_event : Format.formatter -> event -> unit
