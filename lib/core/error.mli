(** Typed errors for the durable-structure open paths. *)

type t =
  | Corrupt_root of { slot : int; detail : string }
      (** The slot's word cannot be a version: a scalar where a pointer
          should be, a dangling pointer, or a policy word that is neither
          Full nor Backup.  Heap-wide failures (from {!Recovery}) use
          [slot = -1]. *)
  | Slot_out_of_range of { slot : int; limit : int }
  | Codec_mismatch of { slot : int; expected : string; found : string }
      (** The root block's shape disagrees with the structure's
          descriptor layout. *)
  | Torn_root of { slot : int; detail : string }
      (** Both copies of the slot's dual-copy root record failed
          checksum validation (see {!Pmalloc.Heap.root_get}): the root
          is detectably corrupt with no survivor to fall back to. *)
  | Media_error of { off : int; detail : string }
      (** A load faulted on a media-bad line
          ({!Pmem.Region.Media_fault}) and no redundant copy could
          rescue it. *)
  | Bad_image of { path : string; detail : string }
      (** An image file could not be opened as a heap
          ({!Pmem.Backing.Bad_image}): missing, zero-length, truncated,
          wrong magic or format version, or content failing the
          whole-image checksum. *)

exception Error of t
(** Raised by the [_exn] wrappers; carries the same typed error. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val get_ok : ('a, t) result -> 'a
(** [Ok v -> v]; [Error e] raises {!Error}[ e]. *)
