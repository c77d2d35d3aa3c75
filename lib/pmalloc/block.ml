(** Persistent-heap block headers.

    Every heap block carries a {e one-word} header immediately before its
    body, packing four fields:
    - bit 0: allocated flag;
    - bit 1: block kind;
    - bits 2..25: physical capacity (in words, including the header);
    - bits 26..49: body words the owner actually initialized (the scan
      limit for the recovery garbage collector).

    A single word keeps header traffic to one store per allocation and
    one load per header decode -- the recovery scan and the flush path
    read capacity, kind and used out of the same cacheline word.

    Pointers handed to clients address the {e body}; the header lives at
    [body - header_words].  [Scanned] blocks contain only tagged words
    ({!Pmem.Word}), so reachability can be computed generically; [Raw]
    blocks hold opaque payload (string blobs) that must never be
    interpreted as pointers. *)

type kind = Scanned | Raw

let header_words = 1
let min_capacity = header_words + 2

(* 24 bits per size field: blocks up to 16M words (128 MB). *)
let field_bits = 24
let max_field = (1 lsl field_bits) - 1

let kind_to_bit = function Scanned -> 0 | Raw -> 1
let kind_of_bit = function 0 -> Scanned | _ -> Raw

let encode ~capacity ~used ~kind ~allocated =
  if capacity < 0 || capacity > max_field then
    invalid_arg "Block.encode: capacity out of range";
  if used < 0 || used > max_field then
    invalid_arg "Block.encode: used out of range";
  Pmem.Word.of_int
    ((used lsl (2 + field_bits))
    lor (capacity lsl 2)
    lor (kind_to_bit kind lsl 1)
    lor (if allocated then 1 else 0))

(* Decoders mask their fields, so they are total on arbitrary words --
   offline fsck feeds them raw image bytes and bounds-checks after. *)
let decode_capacity w = (Pmem.Word.to_int w lsr 2) land max_field
let decode_kind w = kind_of_bit ((Pmem.Word.to_int w lsr 1) land 1)

let decode_info w =
  (decode_capacity w, decode_kind w, Pmem.Word.to_int w land 1 = 1)

let decode_used w = (Pmem.Word.to_int w lsr (2 + field_bits)) land max_field

let header_of_body body = body - header_words
let body_of_header header = header + header_words
