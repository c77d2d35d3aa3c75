(** Key/value codecs: how application values map onto tagged PM words.

    Small scalars (the 8-byte keys/elements of the microbenchmarks) are
    stored inline; variable-length payloads (memcached's 16 B keys and
    512 B values) are stored as [Raw] heap blobs referenced by pointer
    words.  A codec's [write] returns an {e owned} word: if it allocated a
    blob, the blob's reference count is 1 and ownership passes to whoever
    stores the word into a node.  Blobs are flushed (unordered) as they are
    written, like every other out-of-place write in a MOD update. *)

module type CODEC = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
  val write : Pmalloc.Heap.t -> t -> Pmem.Word.t
  val read : Pmalloc.Heap.t -> Pmem.Word.t -> t

  val log_word : t -> Pmem.Word.t option
  (* [Some w] when the value round-trips through the scalar word [w]
     without touching the heap -- such values can ride in a Backup op-log
     entry.  [None] (blob codecs) forces the Backup commit path to
     checkpoint instead, since a log entry cannot own heap storage. *)
end

(* Hashes must fit a tagged scalar word (61 bits, positive) because the
   PMDK-style hashmap stores them in PM entries. *)
let hash_mask = max_int lsr 1

(* splitmix-style finalizer (constants truncated to OCaml's native int):
   decorrelates adjacent integer keys so CHAMP tries stay balanced even on
   sequential inserts. *)
let mix_int v =
  let v = v * 0x1E3779B97F4A7C15 in
  let v = (v lxor (v lsr 30)) * 0x3F58476D1CE4E5B9 in
  let v = (v lxor (v lsr 27)) * 0x14D049BB133111EB in
  (v lxor (v lsr 31)) land hash_mask

module Int : CODEC with type t = int = struct
  type t = int

  let equal = Int.equal
  let hash = mix_int
  let write _heap v = Pmem.Word.of_int v
  let read _heap w = Pmem.Word.to_int w
  let log_word v = Some (Pmem.Word.of_int v)
end

(* Unit values: sets are maps to unit, stored as scalar 0. *)
module Unit : CODEC with type t = unit = struct
  type t = unit

  let equal () () = true
  let hash () = 0
  let write _heap () = Pmem.Word.of_int 0
  let read _heap _w = ()
  let log_word () = Some (Pmem.Word.of_int 0)
end

(* FNV-1a over the bytes; cheap and adequate for trie dispersal. *)
let hash_string s =
  let h = ref 0x2bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land hash_mask

(* Blobs pack 7 bytes per word so every payload word fits OCaml's 63-bit
   native int.  Layout: word 0 = byte length, then ceil(n/7) packed words. *)
let bytes_per_word = 7
let words_for_bytes n = (n + bytes_per_word - 1) / bytes_per_word

module String_blob : CODEC with type t = string = struct
  type t = string

  let equal = String.equal
  let hash = hash_string

  (* Word [i] of [s]'s blob: the length, then the bytes, 7 a word with
     the first in the low bits, the last word zero-padded. *)
  let blob_word s i =
    let n = String.length s in
    if i = 0 then Pmem.Word.of_int n
    else begin
      let packed = ref 0 in
      for b = bytes_per_word - 1 downto 0 do
        let k = ((i - 1) * bytes_per_word) + b in
        let byte = if k < n then Char.code (String.unsafe_get s k) else 0 in
        packed := (!packed lsl 8) lor byte
      done;
      Pmem.Word.raw !packed
    end

  let write heap s =
    let n = String.length s in
    let body =
      Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw
        ~words:(1 + words_for_bytes n)
    in
    Pmalloc.Heap.fill heap ~dst:body ~len:(1 + words_for_bytes n) blob_word s;
    Pmalloc.Heap.flush_block heap body;
    Pmem.Word.of_ptr body

  let read heap w =
    let body = Pmem.Word.to_ptr w in
    let n = Pmem.Word.to_int (Pmalloc.Heap.load heap body) in
    let buf = Bytes.create n in
    for w = 0 to words_for_bytes n - 1 do
      let packed = ref (Pmem.Word.bits (Pmalloc.Heap.load heap (body + 1 + w))) in
      for b = 0 to bytes_per_word - 1 do
        let i = (w * bytes_per_word) + b in
        if i < n then Bytes.set buf i (Char.chr (!packed land 0xff));
        packed := !packed lsr 8
      done
    done;
    Bytes.to_string buf

  (* Blob values live in the heap; a log entry cannot carry them. *)
  let log_word _ = None
end
