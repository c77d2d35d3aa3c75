(** On-PM layout of a Backup-policy slot ("Don't Persist All").

    A slot whose policy word is [Backup] does not point at a structure
    version; it points at a 4-word {e descriptor} node:

    - word 0: magic and tag (scalar) -- the magic distinguishes a
      descriptor from any structure root (CHAMP bitmaps, vector sizes,
      ... are all small scalars or pointers; the magic is a large scalar
      constant), and the bits above it carry the owning structure's
      layout tag, written by the same store (tag 0: a descriptor written
      before tags existed);
    - word 1: nonce (scalar) -- the root-record sequence number the
      descriptor was installed under; every valid log entry's checksum
      is bound to it, so entries surviving in a recycled log block from
      an earlier descriptor can never validate;
    - word 2: anchor -- the last checkpointed version (fully flushed at
      checkpoint time), or null for a fresh structure;
    - word 3: pointer to the op log, a [Raw] block.

    The log holds up to {!log_capacity} fixed-stride entries, one per
    cacheline (the first entry is line-aligned inside the block), each
    [checksum; opcode; arg0; arg1].  Appending an entry is the Backup
    commit: 4 stores + 1 clwb, drained by the next operation's fence
    (epoch persistency, the same durability window as the Full root
    swing).  Entries are append-only and the valid prefix is
    self-delimiting: recovery replays entries from the anchor until the
    first checksum miss, which is exactly the committed prefix (plus, at
    most, the in-flight entry of the interrupted op -- the oracle's
    pending state).  The log body is never zeroed: garbage from the
    block's previous life cannot checksum against a fresh nonce.

    Arguments are {e scalars only}.  Operations carrying pointer
    arguments (blob keys, structure-to-structure appends) cannot be
    replayed from a log line and escalate to a checkpoint instead.

    Validation is parameterized over a [load] closure so the same code
    runs against a live region ({!Heap.load}) and against a raw word
    array (offline {!Fsck}). *)

(* Large scalar, far outside any structure root's scalar range. *)
let magic = 0x4D42_4B50_0001

(* The layout tag sits above the magic's bits. *)
let tag_shift = 48
let max_tag = 0xff
let magic_word ~tag =
  if tag < 0 || tag > max_tag then
    invalid_arg (Printf.sprintf "Backup.magic_word: tag %d out of range" tag);
  Pmem.Word.of_int (magic lor (tag lsl tag_shift))

(* A descriptor's word 0, whatever its tag. *)
let is_magic w =
  (not (Pmem.Word.is_ptr w))
  &&
  let v = Pmem.Word.to_int w in
  v land ((1 lsl tag_shift) - 1) = magic && v lsr tag_shift <= max_tag

(* The tag of a word [is_magic] accepts. *)
let tag_of w = Pmem.Word.to_int w lsr tag_shift

let desc_words = 4
let d_magic = 0
let d_nonce = 1
let d_anchor = 2
let d_log = 3

(* One entry per cacheline: a torn crash can damage at most the entry
   being appended, and its checksum miss truncates the replay there. *)
let entry_stride = Pmem.Config.words_per_line
let log_capacity = 32

(* First line-aligned word of the log body: every entry then owns
   exactly one line. *)
let first_entry_off log =
  (log + entry_stride - 1) / entry_stride * entry_stride

(* Body words needed so [log_capacity] aligned entries fit whatever the
   body's alignment. *)
let log_alloc_words = (entry_stride - 1) + (log_capacity * entry_stride)

let entry_off log ~index = first_entry_off log + (index * entry_stride)

(* Avalanche mix binding an entry to its descriptor (nonce), position
   (index) and payload; 60-bit constants as in [Heap.checksum]. *)
let entry_checksum ~nonce ~index ~opcode ~a0 ~a1 =
  let x =
    nonce
    lxor ((index + 1) * 0x9E3779B97F4A7C1)
    lxor ((opcode + 1) * 0xD1B54A32D192ED0)
    lxor Pmem.Word.bits a0
  in
  let x = x lxor (Pmem.Word.bits a1 * 0x2545F4914F6CDD1) in
  let x = x lxor (x lsr 33) in
  let x = x * 0xFF51AFD7ED558C1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xC4CEB9FE1A85EC5 in
  x lxor (x lsr 32)

(* The Backup commit's durable write: one line of stores + one clwb,
   ordered by the next fence. *)
let append heap ~log ~nonce ~index ~opcode ~a0 ~a1 =
  if index < 0 || index >= log_capacity then
    invalid_arg (Printf.sprintf "Backup.append: log index %d out of range" index);
  let e = entry_off log ~index in
  Heap.store heap e
    (Pmem.Word.raw (entry_checksum ~nonce ~index ~opcode ~a0 ~a1));
  Heap.store heap (e + 1) (Pmem.Word.of_int opcode);
  Heap.store heap (e + 2) a0;
  Heap.store heap (e + 3) a1;
  Heap.clwb heap e

(* Read and validate entry [index] through [load].  [None] = checksum
   miss (end of the committed prefix, or torn/garbage line).  A media
   fault raised by [load] propagates -- recovery surfaces it typed. *)
let read_entry ~load ~log ~nonce ~index =
  let e = entry_off log ~index in
  let c = Pmem.Word.bits (load e) in
  let opcode_w = load (e + 1) in
  let a0 = load (e + 2) in
  let a1 = load (e + 3) in
  if Pmem.Word.is_ptr opcode_w then None
  else
    let opcode = Pmem.Word.to_int opcode_w in
    if opcode >= 0 && entry_checksum ~nonce ~index ~opcode ~a0 ~a1 = c then
      Some (opcode, a0, a1)
    else None

(* The committed prefix: entries 0.. until the first invalid one. *)
let valid_entries ~load ~log ~nonce =
  let rec go index acc =
    if index >= log_capacity then List.rev acc
    else
      match read_entry ~load ~log ~nonce ~index with
      | Some e -> go (index + 1) (e :: acc)
      | None -> List.rev acc
  in
  go 0 []
