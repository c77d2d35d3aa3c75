(** File-backed durable images (the FAMS-style snapshot backend).

    A {!Region} normally keeps its durable image in a volatile array:
    crashes are simulated, and nothing survives the process.  This module
    maps the durable image onto a file so the heap genuinely outlives a
    [kill -9]: the region accumulates the cachelines whose durable
    contents changed and, at every fence, hands them here to be committed
    as {e one atomic batch} -- the failure-atomic-msync recipe.

    Commit protocol (WAL-style double write):

    + write the dirty-line set, the new capacity and the post-commit image
      checksum into a sidecar journal ([<path>.journal]), then a commit
      marker over the whole journal, and [fsync] it;
    + apply the lines to the image file, update the header (capacity +
      image checksum), and [fsync] it;
    + truncate the journal and [fsync] it.

    Power can fail anywhere: a journal without a valid commit marker is
    discarded on reopen (the image is intact at the previous commit), and
    a committed journal is replayed idempotently (the image reaches the
    new commit).  There is no window in which the image is torn and the
    journal unusable.

    The image header carries a whole-image checksum (xor of per-line
    hashes, maintained incrementally per commit), so out-of-band
    corruption of any line -- not just root records -- is detected at
    reopen and by [modpm fsck] rather than trusted.

    Reads retry transient failures ([EINTR]/[EAGAIN], short reads) with
    bounded backoff; everything else surfaces as the typed {!Bad_image}. *)

exception Bad_image of { path : string; detail : string }

let () =
  Printexc.register_printer (function
    | Bad_image { path; detail } ->
        Some (Printf.sprintf "Pmem.Backing.Bad_image(%s: %s)" path detail)
    | _ -> None)

let bad path fmt =
  Printf.ksprintf (fun detail -> raise (Bad_image { path; detail })) fmt

(* Hook points inside {!commit}, for the kill-9 harness: a worker can
   SIGKILL itself at any of these to leave a mid-writeback image behind.
   The [int] is the 1-based ordinal of the commit in progress.  The hook
   is given to {!create}, so it reaches the first commit too. *)
type sync_phase =
  | Journal_torn  (** entries written; commit marker not yet durable *)
  | Journal_committed  (** journal fsynced; apply not begun *)
  | Mid_apply  (** half the lines applied to the image *)
  | Applied  (** image fsynced; journal not yet truncated *)

let phase_name = function
  | Journal_torn -> "journal"
  | Journal_committed -> "commit"
  | Mid_apply -> "apply"
  | Applied -> "applied"

let phase_of_name = function
  | "journal" -> Ok Journal_torn
  | "commit" -> Ok Journal_committed
  | "apply" -> Ok Mid_apply
  | "applied" -> Ok Applied
  | s ->
      Error
        (Printf.sprintf "unknown sync phase %S (journal|commit|apply|applied)" s)

type t = {
  fd : Unix.file_descr;
  jfd : Unix.file_descr;
  mutable capacity : int;  (** words the image file currently holds *)
  mutable line_hash : int array;  (** per-line content hash *)
  mutable image_checksum : int;  (** xor of all line hashes *)
  mutable commits : int;  (** atomic batches completed on this handle *)
  hook : sync_phase -> int -> unit;
}

(* -- layout -------------------------------------------------------------- *)

let word_bytes = 8
let magic = 0x4D4F_4450_4D31 (* "MODPM1", word 0 of every image *)
let jmagic = 0x4D4F_4450_4A31 (* "MODPJ1", word 0 of every journal *)
let format_version = 1
let header_words = 8
let header_bytes = header_words * word_bytes
let jheader_words = 5

let lines_of_cap cap = (cap + Config.words_per_line - 1) / Config.words_per_line
let line_len ~cap line =
  min Config.words_per_line (cap - (line lsl Config.line_shift))

(* Avalanche mix (murmur3-finalizer flavoured) used for line hashes, the
   header checksum and the journal commit marker. *)
let mix h x =
  let h = (h lxor x) * 0x9E3779B97F4A7C1 in
  let h = h lxor (h lsr 29) in
  let h = (h * 0xC4CEB9FE1A85EC5) land max_int in
  h lxor (h lsr 32)

let hash_line ~line words off len =
  let h = ref (mix 0x5EED (line + 1)) in
  for i = off to off + len - 1 do
    h := mix !h words.(i)
  done;
  !h

let header_checksum ~capacity ~image_checksum =
  mix (mix (mix (mix 0xCAFE magic) format_version) capacity) image_checksum

(* -- retrying I/O primitives --------------------------------------------- *)

let rec retrying ?(attempts = 6) ?(delay = 0.0005) f =
  match f () with
  | v -> v
  | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _)
    when attempts > 1 ->
      Unix.sleepf delay;
      retrying ~attempts:(attempts - 1) ~delay:(delay *. 2.0) f

let seek fd pos = ignore (Unix.lseek fd pos Unix.SEEK_SET : int)

let write_all fd buf =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    let n = retrying (fun () -> Unix.write fd buf !off (len - !off)) in
    if n <= 0 then failwith "Backing: write returned 0";
    off := !off + n
  done

(* Short reads are transient on some filesystems: keep reading with
   backoff until the request is satisfied or the file genuinely ends. *)
let read_exact ~path fd buf =
  let len = Bytes.length buf in
  let off = ref 0 in
  let stalls = ref 0 in
  while !off < len do
    let n = retrying (fun () -> Unix.read fd buf !off (len - !off)) in
    if n = 0 then begin
      incr stalls;
      if !stalls > 5 then bad path "truncated: short read at byte %d of %d" !off len;
      Unix.sleepf 0.0005
    end
    else begin
      stalls := 0;
      off := !off + n
    end
  done

let fsync fd = retrying (fun () -> Unix.fsync fd)

(* Best-effort directory fsync so creates and renames are themselves
   durable (ignored on filesystems that reject fsync on directories). *)
let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
      (try fsync dfd with Unix.Unix_error _ -> ());
      Unix.close dfd

let put_words buf off words woff n =
  for i = 0 to n - 1 do
    Bytes.set_int64_le buf ((off + i) * word_bytes)
      (Int64.of_int words.(woff + i))
  done

let get_word buf i = Int64.to_int (Bytes.get_int64_le buf (i * word_bytes))

(* Copy [n] image words: a typed loop, so no word pays the write
   barrier [Array.blit] runs into a major-heap array. *)
let copy_words (src : int array) s (dst : int array) d n =
  for i = 0 to n - 1 do
    dst.(d + i) <- src.(s + i)
  done

let read_words ~path fd ~pos ~words:n =
  let buf = Bytes.create (n * word_bytes) in
  seek fd pos;
  read_exact ~path fd buf;
  Array.init n (fun i -> get_word buf i)

let file_size fd = (Unix.fstat fd).Unix.st_size

(* -- header -------------------------------------------------------------- *)

let write_header fd ~capacity ~image_checksum =
  let buf = Bytes.make header_bytes '\000' in
  put_words buf 0
    [|
      magic; format_version; capacity; Config.words_per_line; image_checksum;
      header_checksum ~capacity ~image_checksum; 0; 0;
    |]
    0 header_words;
  seek fd 0;
  write_all fd buf

let read_header ~path fd =
  let size = file_size fd in
  if size = 0 then bad path "zero-length image file";
  if size < header_bytes then bad path "truncated header (%d bytes)" size;
  let h = read_words ~path fd ~pos:0 ~words:header_words in
  if h.(0) <> magic then bad path "wrong magic 0x%x (not a modpm image)" h.(0);
  if h.(1) <> format_version then
    bad path "unsupported image format version %d (want %d)" h.(1)
      format_version;
  if h.(3) <> Config.words_per_line then
    bad path "image built for %d-word cachelines, this build uses %d" h.(3)
      Config.words_per_line;
  let capacity = h.(2) and image_checksum = h.(4) in
  if capacity <= 0 then bad path "nonsensical capacity %d" capacity;
  if h.(5) <> header_checksum ~capacity ~image_checksum then
    bad path "header checksum mismatch";
  if size < header_bytes + (capacity * word_bytes) then
    bad path "truncated: header promises %d words, file holds %d" capacity
      ((size - header_bytes) / word_bytes);
  (capacity, image_checksum)

(* The hash of [line] in an image [words] of [cap] words. *)
let image_line_hash words ~cap line =
  hash_line ~line words (line lsl Config.line_shift) (line_len ~cap line)

(* The hash of [line] in an all-zero image of [cap] words: every line
   hashes from one shared zero line, so a fresh image costs no
   [cap]-word array. *)
let zero_line = Array.make Config.words_per_line 0
let zero_line_hash ~cap line = hash_line ~line zero_line 0 (line_len ~cap line)

let checksum_of words cap =
  let cs = ref 0 in
  for line = 0 to lines_of_cap cap - 1 do
    cs := !cs lxor image_line_hash words ~cap line
  done;
  !cs

(* Rehash every line of the image, [hash line] each. *)
let rebuild_hashes t hash =
  t.line_hash <- Array.init (lines_of_cap t.capacity) hash;
  t.image_checksum <- Array.fold_left ( lxor ) 0 t.line_hash

(* -- journal ------------------------------------------------------------- *)

type journal_status = Jnone | Jcommitted of int | Jtorn

(* Journal word layout:
   [jmagic; version; nlines; new_capacity; post_checksum]
   then per line: [line_index; w0 .. w7]  (ragged tails zero-padded)
   then one trailing commit marker word hashing everything above. *)

let journal_marker ~nlines ~capacity ~post_checksum entries_hash =
  mix (mix (mix (mix entries_hash nlines) capacity) post_checksum) jmagic

(* Read and classify the sidecar journal without touching the image. *)
let read_journal ~path jfd =
  let size = file_size jfd in
  if size = 0 then (Jnone, [||], 0, 0)
  else if size < (jheader_words + 1) * word_bytes then (Jtorn, [||], 0, 0)
  else
    let total_words = size / word_bytes in
    let w = read_words ~path jfd ~pos:0 ~words:total_words in
    let nlines = w.(2) in
    let entry_words = 1 + Config.words_per_line in
    let expect = jheader_words + (nlines * entry_words) + 1 in
    if w.(0) <> jmagic || w.(1) <> format_version || nlines < 0
       || total_words < expect
    then (Jtorn, [||], 0, 0)
    else
      let eh = ref 0 in
      for i = jheader_words to jheader_words + (nlines * entry_words) - 1 do
        eh := mix !eh w.(i)
      done;
      let marker =
        journal_marker ~nlines ~capacity:w.(3) ~post_checksum:w.(4) !eh
      in
      if w.(jheader_words + (nlines * entry_words)) <> marker then
        (Jtorn, [||], 0, 0)
      else (Jcommitted nlines, w, w.(3), w.(4))

let truncate_journal t =
  retrying (fun () -> Unix.ftruncate t.jfd 0);
  fsync t.jfd

(* Apply a committed journal's entries to the image file; idempotent. *)
let apply_journal t jwords ~new_capacity ~post_checksum =
  let entry_words = 1 + Config.words_per_line in
  let nlines = jwords.(2) in
  if new_capacity > t.capacity then begin
    retrying (fun () ->
        Unix.ftruncate t.fd (header_bytes + (new_capacity * word_bytes)));
    t.capacity <- new_capacity
  end;
  let buf = Bytes.create (Config.words_per_line * word_bytes) in
  for e = 0 to nlines - 1 do
    let base = jheader_words + (e * entry_words) in
    let line = jwords.(base) in
    let len = line_len ~cap:t.capacity line in
    put_words buf 0 jwords (base + 1) Config.words_per_line;
    seek t.fd (header_bytes + (line lsl Config.line_shift * word_bytes));
    write_all t.fd (Bytes.sub buf 0 (len * word_bytes))
  done;
  t.image_checksum <- post_checksum;
  write_header t.fd ~capacity:t.capacity ~image_checksum:post_checksum;
  fsync t.fd;
  truncate_journal t

(* -- lifecycle ----------------------------------------------------------- *)

let journal_path path = path ^ ".journal"

let open_fd ~path flags = retrying (fun () -> Unix.openfile path flags 0o644)

let create ?(sync_hook = fun _ _ -> ()) ~path ~capacity_words () =
  let fd =
    open_fd ~path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
  in
  let jpath = journal_path path in
  let jfd =
    open_fd ~path:jpath
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
  in
  (* sparse zero image: fresh regions are all-zero words *)
  retrying (fun () -> Unix.ftruncate fd (header_bytes + (capacity_words * word_bytes)));
  let t =
    {
      fd;
      jfd;
      capacity = capacity_words;
      line_hash = [||];
      image_checksum = 0;
      commits = 0;
      hook = sync_hook;
    }
  in
  rebuild_hashes t (zero_line_hash ~cap:capacity_words);
  write_header fd ~capacity:capacity_words ~image_checksum:t.image_checksum;
  fsync fd;
  fsync jfd;
  fsync_dir path;
  t

(* Reopen an existing image: resolve the journal (replay a committed one,
   discard a torn one), then load and checksum-verify the image.  Returns
   the handle, the image words and what happened to the journal. *)
let open_ ~path =
  if not (Sys.file_exists path) then bad path "no such image file";
  let fd = open_fd ~path [ Unix.O_RDWR; Unix.O_CLOEXEC ] in
  let jpath = journal_path path in
  let jfd =
    open_fd ~path:jpath [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
  in
  match
    let capacity, image_checksum = read_header ~path fd in
    let t =
      {
        fd;
        jfd;
        capacity;
        line_hash = [||];
        image_checksum;
        commits = 0;
        hook = (fun _ _ -> ());
      }
    in
    let status =
      match read_journal ~path:jpath jfd with
      | Jnone, _, _, _ -> `None
      | Jcommitted n, jwords, new_capacity, post_checksum ->
          apply_journal t jwords ~new_capacity ~post_checksum;
          `Replayed n
      | Jtorn, _, _, _ ->
          truncate_journal t;
          `Discarded
    in
    let words =
      read_words ~path fd ~pos:header_bytes ~words:t.capacity
    in
    let _, stored_checksum = read_header ~path fd in
    rebuild_hashes t (image_line_hash words ~cap:t.capacity);
    if t.image_checksum <> stored_checksum then
      bad path "image checksum mismatch: content was corrupted out-of-band";
    (t, words, status)
  with
  | v -> v
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.close jfd with Unix.Unix_error _ -> ());
      raise e

let close t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  try Unix.close t.jfd with Unix.Unix_error _ -> ()

let commits t = t.commits

(* -- the atomic batch commit --------------------------------------------- *)

(* [fsyncs_per_commit] is fixed by the protocol: journal, image, journal
   truncate. *)
let fsyncs_per_commit = 3

let commit t ~capacity ~lines =
  let ordinal = t.commits + 1 in
  let nlines = List.length lines in
  if nlines > 0 then begin
    (* grow the hash table with the image *)
    let new_nlines = lines_of_cap capacity in
    if new_nlines > Array.length t.line_hash then begin
      let bigger = Array.make new_nlines (hash_line ~line:0 [||] 0 0) in
      (* fresh lines hash as all-zero content *)
      for line = 0 to new_nlines - 1 do
        bigger.(line) <-
          (if line < Array.length t.line_hash then t.line_hash.(line)
           else zero_line_hash ~cap:capacity line);
        if line >= Array.length t.line_hash then
          t.image_checksum <- t.image_checksum lxor bigger.(line)
      done;
      t.line_hash <- bigger
    end;
    (* post-commit checksum: xor out each written line's old hash, xor in
       the new *)
    let post = ref t.image_checksum in
    List.iter
      (fun (line, words) ->
        let nh = hash_line ~line words 0 (Array.length words) in
        post := !post lxor t.line_hash.(line) lxor nh)
      lines;
    let post_checksum = !post in
    (* 1. journal: header + entries, hook, marker, fsync *)
    let entry_words = 1 + Config.words_per_line in
    let jwords = jheader_words + (nlines * entry_words) in
    let buf = Bytes.make ((jwords + 1) * word_bytes) '\000' in
    put_words buf 0
      [| jmagic; format_version; nlines; capacity; post_checksum |]
      0 jheader_words;
    let eh = ref 0 in
    List.iteri
      (fun e (line, words) ->
        let base = jheader_words + (e * entry_words) in
        let padded = Array.make entry_words 0 in
        padded.(0) <- line;
        Array.blit words 0 padded 1 (Array.length words);
        put_words buf base padded 0 entry_words;
        for i = base to base + entry_words - 1 do
          eh := mix !eh (get_word buf i)
        done)
      lines;
    retrying (fun () -> Unix.ftruncate t.jfd 0);
    seek t.jfd 0;
    write_all t.jfd (Bytes.sub buf 0 (jwords * word_bytes));
    t.hook Journal_torn ordinal;
    let marker = Bytes.create word_bytes in
    Bytes.set_int64_le marker 0
      (Int64.of_int
         (journal_marker ~nlines ~capacity ~post_checksum !eh));
    seek t.jfd (jwords * word_bytes);
    write_all t.jfd marker;
    fsync t.jfd;
    t.hook Journal_committed ordinal;
    (* 2. apply to the image + header, fsync *)
    if capacity > t.capacity then begin
      retrying (fun () ->
          Unix.ftruncate t.fd (header_bytes + (capacity * word_bytes)));
      t.capacity <- capacity
    end;
    let lbuf = Bytes.create (Config.words_per_line * word_bytes) in
    List.iteri
      (fun e (line, words) ->
        if e = nlines / 2 then t.hook Mid_apply ordinal;
        let len = Array.length words in
        put_words lbuf 0 words 0 len;
        seek t.fd (header_bytes + ((line lsl Config.line_shift) * word_bytes));
        write_all t.fd (Bytes.sub lbuf 0 (len * word_bytes));
        let nh = hash_line ~line words 0 len in
        t.line_hash.(line) <- nh)
      lines;
    t.image_checksum <- post_checksum;
    write_header t.fd ~capacity:t.capacity ~image_checksum:post_checksum;
    fsync t.fd;
    t.hook Applied ordinal;
    (* 3. retire the journal *)
    truncate_journal t;
    t.commits <- ordinal
  end

(* -- read-only inspection (fsck) ----------------------------------------- *)

type image = {
  i_capacity : int;
  i_words : int array;  (** effective image: a committed journal applied *)
  i_journal : journal_status;
  i_checksum_ok : bool;
}

(* Load the image without mutating anything on disk: a committed journal
   is applied in memory only, a torn one is ignored (exactly what a
   repairing open would do, minus the writes). *)
let inspect ~path =
  if not (Sys.file_exists path) then bad path "no such image file";
  let fd = open_fd ~path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] in
  let jpath = journal_path path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let capacity, header_cs = read_header ~path fd in
      let words = read_words ~path fd ~pos:header_bytes ~words:capacity in
      let journal, expect_cs, capacity, words =
        match Sys.file_exists jpath with
        | false -> (Jnone, header_cs, capacity, words)
        | true ->
            let jfd = open_fd ~path:jpath [ Unix.O_RDONLY; Unix.O_CLOEXEC ] in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close jfd with Unix.Unix_error _ -> ())
              (fun () ->
                match read_journal ~path:jpath jfd with
                | Jnone, _, _, _ -> (Jnone, header_cs, capacity, words)
                | Jtorn, _, _, _ -> (Jtorn, header_cs, capacity, words)
                | Jcommitted n, jwords, new_capacity, post_checksum ->
                    let cap = max capacity new_capacity in
                    let grown = Array.make cap 0 in
                    copy_words words 0 grown 0 capacity;
                    let entry_words = 1 + Config.words_per_line in
                    for e = 0 to n - 1 do
                      let base = jheader_words + (e * entry_words) in
                      let line = jwords.(base) in
                      let len = line_len ~cap line in
                      copy_words jwords (base + 1) grown
                        (line lsl Config.line_shift)
                        len
                    done;
                    (Jcommitted n, post_checksum, cap, grown))
      in
      {
        i_capacity = capacity;
        i_words = words;
        i_journal = journal;
        i_checksum_ok = checksum_of words capacity = expect_cs;
      })

(* Atomic whole-image rewrite (fsck --repair): write a fresh image to a
   temporary, fsync, rename over the original, drop the journal. *)
let rewrite ~path ~words =
  let capacity = Array.length words in
  let tmp = path ^ ".repair" in
  let fd =
    open_fd ~path:tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
  in
  let image_checksum = checksum_of words capacity in
  write_header fd ~capacity ~image_checksum;
  let chunk = 4096 in
  let buf = Bytes.create (chunk * word_bytes) in
  let off = ref 0 in
  seek fd header_bytes;
  while !off < capacity do
    let n = min chunk (capacity - !off) in
    put_words buf 0 words !off n;
    write_all fd (Bytes.sub buf 0 (n * word_bytes));
    off := !off + n
  done;
  fsync fd;
  Unix.close fd;
  Unix.rename tmp path;
  let jpath = journal_path path in
  if Sys.file_exists jpath then Sys.remove jpath;
  fsync_dir path

(* Hand-of-god corruption for tests and the fsck property: overwrite one
   word in place, bypassing the journal and the checksum maintenance --
   exactly the out-of-band damage fsck must catch. *)
let poke_word ~path ~index word =
  let fd = open_fd ~path [ Unix.O_RDWR; Unix.O_CLOEXEC ] in
  let buf = Bytes.create word_bytes in
  Bytes.set_int64_le buf 0 (Int64.of_int word);
  seek fd (header_bytes + (index * word_bytes));
  write_all fd buf;
  fsync fd;
  Unix.close fd

let peek_word ~path ~index =
  let fd = open_fd ~path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] in
  let buf = Bytes.create word_bytes in
  seek fd (header_bytes + (index * word_bytes));
  read_exact ~path fd buf;
  Unix.close fd;
  Int64.to_int (Bytes.get_int64_le buf 0)
