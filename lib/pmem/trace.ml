(** Persistent-memory event trace (Section 5.4).

    The paper's automated testing framework records all PM allocations,
    writes, flushes, commits and fences during execution; a checker then
    verifies that (1) all PM writes outside commit sections target newly
    allocated memory and (2) every PM write is flushed before the next
    fence.  This module is the recording half; [Mod_core.Consistency]
    implements the checker. *)

type event =
  | Alloc of { off : int; words : int }
  | Free of { off : int; words : int }
  | Write of { off : int }
  | Flush of { line : int }
  | Fence
  | Commit_begin
  | Commit_end
  | Crash

type t = {
  enabled : bool;
  mutable events : event array;
  mutable len : int;
}

let create ~enabled = { enabled; events = Array.make 1024 Fence; len = 0 }

let clear t = t.len <- 0
let enabled t = t.enabled

let emit t ev =
  if t.enabled then begin
    if t.len = Array.length t.events then begin
      let bigger = Array.make (2 * t.len) Fence in
      Array.blit t.events 0 bigger 0 t.len;
      t.events <- bigger
    end;
    t.events.(t.len) <- ev;
    t.len <- t.len + 1
  end

let length t = t.len

(* Rewind to a previously observed [length]: region restore drops the
   events a sampled crash appended after the snapshot was taken. *)
let truncate t len =
  if len < 0 || len > t.len then
    invalid_arg (Printf.sprintf "Trace.truncate: length %d out of range" len);
  t.len <- len

let get t i = t.events.(i)
let iter t fn =
  for i = 0 to t.len - 1 do
    fn t.events.(i)
  done

let to_list t =
  let rec build i acc = if i < 0 then acc else build (i - 1) (t.events.(i) :: acc) in
  build (t.len - 1) []

let pp_event ppf = function
  | Alloc { off; words } -> Format.fprintf ppf "alloc(%d, %d words)" off words
  | Free { off; words } -> Format.fprintf ppf "free(%d, %d words)" off words
  | Write { off } -> Format.fprintf ppf "write(%d)" off
  | Flush { line } -> Format.fprintf ppf "clwb(line %d)" line
  | Fence -> Format.fprintf ppf "sfence"
  | Commit_begin -> Format.fprintf ppf "commit-begin"
  | Commit_end -> Format.fprintf ppf "commit-end"
  | Crash -> Format.fprintf ppf "crash"
