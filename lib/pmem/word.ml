type t = int

(* bit 0 = 1 : persistent pointer, payload is a word offset.
   bit 0 = 0 : scalar, payload is a signed 62-bit integer. *)

let null = 1
let of_ptr off =
  if off < 0 then invalid_arg "Word.of_ptr: negative offset";
  (off lsl 1) lor 1

let is_ptr w = w land 1 = 1
let is_null w = w = null

let[@inline] to_ptr w =
  if not (is_ptr w) then invalid_arg "Word.to_ptr: scalar word";
  w lsr 1

let of_int v = v lsl 1
let to_int w =
  if is_ptr w then invalid_arg "Word.to_int: pointer word";
  w asr 1

let raw bits = bits
let bits w = w
let zero = 0

let pp ppf w =
  if is_ptr w then
    if is_null w then Format.fprintf ppf "null"
    else Format.fprintf ppf "&%d" (to_ptr w)
  else Format.fprintf ppf "%d" (to_int w)
