type t = int

type span = int

let zero = 0

let of_ns n =
  if n < 0 then invalid_arg "Time.of_ns: negative";
  n

let of_us n = of_ns (n * 1_000)
let of_ms n = of_ns (n * 1_000_000)
let of_sec n = of_ns (n * 1_000_000_000)

(* [max_int] rounds up to 2^62 as a float, so a rounded float of
   nanoseconds converts exactly when it is below this bound (about 146
   years); [int_of_float] past it is undefined. *)
let ns_limit = float_of_int max_int

(* [of_sec_f] and [span_of_sec_f] share one body: both round a
   non-negative float of seconds to integer nanoseconds. The argument
   name in the error message is the only per-caller difference. *)
let ns_of_sec_f ~what s =
  if not (Float.is_finite s) || s < 0.0 then
    invalid_arg (what ^ ": negative or non-finite");
  let ns = Float.round (s *. 1e9) in
  if ns >= ns_limit then invalid_arg (what ^ ": out of range");
  int_of_float ns

let of_sec_f s = ns_of_sec_f ~what:"Time.of_sec_f" s

let to_ns t = t
let to_sec_f t = float_of_int t /. 1e9

let add t d =
  if d < 0 then invalid_arg "Time.add: negative span";
  t + d

let diff a b = a - b

let span_of_sec_f s = ns_of_sec_f ~what:"Time.span_of_sec_f" s

let mul_span d n =
  if d < 0 then invalid_arg "Time.mul_span: negative span";
  if n < 0 then invalid_arg "Time.mul_span: negative factor";
  d * n

let span_of_ms n =
  if n < 0 then invalid_arg "Time.span_of_ms: negative";
  n * 1_000_000

let span_of_sec n =
  if n < 0 then invalid_arg "Time.span_of_sec: negative";
  n * 1_000_000_000

let span_to_sec_f d = float_of_int d /. 1e9

let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : int) b = a <= b
let ( < ) (a : int) b = a < b
let ( >= ) (a : int) b = a >= b
let ( > ) (a : int) b = a > b

let min (a : int) b = Stdlib.min a b
let max (a : int) b = Stdlib.max a b

let pp ppf t = Format.fprintf ppf "%.3fs" (to_sec_f t)
