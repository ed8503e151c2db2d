type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* The standard SplitMix64 output mix (Steele, Lea & Flood 2014). *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = seed }

(* FNV-1a over the label, folded into the parent state. Deterministic in
   (parent seed, label) and independent of split order. *)
let hash_label label =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    label;
  !h

let split g ~label = { state = mix64 (Int64.logxor g.state (hash_label label)) }

let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix64 g.state

let int g ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  (* Rejection-free for our purposes: bound is tiny relative to 2^62, the
     modulo bias is below 2^-50. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  v mod bound

let float g =
  (* 53 high bits -> uniform double in [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 g) 11) in
  float_of_int v *. 0x1.0p-53

let uniform g ~lo ~hi =
  if hi < lo then invalid_arg "Prng.uniform: hi < lo";
  lo +. ((hi -. lo) *. float g)

let bool g ~p =
  let p = Float.max 0.0 (Float.min 1.0 p) in
  float g < p
