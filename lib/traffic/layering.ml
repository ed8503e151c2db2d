type t = {
  rates : float array;  (* individual layer rates, bits/s *)
  cumulative : float array;  (* cumulative.(k) = bandwidth of level k *)
}

let create ~base_bps ~multiplier ~count =
  let rates =
    Array.init count (fun i -> base_bps *. (multiplier ** float_of_int i))
  in
  let cumulative = Array.make (count + 1) 0.0 in
  for i = 0 to count - 1 do
    cumulative.(i + 1) <- cumulative.(i) +. rates.(i)
  done;
  { rates; cumulative }

let paper_default = create ~base_bps:32_000.0 ~multiplier:2.0 ~count:6

let count t = Array.length t.rates

let rate_bps t ~layer =
  if layer < 0 || layer >= count t then invalid_arg "Layering.rate_bps: layer";
  t.rates.(layer)

let cumulative_bps t ~level =
  if level < 0 || level > count t then
    invalid_arg "Layering.cumulative_bps: level";
  t.cumulative.(level)

let level_for_bandwidth t ~bps =
  let rec loop k =
    if k <= 0 then 0
    else if t.cumulative.(k) <= bps then k
    else loop (k - 1)
  in
  loop (count t)
