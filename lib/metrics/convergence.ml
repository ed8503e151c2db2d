module Time = Engine.Time

let time_to_first_reach ~changes ~joined_at ~target =
  let rec find = function
    | [] -> None
    | (at, level) :: rest ->
        if Time.(at >= joined_at) && level >= target then
          Some (Time.diff at joined_at)
        else find rest
  in
  find changes

let disruption ~changes ~window:(w0, w1) ~baseline =
  let rec count prev acc = function
    | [] -> acc
    | (at, level) :: rest ->
        let acc =
          if
            Time.(at >= w0)
            && Time.(at <= w1)
            && level < baseline
            && level < prev
          then acc + 1
          else acc
        in
        count level acc rest
  in
  count max_int 0 changes
