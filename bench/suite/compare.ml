(* [suite.exe compare PARENT CHANGE]: a verdict for every (metric,
   workload) pair of two sets written by [--out].

   End-to-end metrics use the medians, quartiles and the BENCHMARK.json
   bounds:
   - unresolved: the spread (interquartile distance over median, the
     wider of the two sides) exceeds the bound, and neither side has
     every run better than every run of the other;
   - regressed: the change's median is worse by more than the bound
     (for setup_s, by more than the bound or 0.05 s, whichever is
     larger);
   - improved: every change run beats every parent run, or the change's
     quartile range clears the parent's on the better side;
   - unchanged otherwise.

   Counts compare with [=]. Allocated words jitter by a few dozen words
   in 10^8 between identical runs, so they compare within 10^-4. The
   per-event timing and the traced per-layer values (one run per side)
   are shown as deltas only. *)

let e2e_verdict ~name ~bound ~better pv cv =
  let mp = Stats.median pv and mc = Stats.median cv in
  let lower = better = Catalog.Lower in
  let gain = (if lower then mp -. mc else mc -. mp) /. mp in
  let bound =
    if name = "setup_s" then Float.max bound (0.05 /. mp) else bound
  in
  let extreme pick xs = List.fold_left pick (List.hd xs) xs in
  let best = extreme (if lower then Float.min else Float.max) in
  let worst = extreme (if lower then Float.max else Float.min) in
  let beats a b = if lower then worst a < best b else worst a > best b in
  let clears a b =
    let a1, a3 = Stats.quartiles a and b1, b3 = Stats.quartiles b in
    if lower then a3 < b1 else a1 > b3
  in
  if
    Float.max (Stats.spread pv) (Stats.spread cv) > bound
    && not (beats cv pv || beats pv cv)
  then "unresolved"
  else if -.gain > bound then "regressed"
  else if beats cv pv || clears cv pv then "improved"
  else "unchanged"

let count_verdict metric p c =
  let moved () =
    if (c < p) = (Catalog.better_of metric = Some Catalog.Lower) then
      "improved"
    else "regressed"
  in
  if not (Catalog.from_timed_runs metric) then "traced"
  else
    match Catalog.unit_of metric with
    | Some "count" -> if p = c then "unchanged" else moved ()
    | Some "words" ->
        if Float.abs (c -. p) <= 1e-4 *. Float.abs p then "unchanged"
        else moved ()
    | _ -> "timed"

(* FILE is a set written by --out; FILE:NAME is set NAME of a file of
   sets, such as baseline.json:heap-a. *)
let read_set arg =
  let set =
    match String.rindex_opt arg ':' with
    | Some i ->
        Json.member
          (String.sub arg (i + 1) (String.length arg - i - 1))
          (Json.member "sets" (Json.read_file (String.sub arg 0 i)))
    | None -> Json.read_file arg
  in
  List.map
    (fun w -> (Json.to_str (Json.member "name" w), w))
    (Json.to_list (Json.member "workloads" set))

let run ~parent ~change ~benchmark =
  let bounds =
    List.map
      (fun m ->
        (Json.to_str (Json.member "name" m), Json.to_num (Json.member "bound" m)))
      (Json.to_list (Json.member "end_to_end" (Json.read_file benchmark)))
  in
  let cws = read_set change in
  let regressions = ref 0 in
  let line workload metric pv cv verdict =
    if verdict = "regressed" then incr regressions;
    Printf.printf "%-14s %-36s %14.6g -> %-14.6g %+8.2f%%  %s\n" workload metric
      pv cv
      (if cv = pv then 0.0 else 100.0 *. (cv -. pv) /. pv)
      verdict
  in
  List.iter
    (fun (name, pw) ->
      match List.assoc_opt name cws with
      | None -> Printf.printf "%-14s missing from %s\n" name change
      | Some cw ->
          let digest w = Json.to_str (Json.member "digest" w) in
          Printf.printf "%-14s digest %s\n" name
            (if digest pw = digest cw then "identical" else "DIFFERS");
          List.iter
            (fun (metric, bound) ->
              let values w =
                Json.member "end_to_end" w |> Json.member metric
                |> Json.member "values" |> Json.to_list |> List.map Json.to_num
              in
              match (values pw, values cw) with
              | [], _ | _, [] ->
                  Printf.printf "%-14s %-36s no values\n" name metric
              | pv, cv ->
                  let better =
                    Option.value ~default:Catalog.Lower (Catalog.better_of metric)
                  in
                  line name metric (Stats.median pv) (Stats.median cv)
                    (e2e_verdict ~name:metric ~bound ~better pv cv))
            bounds;
          List.iter
            (fun (metric, p) ->
              let p = Json.to_num p
              and c =
                Json.to_num (Json.member metric (Json.member "per_layer" cw))
              in
              line name metric p c (count_verdict metric p c))
            (Json.to_obj (Json.member "per_layer" pw)))
    (read_set parent);
  if !regressions > 0 then 1 else 0
