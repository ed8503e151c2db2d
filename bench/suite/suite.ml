(* The repository benchmark: four workloads, every run a fresh child
   process of this executable, end-to-end host metrics with their
   spread, and a sampled per-layer profile from one traced child.

     suite.exe [--seed S] [--repeats N] [--out FILE]
         one full set: every workload N times (default 5), workload
         order rotated per repeat, then one traced child per workload;
         prints every metric with unit, median, quartiles and n, and
         exits 1 if any check failed
     suite.exe --workload W --seed S --seconds T --trace 0|1
         one measurement window of one workload: timed children until T
         seconds are spent (plus one traced child with --trace 1); the
         last stdout line is a JSON result with the end-to-end metrics
         (--trace 0) or the per-layer ones (--trace 1)
     suite.exe compare PARENT.json CHANGE.json [--benchmark FILE]
         verdict per (metric, workload) between two sets written by --out
     suite.exe smoke BENCHMARK.json
         tiny versions of the four workloads, timed and traced once each;
         asserts the result shape, the digests and the trace coverage *)

let size_name = function Workload.Full -> "full" | Workload.Smoke -> "smoke"
let now = Unix.gettimeofday

(* ---------- the child: one workload run, one JSON line ---------- *)

let num_obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs)

let child ~workload ~seed ~size ~traced =
  let w =
    match Workload.find workload with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  let run () = w.run ~size ~seed in
  let r, trace =
    if traced then
      let r, p = Profile.profile run in
      (r, Profile.metrics p)
    else (run (), [])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("setup_s", Num r.setup_s);
            ("run_s", Num r.run_s);
            ("wall_s", Num r.wall_s);
            ( "peak_rss_mb",
              Num (float_of_int (Scenarios.Scale.peak_rss_kb ()) /. 1024.0) );
            ("digest", Str r.digest);
            ("checks", Num (float_of_int r.checks));
            ("failures", List (List.map (fun s -> Json.Str s) r.failures));
            ("counts", num_obj r.counts);
            ("trace", num_obj trace);
          ]))

(* Runs one child to completion and reads its result line. The runtime
   events ring of a traced child goes beside the executable, inside the
   build tree (the runtime removes it at exit). *)
let spawn ~workload ~seed ~size ~traced =
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "child"; workload; string_of_int seed; size_name size;
      (if traced then "traced" else "timed");
    |]
  in
  let env =
    Array.append
      [| "OCAML_RUNTIME_EVENTS_DIR=" ^ Filename.dirname exe |]
      (Unix.environment ())
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env exe args env Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let what =
    Printf.sprintf "%s %s child" workload (if traced then "traced" else "timed")
  in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> (
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
      match Json.of_string (List.nth lines (List.length lines - 1)) with
      | j -> Ok j
      | exception _ -> Error (what ^ " printed no result"))
  | Unix.WEXITED n -> Error (Printf.sprintf "%s exited with %d" what n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "%s stopped by signal %d" what n)

(* ---------- summarizing a workload's children ---------- *)

type summary = {
  workload : string;
  e2e : (string * float list) list;  (** values over the timed children *)
  layer : (string * float) list;
  attempted : int;
  failures : string list;
  digest : string;
}

let field name j = Json.to_num (Json.member name j)

(* Every child's own checks, plus one digest check per child that has
   something to agree with: the committed golden digest (seed 42, full
   size) or, for any other seed, the first child's digest. A child that
   dies is one failed check. *)
let assess ~workload ~seed ~size results =
  let reference =
    ref
      (if size = Workload.Full then List.assoc_opt (workload, seed) Golden.digests
       else None)
  in
  List.fold_left
    (fun (attempted, failures) r ->
      match r with
      | Error e -> (attempted + 1, e :: failures)
      | Ok j ->
          let own =
            List.map Json.to_str (Json.to_list (Json.member "failures" j))
          in
          let digest = Json.to_str (Json.member "digest" j) in
          let agreed, own =
            match !reference with
            | None ->
                reference := Some digest;
                (0, own)
            | Some d when d = digest -> (1, own)
            | Some d ->
                (1, Printf.sprintf "digest %s, expected %s" digest d :: own)
          in
          ( attempted + int_of_float (field "checks" j) + agreed,
            List.map (fun f -> workload ^ ": " ^ f) own @ failures ))
    (0, []) results

let summarize ~workload ~seed ~size ~timed ~traced =
  let attempted, failures =
    assess ~workload ~seed ~size (timed @ Option.to_list traced)
  in
  let ok = List.filter_map Result.to_option timed in
  let values name = List.map (field name) ok in
  let e2e =
    List.map
      (fun (name, _, _) ->
        ( name,
          if name = "check_pass_ratio" then
            [
              float_of_int (attempted - List.length failures)
              /. float_of_int attempted;
            ]
          else values name ))
      Catalog.end_to_end
  in
  let count name =
    Stats.median
      (List.map
         (fun j ->
           match Json.member name (Json.member "counts" j) with
           | Json.Num v -> v
           | _ -> 0.0)
         ok)
  in
  let trace =
    match Option.bind traced Result.to_option with
    | None -> []
    | Some j ->
        let wall = field "wall_s" j and base = Stats.median (values "wall_s") in
        ("trace.overhead_pct", 100.0 *. (wall -. base) /. base)
        :: List.map
             (fun (k, v) -> (k, Json.to_num v))
             (Json.to_obj (Json.member "trace" j))
  in
  (* The catalogue's metrics in its order, then what the trace adds
     beyond them (the sampled CPU time). *)
  let layer =
    List.map
      (fun (name, _, _) ->
        ( name,
          match List.assoc_opt name trace with
          | Some v -> v
          | None -> if Catalog.from_timed_runs name then count name else nan ))
      Catalog.per_layer
    @ List.filter (fun (k, _) -> Catalog.unit_of k = None) trace
  in
  let digest =
    match ok with j :: _ -> Json.to_str (Json.member "digest" j) | [] -> ""
  in
  { workload; e2e; layer; attempted; failures = List.rev failures; digest }

let print_summary s =
  Printf.printf "%s  digest %s  checks %d/%d passed\n" s.workload s.digest
    (s.attempted - List.length s.failures)
    s.attempted;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) s.failures;
  List.iter
    (fun (name, vs) ->
      let q1, q3 = Stats.quartiles vs in
      Printf.printf "  %-32s %12.6g %-5s [q1 %.6g, q3 %.6g]  n=%d  (%s)\n"
        name (Stats.median vs)
        (Option.value ~default:"" (Catalog.unit_of name))
        q1 q3 (List.length vs)
        (String.concat " " (List.map (Printf.sprintf "%.4g") vs)))
    s.e2e;
  List.iter
    (fun (name, v) ->
      if not (Float.is_nan v) then
        Printf.printf "  %-32s %12.6g %s\n" name v
          (Option.value ~default:"" (Catalog.unit_of name)))
    s.layer;
  flush stdout

(* ---------- one workload, one measurement window ---------- *)

(* Timed children run back to back while the next one (estimated as the
   median so far) still fits in [seconds]; at least one always runs.
   With [trace] the window also keeps room for one traced child. *)
let window ~workload ~seed ~seconds ~trace =
  let t0 = now () in
  let rec loop acc durations =
    let s0 = now () in
    let r = spawn ~workload ~seed ~size:Workload.Full ~traced:false in
    let durations = (now () -. s0) :: durations in
    let est = Stats.median durations in
    let reserve = if trace then 1.3 *. est else 0.0 in
    if now () -. t0 +. est +. reserve <= seconds then
      loop (r :: acc) durations
    else List.rev (r :: acc)
  in
  let timed = loop [] [] in
  let traced =
    if trace then
      Some (spawn ~workload ~seed ~size:Workload.Full ~traced:true)
    else None
  in
  summarize ~workload ~seed ~size:Workload.Full ~timed ~traced

let result_line s ~trace =
  let metrics =
    if trace then
      List.map
        (fun (name, u, _) -> (name, List.assoc name s.layer, u))
        Catalog.per_layer
    else
      List.map
        (fun (name, u, _) -> (name, Stats.median (List.assoc name s.e2e), u))
        Catalog.end_to_end
  in
  Json.Obj
    [
      ("correct", Bool (s.failures = []));
      ("attempted", Num (float_of_int s.attempted));
      ("failed", Num (float_of_int (List.length s.failures)));
      ( "metrics",
        Obj
          (List.map
             (fun (name, v, u) ->
               (name, Json.Obj [ ("value", Num v); ("unit", Str u) ]))
             metrics) );
    ]

(* ---------- a full set ---------- *)

let set_json ~seed ~repeats summaries =
  let e2e s =
    Json.Obj
      (List.map
         (fun (name, vs) ->
           let q1, q3 = Stats.quartiles vs in
           ( name,
             Json.Obj
               [
                 ( "unit",
                   Str (Option.value ~default:"" (Catalog.unit_of name)) );
                 ("values", List (List.map (fun v -> Json.Num v) vs));
                 ("median", Num (Stats.median vs));
                 ("q1", Num q1);
                 ("q3", Num q3);
                 ("n", Num (float_of_int (List.length vs)));
               ] ))
         s.e2e)
  in
  Json.Obj
    [
      ("seed", Num (float_of_int seed));
      ("repeats", Num (float_of_int repeats));
      ( "scheduler",
        Str
          (Engine.Event_queue.backend_to_string
             (Engine.Event_queue.default ())) );
      ( "workloads",
        List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Str s.workload);
                   ("digest", Str s.digest);
                   ("attempted", Num (float_of_int s.attempted));
                   ( "failures",
                     List (List.map (fun f -> Json.Str f) s.failures) );
                   ("end_to_end", e2e s);
                   ("per_layer", num_obj s.layer);
                 ])
             summaries) );
    ]

let full_set ~seed ~repeats ~out =
  let names = List.map (fun (w : Workload.t) -> w.name) Workload.all in
  let n = List.length names in
  let runs = Hashtbl.create n in
  for r = 0 to repeats - 1 do
    for i = 0 to n - 1 do
      let workload = List.nth names ((i + r) mod n) in
      let s0 = now () in
      let res = spawn ~workload ~seed ~size:Workload.Full ~traced:false in
      Printf.printf "repeat %d/%d  %-14s %6.2f s%s\n%!" (r + 1) repeats
        workload (now () -. s0)
        (match res with Ok _ -> "" | Error e -> "  " ^ e);
      Hashtbl.add runs workload res
    done
  done;
  let summaries =
    List.map
      (fun workload ->
        let traced = spawn ~workload ~seed ~size:Workload.Full ~traced:true in
        summarize ~workload ~seed ~size:Workload.Full
          ~timed:(List.rev (Hashtbl.find_all runs workload))
          ~traced:(Some traced))
      names
  in
  List.iter print_summary summaries;
  Option.iter
    (fun path -> Json.write_file path (set_json ~seed ~repeats summaries))
    out;
  if List.exists (fun s -> s.failures <> []) summaries then exit 1

(* ---------- smoke: the shape of everything, in a few seconds ---------- *)

let smoke ~benchmark =
  let spec = Json.read_file benchmark in
  let names key =
    List.map
      (fun m -> Json.to_str (Json.member "name" m))
      (Json.to_list (Json.member key spec))
  in
  let problems = ref [] in
  let expect ok msg = if not ok then problems := msg :: !problems in
  expect
    (names "end_to_end" = List.map Catalog.name Catalog.end_to_end)
    "BENCHMARK.json end_to_end differs from the catalogue";
  expect
    (names "per_layer" = List.map Catalog.name Catalog.per_layer)
    "BENCHMARK.json per_layer differs from the catalogue";
  expect
    (names "workloads" = List.map (fun (w : Workload.t) -> w.name) Workload.all)
    "BENCHMARK.json workloads differ from the suite's";
  List.iter
    (fun (w : Workload.t) ->
      let run traced =
        spawn ~workload:w.name ~seed:42 ~size:Workload.Smoke ~traced
      in
      let timed = run false in
      let s =
        summarize ~workload:w.name ~seed:42 ~size:Workload.Smoke ~timed:[ timed ]
          ~traced:(Some (run true))
      in
      let problem fmt = Printf.ksprintf (fun m -> w.name ^ ": " ^ m) fmt in
      List.iter (fun f -> expect false f) s.failures;
      expect (s.attempted > 2) (problem "too few checks");
      List.iter
        (fun (name, vs) ->
          expect
            (vs <> [] && List.for_all (fun v -> v > 0.0) vs)
            (problem "%s not positive" name))
        s.e2e;
      List.iter
        (fun (name, v) -> expect (Float.is_finite v) (problem "%s missing" name))
        s.layer;
      let coverage = List.assoc "trace.coverage" s.layer in
      expect (coverage >= 0.95) (problem "trace coverage %.3f < 0.95" coverage);
      List.iter
        (fun trace ->
          let line = Json.of_string (Json.to_string (result_line s ~trace)) in
          expect
            (List.map fst (Json.to_obj (Json.member "metrics" line))
            = names (if trace then "per_layer" else "end_to_end"))
            (problem "result line metrics differ from BENCHMARK.json"))
        [ false; true ];
      Printf.printf "smoke %-14s digest %s  coverage %.3f  checks %d\n%!" w.name
        s.digest coverage s.attempted)
    Workload.all;
  match !problems with
  | [] -> print_endline "smoke ok"
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1

(* ---------- command line ---------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let int_opt name default =
    Option.fold ~none:default ~some:int_of_string (opt name args)
  in
  match args with
  | [ "child"; workload; seed; size; mode ] ->
      child ~workload ~seed:(int_of_string seed)
        ~size:(if size = "smoke" then Workload.Smoke else Workload.Full)
        ~traced:(mode = "traced")
  | "compare" :: parent :: change :: rest ->
      exit
        (Compare.run ~parent ~change
           ~benchmark:
             (Option.value ~default:"BENCHMARK.json" (opt "--benchmark" rest)))
  | [ "smoke"; benchmark ] -> smoke ~benchmark
  | _ -> (
      let seed = int_opt "--seed" 42 in
      match opt "--workload" args with
      | Some workload ->
          if Workload.find workload = None then (
            prerr_endline ("unknown workload " ^ workload);
            exit 2);
          let trace = opt "--trace" args = Some "1" in
          let s =
            window ~workload ~seed
              ~seconds:(float_of_int (int_opt "--seconds" 30))
              ~trace
          in
          print_summary s;
          print_endline (Json.to_string (result_line s ~trace))
      | None ->
          full_set ~seed ~repeats:(int_opt "--repeats" 5) ~out:(opt "--out" args))
