(* Parallel sweep runner: fan independent scenario instances across
   domains.

   Each simulation is single-threaded and deterministic (see Sim); a
   sweep — Fig. 6's traffic×size grid, Fig. 8's seed set — is a list of
   such runs with no shared mutable state, so the only parallelism this
   module offers is the embarrassing kind: an indexed work queue drained
   by [jobs] domains, results delivered in input order. Determinism is
   preserved trivially because domains never share a simulator and the
   result array is position-addressed: [map ~jobs:8 f items] returns
   exactly what [map ~jobs:1 f items] does, in the same order.

   Thunks must therefore be self-contained: anything read from global
   mutable state must be captured *before* calling [map], in the
   caller's domain. *)

let cores () = Domain.recommended_domain_count ()

type 'b outcome = Done of 'b | Failed of exn * Printexc.raw_backtrace

let map ?(jobs = 1) f items =
  if jobs < 1 then invalid_arg "Sweep.map: jobs < 1";
  match items with
  | [] -> []
  | [ x ] -> [ f 0 x ]
  | _ when jobs = 1 -> List.mapi f items
  | _ ->
      let arr = Array.of_list items in
      let n = Array.length arr in
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let rec worker () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (let r =
             match f i arr.(i) with
             | v -> Done v
             | exception e -> Failed (e, Printexc.get_raw_backtrace ())
           in
           results.(i) <- Some r);
          worker ()
        end
      in
      let spawned = min (jobs - 1) (n - 1) in
      let domains = List.init spawned (fun _ -> Domain.spawn worker) in
      (* The calling domain works too, so a sweep never idles it. *)
      worker ();
      List.iter Domain.join domains;
      Array.to_list results
      |> List.map (function
           | Some (Done v) -> v
           | Some (Failed (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)

let run ?jobs f items = map ?jobs (fun _ x -> f x) items
