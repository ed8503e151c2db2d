(* Day-2 operations around a TopoSense domain: billing receivers for
   delivered content (the paper's Section II/VII use case), watching link
   utilization, and walking the discovered tree mtrace-style.

     dune exec examples/operations.exe *)

module Time = Engine.Time

let () =
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:2 in
  let world =
    Scenarios.World.build ~spec ~source_label:(fun _ -> "source")
      ~control:(Scenarios.World.Flat { probe = false })
      ~agents:Scenarios.World.Every_receiver ()
  in
  let { Scenarios.World.sim; network; router; _ } = world in
  let session = List.hd world.sessions in
  let _, receivers = List.hd spec.sessions in
  (* Billing rides on the reports the controller already receives; none
     arrives before the run starts. *)
  let billing = Toposense.Billing.create () in
  Toposense.Controller.set_billing (Option.get world.flat) billing;
  (* Link monitoring, sampled once per second. *)
  let flows = Net.Flow_stats.create ~network () in
  ignore (Net.Flow_stats.attach flows ~period:(Time.span_of_sec 1));

  Engine.Sim.run_until sim (Time.of_sec 600);

  Format.printf "After 600 simulated seconds:@.@.";
  Format.printf "Invoices (0.05/MB + 0.20/layer-hour):@.";
  List.iter
    (fun (line : Toposense.Billing.invoice_line) ->
      Format.printf "  n%-3d %6.1f MB, %5.2f layer-hours -> %6.2f@."
        line.receiver line.megabytes line.layer_hours line.amount)
    (Toposense.Billing.invoice billing ~session:0 ~price_per_megabyte:0.05
       ~price_per_layer_hour:0.20);

  Format.printf "@.Busiest links (mean utilization):@.";
  List.iter
    (fun (node, iface, util) ->
      Format.printf "  n%d -> n%d: %4.0f%%  (drops %d)@." node
        (Net.Network.neighbor network ~node ~iface)
        (100.0 *. util)
        (Net.Flow_stats.total_drops flows ~node ~iface))
    (Net.Flow_stats.busiest_links flows ~top:5);

  Format.printf "@.mtrace from the controller to each receiver:@.";
  List.iter
    (fun receiver ->
      match Discovery.Mtrace.trace ~router ~session ~receiver with
      | Error e -> Format.printf "  n%d: %s@." receiver e
      | Ok hops ->
          Format.printf "  n%-3d: %s (walk %.1f s)@." receiver
            (String.concat " <- "
               (List.map
                  (fun (h : Discovery.Mtrace.hop) ->
                    Printf.sprintf "n%d[%s]" h.node
                      (String.concat "," (List.map string_of_int h.layers)))
                  hops))
            (Time.span_to_sec_f
               (Discovery.Mtrace.trace_latency ~network
                  ~querier:spec.controller_node ~path:hops)))
    receivers
