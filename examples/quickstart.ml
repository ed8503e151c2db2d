(* Quickstart: build the paper's Fig. 1 network by hand, run TopoSense on
   it, and watch the receivers converge to the layers their bottlenecks
   afford.

   This walks the public API at the lowest level — simulator, topology,
   network, multicast, sources, controller, receiver agents — the same
   stack `Scenarios.World` builds for every scenario; it is the one place
   that wires it by hand.

     dune exec examples/quickstart.exe *)

module Time = Engine.Time
module Topology = Net.Topology

let () =
  (* 1. A deterministic simulator. *)
  let sim = Engine.Sim.create ~seed:42L () in

  (* 2. The Fig. 1 topology: a fast core, a constrained branch serving
     nodes 3 and 4, and an unconstrained branch serving 6 and 7. *)
  let spec = Scenarios.Builders.figure1 () in
  let network = Net.Network.create ~sim spec.topology in

  (* 3. Multicast routing with 1 s IGMP-style leave latency. *)
  let router = Multicast.Router.create ~network () in

  (* 4. One 6-layer session (32 Kbps base, doubling per layer). *)
  let source_node, receivers = List.hd spec.sessions in
  let session =
    Traffic.Session.create ~router ~source:source_node
      ~layering:Traffic.Layering.paper_default ~id:0
  in
  ignore
    (Traffic.Source.start ~network ~session ~kind:Traffic.Source.Cbr
       ~rng:(Engine.Sim.rng sim ~label:"source") ());

  (* 5. Topology discovery + the TopoSense controller at the source. *)
  let discovery = Discovery.Service.create ~sim ~router () in
  Discovery.Service.register_session discovery session;
  let params = Toposense.Params.default in
  let controller =
    Toposense.Controller.create ~network ~discovery ~params
      ~node:spec.controller_node ()
  in
  Toposense.Controller.add_session controller session;
  Toposense.Controller.start controller;

  (* 6. A receiver agent per receiver, starting at the base layer. *)
  let agents =
    List.map
      (fun node ->
        let a =
          Toposense.Receiver_agent.create ~network ~router ~params ~node
            ~controller:spec.controller_node ()
        in
        Toposense.Receiver_agent.subscribe a ~session ~initial_level:1;
        Toposense.Receiver_agent.start a;
        a)
      receivers
  in

  (* 7. Run for five simulated minutes and report. *)
  Engine.Sim.run_until sim (Time.of_sec 300);

  let routing = Net.Network.routing network in
  Format.printf "Fig. 1 after 300 simulated seconds:@.";
  List.iter
    (fun a ->
      let node = Toposense.Receiver_agent.node a in
      let optimal =
        Baseline.Static_oracle.optimal_level ~topology:spec.topology ~routing
          ~layering:(Traffic.Session.layering session)
          ~sessions:spec.sessions ~source:source_node ~receiver:node
      in
      Format.printf
        "  receiver n%d: subscribed %d layers (oracle optimum %d), %d \
         changes, last-window loss %.3f@."
        node
        (Toposense.Receiver_agent.level a ~session:0)
        optimal
        (List.length (Toposense.Receiver_agent.changes a ~session:0))
        (Toposense.Receiver_agent.last_window_loss a ~session:0))
    agents;
  Format.printf "  controller: %d reports in, %d suggestions out@."
    (Toposense.Controller.reports_received controller)
    (Toposense.Controller.suggestions_sent controller)
