module Sim = Engine.Sim
module Time = Engine.Time

type shared_bytes = { layered : int; simulcast : int }

let source_link_bytes ~layered =
  let sim = Sim.create () in
  let spec = Builders.topology_a ~receivers_per_set:1 in
  let network = Net.Network.create ~sim spec.Builders.topology in
  let router = Multicast.Router.create ~network () in
  let layering = Traffic.Layering.paper_default in
  (* Subscribe at once; start the sources at 2 s, once the grafts have
     settled, so the count holds only steady-state traffic. *)
  if layered then begin
    let session = Traffic.Session.create ~router ~source:0 ~layering ~id:0 in
    Traffic.Session.set_subscription_level session ~router ~node:4 ~level:4;
    Traffic.Session.set_subscription_level session ~router ~node:5 ~level:2;
    Sim.run_until sim (Time.of_sec 2);
    ignore
      (Traffic.Source.start ~network ~session ~kind:Traffic.Source.Cbr
         ~rng:(Sim.rng sim ~label:"src") ())
  end
  else begin
    let sc = Traffic.Simulcast.create ~router ~source:0 ~layering ~id:0 in
    Traffic.Simulcast.select sc ~router ~node:4 ~stream:(Some 3);
    Traffic.Simulcast.select sc ~router ~node:5 ~stream:(Some 1);
    Sim.run_until sim (Time.of_sec 2);
    ignore
      (Traffic.Simulcast.start_sources ~network sc
         ~rng:(Sim.rng sim ~label:"sc"))
  end;
  Sim.run_until sim (Time.of_sec 62);
  Net.Link.tx_bytes (Net.Network.link_on_iface network ~node:0 ~iface:0)

let shared_link_bytes () =
  let layered = source_link_bytes ~layered:true in
  { layered; simulcast = source_link_bytes ~layered:false }

type tcp_outcome = { alone_bps : float; shared_bps : float; level : int }

(* Multicast source 0 and TCP source 1 behind hub 2; the 1 Mbps
   bottleneck 2-3; multicast receiver 4 and TCP sink 5 behind hub 3. *)
let tcp_world sim =
  let topo = Net.Topology.create () in
  ignore (Net.Topology.add_nodes topo 6);
  List.iter
    (fun (a, b, bw) ->
      Net.Topology.add_duplex topo ~a ~b ~bandwidth_bps:bw
        ~delay:(Time.span_of_ms 10) ~queue_limit:25 ())
    [ (0, 2, 1e7); (1, 2, 1e7); (2, 3, 1e6); (3, 4, 1e7); (3, 5, 1e7) ];
  Net.Network.create ~sim topo

let tcp_goodput sim network =
  let flow = Traffic.Tcp_flow.start ~network ~src:1 ~dst:5 () in
  Sim.run_until sim (Time.of_sec 300);
  Traffic.Tcp_flow.throughput_bps flow ~over:(Time.span_of_sec 300)

let tcp_vs_toposense () =
  let alone_bps =
    let sim = Sim.create () in
    tcp_goodput sim (tcp_world sim)
  in
  let sim = Sim.create () in
  let network = tcp_world sim in
  let router = Multicast.Router.create ~network () in
  let discovery = Discovery.Service.create ~sim ~router () in
  let session =
    Traffic.Session.create ~router ~source:0
      ~layering:Traffic.Layering.paper_default ~id:0
  in
  Discovery.Service.register_session discovery session;
  ignore
    (Traffic.Source.start ~network ~session ~kind:Traffic.Source.Cbr
       ~rng:(Sim.rng sim ~label:"src") ());
  let params = Toposense.Params.default in
  let c = Toposense.Controller.create ~network ~discovery ~params ~node:0 () in
  Toposense.Controller.add_session c session;
  Toposense.Controller.start c;
  let agent =
    Toposense.Receiver_agent.create ~network ~router ~params ~node:4
      ~controller:0 ()
  in
  Toposense.Receiver_agent.subscribe agent ~session ~initial_level:1;
  Toposense.Receiver_agent.start agent;
  let shared_bps = tcp_goodput sim network in
  let level = Toposense.Receiver_agent.level agent ~session:0 in
  { alone_bps; shared_bps; level }
