module Sim = Engine.Sim
module Time = Engine.Time

type shared_bytes = { layered : int; simulcast : int }

let source_link_bytes ~layered =
  let spec = Builders.topology_a ~receivers_per_set:1 in
  (* No session in the world: each branch makes its own below. *)
  let { World.sim; network; router; _ } =
    World.build
      ~spec:{ spec with Builders.sessions = [] }
      ~control:World.No_control ~agents:World.No_agents ()
  in
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
   bottleneck 2-3; multicast receiver 4 and TCP sink 5 behind hub 3. The
   controller sits at the multicast source. *)
let tcp_spec sessions =
  let topo = Net.Topology.create () in
  ignore (Net.Topology.add_nodes topo 6);
  List.iter
    (fun (a, b, bw) ->
      Net.Topology.add_duplex topo ~a ~b ~bandwidth_bps:bw
        ~delay:(Time.span_of_ms 10) ~queue_limit:25 ())
    [ (0, 2, 1e7); (1, 2, 1e7); (2, 3, 1e6); (3, 4, 1e7); (3, 5, 1e7) ];
  { Builders.topology = topo; controller_node = 0; sessions }

let tcp_goodput (w : World.t) =
  let flow = Traffic.Tcp_flow.start ~network:w.network ~src:1 ~dst:5 () in
  Sim.run_until w.sim (Time.of_sec 300);
  Traffic.Tcp_flow.throughput_bps flow ~over:(Time.span_of_sec 300)

let tcp_vs_toposense () =
  let alone_bps =
    tcp_goodput
      (World.build ~spec:(tcp_spec []) ~control:World.No_control
         ~agents:World.No_agents ())
  in
  let w =
    World.build
      ~spec:(tcp_spec [ (0, [ 4 ]) ])
      ~source_label:(fun _ -> "src")
      ~control:(World.Flat { probe = false }) ~agents:World.Every_receiver ()
  in
  let shared_bps = tcp_goodput w in
  let level =
    Toposense.Receiver_agent.level (List.assoc 4 w.agents) ~session:0
  in
  { alone_bps; shared_bps; level }
