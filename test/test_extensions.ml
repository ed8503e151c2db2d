(* Tests for the extensions beyond the paper's core evaluation: expedited
   group-leave, RED and priority queueing, domain-restricted snapshots,
   the tiered multi-domain world, mtrace walks, on/off sources, simulcast
   sessions and billing. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Topology = Net.Topology
module Network = Net.Network
module Packet = Net.Packet
module Addr = Net.Addr
module Router = Multicast.Router
module Layering = Traffic.Layering
module Session = Traffic.Session
module Qd = Net.Queue_discipline

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

type Packet.payload += Probe of int

(* A standalone arena for the queue-discipline unit tests (everywhere
   else the network owns one). Packets the queue rejects are simply
   leaked here; the arena is test-local. *)
let arena = Packet.create_arena ()

(* [id] rides in the source field, which no discipline reads. *)
let mk_pkt ?(payload = Probe 0) ?(size = 1000) id =
  Packet.alloc arena ~src:id ~dst:(Addr.Unicast 1) ~size ~payload

let media ~layer seq = Packet.Data { session = 0; layer; seq }

(* ---------- queue disciplines ---------- *)

let test_drop_tail_still_works () =
  let q =
    Qd.create (Qd.Drop_tail { limit = 2 }) ~arena
      ~rng:(Engine.Prng.create ~seed:1L)
  in
  checkb "1 in" true (Qd.offer q (mk_pkt 1));
  checkb "2 in" true (Qd.offer q (mk_pkt 2));
  checkb "3 rejected" false (Qd.offer q (mk_pkt 3));
  checki "drops" 1 (Qd.drops q);
  checki "fifo head" 1 (Packet.src arena (Qd.poll q))

let test_red_early_drops () =
  let q =
    Qd.create
      (Qd.Red { limit = 100; min_th = 2.0; max_th = 10.0; max_p = 1.0; wq = 1.0 })
      ~arena ~rng:(Engine.Prng.create ~seed:1L)
  in
  (* wq = 1 makes avg track the instantaneous length; above max_th every
     arrival drops even though the queue is far from its limit. *)
  let admitted = ref 0 in
  for i = 1 to 50 do
    if Qd.offer q (mk_pkt i) then incr admitted
  done;
  checkb "queue well under limit" true (Qd.length q <= 11);
  checkb "early drops happened" true (Qd.early_drops q > 0);
  checki "drops = offered - admitted" (50 - !admitted) (Qd.drops q)

let test_red_light_load_no_drops () =
  let q =
    Qd.create (Qd.default_red ~limit:50) ~arena
      ~rng:(Engine.Prng.create ~seed:1L)
  in
  for i = 1 to 5 do
    checkb "admitted" true (Qd.offer q (mk_pkt i));
    ignore (Qd.poll q)
  done;
  checki "no drops" 0 (Qd.drops q)

let test_red_spec_validation () =
  List.iter
    (fun spec ->
      checkb "rejected" true
        (match Qd.validate_spec spec with Error _ -> true | Ok () -> false))
    [
      Qd.Red { limit = 0; min_th = 1.0; max_th = 2.0; max_p = 0.5; wq = 0.1 };
      Qd.Red { limit = 10; min_th = 5.0; max_th = 5.0; max_p = 0.5; wq = 0.1 };
      Qd.Red { limit = 10; min_th = 1.0; max_th = 5.0; max_p = 0.0; wq = 0.1 };
      Qd.Red { limit = 10; min_th = 1.0; max_th = 5.0; max_p = 0.5; wq = 0.0 };
      Qd.Drop_tail { limit = 0 };
    ]

let test_priority_evicts_enhancement_layers () =
  let q =
    Qd.create (Qd.Priority { limit = 3 }) ~arena
      ~rng:(Engine.Prng.create ~seed:1L)
  in
  checkb "l5 in" true (Qd.offer q (mk_pkt ~payload:(media ~layer:5 0) 1));
  checkb "l4 in" true (Qd.offer q (mk_pkt ~payload:(media ~layer:4 0) 2));
  checkb "l3 in" true (Qd.offer q (mk_pkt ~payload:(media ~layer:3 0) 3));
  (* Base-layer arrival evicts the layer-5 packet. *)
  checkb "base admitted" true (Qd.offer q (mk_pkt ~payload:(media ~layer:0 0) 4));
  checki "one drop" 1 (Qd.drops q);
  let remaining = List.init 3 (fun _ -> Qd.poll q) in
  checkb "layer-5 gone" true
    (List.for_all
       (fun p -> (not (Packet.is_data arena p)) || Packet.layer arena p <> 5)
       remaining)

let test_priority_rejects_least_important_arrival () =
  let q =
    Qd.create (Qd.Priority { limit = 2 }) ~arena
      ~rng:(Engine.Prng.create ~seed:1L)
  in
  ignore (Qd.offer q (mk_pkt ~payload:(media ~layer:1 0) 1));
  ignore (Qd.offer q (mk_pkt ~payload:(media ~layer:2 0) 2));
  (* A layer-5 arrival is itself the least important: rejected. *)
  checkb "rejected" false (Qd.offer q (mk_pkt ~payload:(media ~layer:5 0) 3));
  checki "len unchanged" 2 (Qd.length q)

let test_priority_control_packets_win () =
  let q =
    Qd.create (Qd.Priority { limit = 1 }) ~arena
      ~rng:(Engine.Prng.create ~seed:1L)
  in
  ignore (Qd.offer q (mk_pkt ~payload:(media ~layer:0 0) 1));
  checkb "control evicts even base" true
    (Qd.offer q (mk_pkt ~payload:(Probe 9) 2));
  let p = Qd.poll q in
  match if p = Packet.none then None else Some (Packet.payload arena p) with
  | Some (Probe 9) -> ()
  | _ -> Alcotest.fail "control packet should remain"

let test_red_idle_decay () =
  (* Floyd/Jacobson idle decay: after the queue sits idle for [d] the
     average is multiplied by (1-wq)^(d / service_time). A burst pushes
     the average far above max_th; with no simulated time passing the
     next arrival still sees the stale average and is dropped, while
     after a long idle period the average has decayed and the arrival is
     admitted. *)
  let spec =
    Qd.Red { limit = 100; min_th = 2.0; max_th = 3.0; max_p = 1.0; wq = 0.1 }
  in
  let now = ref 0.0 in
  let mk () =
    Qd.create spec ~arena
      ~clock:(fun () -> !now)
      ~service_time_s:0.001
      ~rng:(Engine.Prng.create ~seed:1L)
  in
  let burst q =
    for i = 1 to 100 do
      ignore (Qd.offer q (mk_pkt i))
    done;
    checkb "burst forced drops" true (Qd.drops q > 0);
    while Qd.poll q <> Packet.none do
      ()
    done
  in
  let q1 = mk () in
  burst q1;
  (* Queue drained but no time passed: no decay, average still high. *)
  checkb "dropped without idle time" false (Qd.offer q1 (mk_pkt 999));
  let q2 = mk () in
  burst q2;
  now := !now +. 1.0;
  (* 1000 service times idle: (0.9)^1000 ~ 0, the average is gone. *)
  checkb "admitted after idle decay" true (Qd.offer q2 (mk_pkt 999))

(* The ring buffer must be observably identical to the seed's two-list
   deque. The model below replays the seed semantics on a plain list;
   random offer/poll interleavings must agree on admissions, polled
   packets, lengths and drop counts. *)
let prop_ring_matches_deque =
  let imp (p : Packet.t) =
    if Packet.is_data arena p then Packet.layer arena p else -1
  in
  QCheck.Test.make ~name:"ring buffer matches two-list deque model" ~count:300
    QCheck.(
      triple bool (int_range 1 8) (small_list (pair bool (int_range (-1) 6))))
    (fun (prio, limit, ops) ->
      let spec =
        if prio then Qd.Priority { limit } else Qd.Drop_tail { limit }
      in
      let q = Qd.create spec ~arena ~rng:(Engine.Prng.create ~seed:1L) in
      let model = ref [] and mdrops = ref 0 and next_id = ref 0 in
      let model_offer pkt =
        if List.length !model < limit then begin
          model := !model @ [ pkt ];
          true
        end
        else if not prio then begin
          incr mdrops;
          false
        end
        else begin
          (* Evict the earliest queued packet of the largest importance
             value exceeding the arrival's; else reject the arrival. *)
          let worst_i = ref (-1) and worst = ref (imp pkt) in
          List.iteri
            (fun i p ->
              if imp p > !worst then begin
                worst := imp p;
                worst_i := i
              end)
            !model;
          incr mdrops;
          if !worst_i < 0 then false
          else begin
            model := List.filteri (fun i _ -> i <> !worst_i) !model @ [ pkt ];
            true
          end
        end
      in
      let model_poll () =
        match !model with
        | [] -> None
        | p :: rest ->
            model := rest;
            Some p
      in
      List.for_all
        (fun (is_offer, layer) ->
          let step_ok =
            if is_offer then begin
              incr next_id;
              let pkt =
                if layer < 0 then mk_pkt !next_id
                else mk_pkt ~payload:(media ~layer 0) !next_id
              in
              Qd.offer q pkt = model_offer pkt
            end
            else
              match (Qd.poll q, model_poll ()) with
              | a, None -> a = Packet.none
              | a, Some b -> a = b
          in
          step_ok
          && Qd.length q = List.length !model
          && Qd.drops q = !mdrops)
        ops)

let test_red_on_a_link () =
  (* A RED-queued link drops early — before its hard limit — under
     sustained moderate overload (arrivals paced just above the drain
     rate so the average queue sits between the thresholds). *)
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 2);
  Topology.add_duplex topo ~a:0 ~b:1 ~bandwidth_bps:1e5
    ~discipline:
      (Qd.Red { limit = 50; min_th = 3.0; max_th = 30.0; max_p = 0.3; wq = 0.2 })
    ();
  let nw = Network.create ~sim topo in
  (* Drain is 12.5 pkt/s; offer 20 pkt/s for 20 s. *)
  for i = 0 to 399 do
    ignore
      (Sim.schedule_at sim (Time.of_ms (i * 50)) (fun () ->
           Network.originate nw ~src:0 ~dst:(Addr.Unicast 1) ~size:1000
             ~payload:(Probe i)))
  done;
  Sim.run_until sim (Time.of_sec 30);
  let link = Network.link_on_iface nw ~node:0 ~iface:0 in
  checkb "early drops on link" true (Net.Link.early_drops link > 0);
  checkb "queue never at hard limit" true (Net.Link.drops link >= Net.Link.early_drops link)

(* ---------- expedited leave ---------- *)

let star ?expedited_leave () =
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 4);
  List.iter
    (fun (a, b) ->
      Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e7
        ~delay:(Time.span_of_ms 10) ())
    [ (0, 1); (1, 2); (1, 3) ];
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw ?expedited_leave () in
  (sim, nw, router)

let test_expedited_leave_prunes_fast () =
  let sim, _, router = star ~expedited_leave:true () in
  let g = Router.fresh_group router ~source:0 in
  Router.join router ~node:2 ~group:g;
  Sim.run_until sim (Time.of_sec 1);
  Router.leave router ~node:2 ~group:g;
  (* Prune completes within propagation time, far below leave latency. *)
  Sim.run_until sim (Time.add (Sim.now sim) (Time.span_of_ms 100));
  checkb "pruned almost immediately" false
    (Router.on_tree router ~node:2 ~group:g)

let test_classic_leave_waits () =
  let sim, _, router = star () in
  let g = Router.fresh_group router ~source:0 in
  Router.join router ~node:2 ~group:g;
  Sim.run_until sim (Time.of_sec 1);
  Router.leave router ~node:2 ~group:g;
  Sim.run_until sim (Time.add (Sim.now sim) (Time.span_of_ms 100));
  checkb "still on tree" true (Router.on_tree router ~node:2 ~group:g)

(* ---------- snapshot restriction ---------- *)

let snap ~edges ~members =
  {
    Discovery.Snapshot.session = 0;
    taken_at = Time.zero;
    source = 0;
    edges =
      List.map
        (fun (parent, child) -> { Discovery.Snapshot.parent; child; layers = [ 0 ] })
        edges;
    members;
    versions = [||];
  }

let full_tree =
  snap
    ~edges:[ (0, 1); (1, 2); (1, 3); (2, 4); (2, 5); (3, 6) ]
    ~members:[ (4, 2); (5, 3); (6, 1) ]

let test_restrict_subtree () =
  match Discovery.Snapshot.restrict full_tree ~domain:[ 2; 4; 5 ] with
  | None -> Alcotest.fail "expected a domain view"
  | Some r ->
      checki "ingress becomes root" 2 r.source;
      checki "two edges" 2 (List.length r.edges);
      Alcotest.check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
        "domain members" [ (4, 2); (5, 3) ] r.members;
      checkb "still a tree" true (Discovery.Snapshot.is_tree r)

let test_restrict_source_inside () =
  match Discovery.Snapshot.restrict full_tree ~domain:[ 0; 1; 2; 3; 4; 5; 6 ] with
  | None -> Alcotest.fail "expected full view"
  | Some r ->
      checki "source kept" 0 r.source;
      checki "all edges" 6 (List.length r.edges)

let test_restrict_disjoint () =
  checkb "no entry" true
    (Discovery.Snapshot.restrict full_tree ~domain:[ 42; 43 ] = None);
  checkb "empty domain" true
    (Discovery.Snapshot.restrict full_tree ~domain:[] = None)

let test_restrict_two_ingresses_rejected () =
  checkb "raises" true
    (try
       ignore (Discovery.Snapshot.restrict full_tree ~domain:[ 4; 6 ]);
       false
     with Invalid_argument _ -> true)

(* ---------- tiered world ---------- *)

let test_tiered_generation () =
  let world = Scenarios.Tiered.generate ~seed:3L () in
  let topo = world.spec.topology in
  checkb "connected" true (Topology.is_connected topo);
  checki "three domains" 3 (List.length world.domains);
  let _, receivers = List.hd world.spec.sessions in
  checki "18 receivers" 18 (List.length receivers);
  (* Domains are disjoint and cover every receiver. *)
  let all_members = List.concat_map snd world.domains in
  checki "no overlap" (List.length all_members)
    (List.length (List.sort_uniq Int.compare all_members));
  List.iter
    (fun r -> checkb "receiver in some domain" true (List.mem r all_members))
    receivers

let test_tiered_deterministic () =
  let w1 = Scenarios.Tiered.generate ~seed:3L () in
  let w2 = Scenarios.Tiered.generate ~seed:3L () in
  checkb "same links" true
    (Topology.links w1.spec.topology = Topology.links w2.spec.topology)

let test_tiered_run_per_domain () =
  let world = Scenarios.Tiered.generate ~seed:11L () in
  let o =
    Scenarios.Tiered.run ~world ~control:Scenarios.Tiered.Per_domain
      ~duration:(Time.of_sec 300) ()
  in
  checki "one controller per region" 3 o.controllers;
  checkb "reasonable mean deviation" true (o.mean_deviation < 0.5);
  List.iter
    (fun (r : Scenarios.Tiered.receiver_outcome) ->
      checkb "assigned to a domain" true (r.domain >= 0);
      checkb "close to optimum" true (abs (r.final_level - r.optimal) <= 2))
    o.receivers

let test_tiered_multi_session () =
  let config = { Scenarios.Tiered.default_config with sessions = 2 } in
  let world = Scenarios.Tiered.generate ~config ~seed:11L () in
  let o =
    Scenarios.Tiered.run ~world ~control:Scenarios.Tiered.Per_domain
      ~duration:(Time.of_sec 300) ()
  in
  checki "18 receivers x 2 sessions" 36 (List.length o.receivers);
  checkb
    (Printf.sprintf "mean deviation bounded (%.3f)" o.mean_deviation)
    true (o.mean_deviation < 0.35);
  (* Sessions sharing each last hop get symmetric treatment: per node the
     two final levels differ by at most one. *)
  let by_node = Hashtbl.create 32 in
  List.iter
    (fun (r : Scenarios.Tiered.receiver_outcome) ->
      Hashtbl.replace by_node r.node
        (r.final_level
        :: Option.value ~default:[] (Hashtbl.find_opt by_node r.node)))
    o.receivers;
  Hashtbl.iter
    (fun node levels ->
      match levels with
      | [ a; b ] ->
          checkb
            (Printf.sprintf "n%d balanced (%d vs %d)" node a b)
            true
            (abs (a - b) <= 1)
      | _ -> Alcotest.fail "two sessions per node expected")
    by_node

let test_tiered_global_close_to_per_domain () =
  let world = Scenarios.Tiered.generate ~seed:11L () in
  let g =
    Scenarios.Tiered.run ~world ~control:Scenarios.Tiered.Global
      ~duration:(Time.of_sec 300) ()
  in
  let d =
    Scenarios.Tiered.run ~world ~control:Scenarios.Tiered.Per_domain
      ~duration:(Time.of_sec 300) ()
  in
  checkb
    (Printf.sprintf "per-domain (%.3f) within 0.15 of global (%.3f)"
       d.mean_deviation g.mean_deviation)
    true
    (Float.abs (d.mean_deviation -. g.mean_deviation) < 0.15)

(* ---------- mtrace ---------- *)

let mtrace_world () =
  let sim = Sim.create () in
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:1 in
  let nw = Network.create ~sim spec.topology in
  let router = Router.create ~network:nw () in
  let session =
    Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0
  in
  (sim, nw, router, session)

let test_mtrace_path () =
  let sim, nw, router, session = mtrace_world () in
  Session.set_subscription_level session ~router ~node:4 ~level:3;
  Sim.run_until sim (Time.of_sec 2);
  match Discovery.Mtrace.trace ~router ~session ~receiver:4 with
  | Error e -> Alcotest.fail e
  | Ok hops ->
      Alcotest.check
        (Alcotest.list Alcotest.int)
        "hop nodes receiver-first" [ 4; 2; 1; 0 ]
        (List.map (fun (h : Discovery.Mtrace.hop) -> h.node) hops);
      let receiver_hop = List.hd hops in
      Alcotest.check (Alcotest.list Alcotest.int) "layers at receiver"
        [ 0; 1; 2 ] receiver_hop.layers;
      (* Latency from the source: source->receiver (3 hops) + up the tree
         (3 hops) + source->source (0) = 6 x 200 ms. *)
      checki "trace latency"
        (Time.to_ns (Time.of_ms 1200))
        (Discovery.Mtrace.trace_latency ~network:nw ~querier:0 ~path:hops)

let test_mtrace_off_tree () =
  let sim, _, router, session = mtrace_world () in
  Sim.run_until sim (Time.of_sec 1);
  checkb "error for non-member" true
    (match Discovery.Mtrace.trace ~router ~session ~receiver:4 with
    | Error _ -> true
    | Ok _ -> false)

(* ---------- simulcast ---------- *)

let simulcast_world () =
  let sim = Sim.create () in
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:1 in
  let nw = Network.create ~sim spec.topology in
  let router = Router.create ~network:nw () in
  let sc =
    Traffic.Simulcast.create ~router ~source:0
      ~layering:Layering.paper_default ~id:7
  in
  (sim, nw, router, sc)

let test_simulcast_selection () =
  let sim, nw, router, sc = simulcast_world () in
  let group stream = Traffic.Simulcast.group_for_stream sc ~stream in
  let selected () =
    List.filter
      (fun stream -> Router.is_member router ~node:4 ~group:(group stream))
      (List.init 6 Fun.id)
  in
  checkb "six replicas" true
    (match group 6 with _ -> false | exception Invalid_argument _ -> true);
  Alcotest.(check (list int)) "none selected" [] (selected ());
  Traffic.Simulcast.select sc ~router ~node:4 ~stream:(Some 2);
  Alcotest.(check (list int)) "stream 2" [ 2 ] (selected ());
  Traffic.Simulcast.select sc ~router ~node:4 ~stream:(Some 4);
  Alcotest.(check (list int)) "switched, only one group" [ 4 ] (selected ());
  Traffic.Simulcast.select sc ~router ~node:4 ~stream:None;
  Alcotest.(check (list int)) "off" [] (selected ());
  (* Replica 3 runs at level 4's 480 kbit/s: 60 packets/s for 10 s. *)
  let senders =
    Traffic.Simulcast.start_sources ~network:nw sc
      ~rng:(Sim.rng sim ~label:"sc")
  in
  Sim.run_until sim (Time.of_sec 10);
  checkb "replica 3 rate = level 4 bandwidth" true
    (abs (Traffic.Simulcast.packets_sent (List.nth senders 3) - 600) <= 1)

let test_simulcast_delivery () =
  let sim, nw, router, sc = simulcast_world () in
  Traffic.Simulcast.select sc ~router ~node:4 ~stream:(Some 1);
  Sim.run_until sim (Time.of_sec 2);
  let count = ref 0 in
  Network.set_local_handler nw 4 (fun pkt ->
      let a = Network.arena nw in
      if Packet.is_data a pkt && Packet.session a pkt = 7 && Packet.layer a pkt = 1
      then incr count);
  ignore
    (Traffic.Simulcast.start_sources ~network:nw sc
       ~rng:(Sim.rng sim ~label:"sc"));
  Sim.run_until sim (Time.of_sec 22);
  (* Replica 1 = 96 kbit/s = 12 pkt/s over 20 s ~ 240. *)
  checkb
    (Printf.sprintf "replica delivered (%d)" !count)
    true
    (abs (!count - 240) < 25)

let test_simulcast_uses_more_shared_bandwidth () =
  (* Oracle subscriptions on Topology A (1+1 receivers at levels 4 and 2):
     the source->core link carries cum(4) under layering but
     cum(4)+cum(2) under simulcast. *)
  let { Scenarios.Head_to_head.layered; simulcast } =
    Scenarios.Head_to_head.shared_link_bytes ()
  in
  (* Expected ratio (480+96)/480 = 1.2. *)
  let ratio = float_of_int simulcast /. float_of_int layered in
  checkb
    (Printf.sprintf "simulcast costs more on shared link (ratio %.2f)" ratio)
    true
    (ratio > 1.1 && ratio < 1.35)

(* ---------- billing ---------- *)

let test_billing_accumulates () =
  let b = Toposense.Billing.create () in
  Toposense.Billing.record b ~session:0 ~receiver:4 ~bytes:1_000 ~level:3
    ~window:(Time.span_of_sec 1);
  Toposense.Billing.record b ~session:0 ~receiver:4 ~bytes:2_000 ~level:4
    ~window:(Time.span_of_sec 2);
  (* Read back through the invoice at unit prices: megabytes and
     layer-hours carry the raw sums. *)
  match
    Toposense.Billing.invoice b ~session:0 ~price_per_megabyte:1.0
      ~price_per_layer_hour:1.0
  with
  | [ line ] ->
      checki "only the receiver on record" 4 line.receiver;
      checkf "bytes" 3_000.0 (line.megabytes *. 1_000_000.0);
      checkf "layer seconds" 11.0 (line.layer_hours *. 3600.0)
  | _ -> Alcotest.fail "one line expected"

let test_billing_invoice () =
  let b = Toposense.Billing.create () in
  Toposense.Billing.record b ~session:0 ~receiver:4 ~bytes:2_000_000 ~level:2
    ~window:(Time.span_of_sec 3600);
  let lines =
    Toposense.Billing.invoice b ~session:0 ~price_per_megabyte:0.5
      ~price_per_layer_hour:0.1
  in
  match lines with
  | [ line ] ->
      checki "receiver" 4 line.receiver;
      checkf "megabytes" 2.0 line.megabytes;
      checkf "layer hours" 2.0 line.layer_hours;
      checkf "amount" 1.2 line.amount
  | _ -> Alcotest.fail "one line expected"

let test_billing_via_controller () =
  (* End to end: attach billing to a live controller and check the
     delivered bytes roughly match the subscription. *)
  let sim = Sim.create () in
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:1 in
  let nw = Network.create ~sim spec.topology in
  let router = Router.create ~network:nw () in
  let discovery = Discovery.Service.create ~sim ~router () in
  let session =
    Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0
  in
  Discovery.Service.register_session discovery session;
  ignore
    (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
       ~rng:(Sim.rng sim ~label:"src") ());
  let params = Toposense.Params.default in
  let controller =
    Toposense.Controller.create ~network:nw ~discovery ~params ~node:0 ()
  in
  let billing = Toposense.Billing.create () in
  Toposense.Controller.set_billing controller billing;
  Toposense.Controller.add_session controller session;
  Toposense.Controller.start controller;
  List.iter
    (fun node ->
      let a =
        Toposense.Receiver_agent.create ~network:nw ~router ~params ~node
          ~controller:0 ()
      in
      Toposense.Receiver_agent.subscribe a ~session ~initial_level:1;
      Toposense.Receiver_agent.start a)
    [ 4; 5 ];
  Sim.run_until sim (Time.of_sec 120);
  let lines =
    Toposense.Billing.invoice billing ~session:0 ~price_per_megabyte:1.0
      ~price_per_layer_hour:1.0
  in
  Alcotest.(check (list int))
    "both receivers billed" [ 4; 5 ]
    (List.map (fun (l : Toposense.Billing.invoice_line) -> l.receiver) lines);
  List.iter
    (fun (l : Toposense.Billing.invoice_line) ->
      checkb
        (Printf.sprintf "n%d billed for bytes" l.receiver)
        true
        (l.megabytes *. 1_000_000.0 > 100_000.0);
      checkb "billed layer-seconds" true (l.layer_hours *. 3600.0 > 50.0))
    lines

let () =
  Alcotest.run "extensions"
    [
      ( "queue-disciplines",
        [
          Alcotest.test_case "drop tail" `Quick test_drop_tail_still_works;
          Alcotest.test_case "red early drops" `Quick test_red_early_drops;
          Alcotest.test_case "red light load" `Quick test_red_light_load_no_drops;
          Alcotest.test_case "red validation" `Quick test_red_spec_validation;
          Alcotest.test_case "priority evicts" `Quick
            test_priority_evicts_enhancement_layers;
          Alcotest.test_case "priority rejects worst arrival" `Quick
            test_priority_rejects_least_important_arrival;
          Alcotest.test_case "priority favors control" `Quick
            test_priority_control_packets_win;
          Alcotest.test_case "red idle decay" `Quick test_red_idle_decay;
          Alcotest.test_case "red on a link" `Quick test_red_on_a_link;
        ] );
      ( "queue-discipline-props",
        List.map QCheck_alcotest.to_alcotest [ prop_ring_matches_deque ] );
      ( "expedited-leave",
        [
          Alcotest.test_case "expedited prunes fast" `Quick
            test_expedited_leave_prunes_fast;
          Alcotest.test_case "classic waits" `Quick test_classic_leave_waits;
        ] );
      ( "snapshot-restrict",
        [
          Alcotest.test_case "subtree" `Quick test_restrict_subtree;
          Alcotest.test_case "source inside" `Quick test_restrict_source_inside;
          Alcotest.test_case "disjoint" `Quick test_restrict_disjoint;
          Alcotest.test_case "two ingresses" `Quick
            test_restrict_two_ingresses_rejected;
        ] );
      ( "tiered",
        [
          Alcotest.test_case "generation" `Quick test_tiered_generation;
          Alcotest.test_case "deterministic" `Quick test_tiered_deterministic;
          Alcotest.test_case "per-domain run" `Slow test_tiered_run_per_domain;
          Alcotest.test_case "multi-session" `Slow test_tiered_multi_session;
          Alcotest.test_case "global vs per-domain" `Slow
            test_tiered_global_close_to_per_domain;
        ] );
      ( "mtrace",
        [
          Alcotest.test_case "path" `Quick test_mtrace_path;
          Alcotest.test_case "off tree" `Quick test_mtrace_off_tree;
        ] );
      ( "simulcast",
        [
          Alcotest.test_case "selection" `Quick test_simulcast_selection;
          Alcotest.test_case "delivery" `Quick test_simulcast_delivery;
          Alcotest.test_case "shared-link cost" `Slow
            test_simulcast_uses_more_shared_bandwidth;
        ] );
      ( "billing",
        [
          Alcotest.test_case "accumulates" `Quick test_billing_accumulates;
          Alcotest.test_case "invoice" `Quick test_billing_invoice;
          Alcotest.test_case "via controller" `Slow test_billing_via_controller;
        ] );
    ]
