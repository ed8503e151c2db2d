module Sim = Engine.Sim
module Session = Traffic.Session
module Controller = Toposense.Controller
module Agent = Toposense.Receiver_agent
module Federation = Toposense.Federation

type control =
  | Flat of { probe : bool }
  | Per_domain
  | Federated of { rehome : bool }
  | No_control

type agents =
  | Every_receiver
  | Sampled of { active_domains : int; active_per_domain : int }
  | No_agents

type t = {
  sim : Sim.t;
  network : Net.Network.t;
  router : Multicast.Router.t;
  discovery : Discovery.Service.t;
  params : Toposense.Params.t;
  sessions : Session.t list;
  parent : Federation.parent option;
  controllers : (Net.Addr.node_id * Controller.t) list;
  flat : Controller.t option;
  agents : (Net.Addr.node_id * Agent.t) list;
}

let new_agent t ~node ~controller sessions =
  let a =
    Agent.create ~network:t.network ~router:t.router ~params:t.params ~node
      ~controller ()
  in
  List.iter (fun s -> Agent.subscribe a ~session:s ~initial_level:1) sessions;
  Agent.start a;
  (node, a)

let add_agent t ~node ~controller =
  snd (new_agent t ~node ~controller t.sessions)

let new_controller t ~node ?domain ?probe ?federation () =
  let c =
    Controller.create ~network:t.network ~discovery:t.discovery
      ~params:t.params ~node ?domain ?probe ?federation ()
  in
  List.iter (Controller.add_session c) t.sessions;
  c

let add_controller t ~node = new_controller t ~node ()

let build ~spec ?(domains = []) ?seed ?(params = Toposense.Params.default)
    ?(eager_routing = false) ?leave_latency ?expedited_leave ?discovery_period
    ?discovery_history ?(traffic = Traffic.Source.Cbr)
    ?(source_label = Printf.sprintf "source-%d") ~control ~agents () =
  let invalid fmt =
    Printf.ksprintf (fun s -> invalid_arg ("World.build: " ^ s)) fmt
  in
  Result.iter_error (invalid "%s") (Toposense.Params.validate params);
  (match agents with
  | Sampled { active_domains = d; active_per_domain = k } ->
      if d < 1 then invalid "active_domains %d must be positive" d;
      if k < 1 then invalid "active_per_domain %d must be positive" k;
      let n = List.length domains in
      if d > n then invalid "active_domains %d exceeds the %d domains" d n
  | Every_receiver | No_agents -> ());
  let { Builders.topology; controller_node = root; sessions = listed } = spec in
  let sim = Sim.create ?seed () in
  let network = Net.Network.create ~sim topology in
  if eager_routing then Net.Routing.prefetch_all (Net.Network.routing network);
  let router =
    Multicast.Router.create ~network ?leave_latency ?expedited_leave ()
  in
  let discovery =
    Discovery.Service.create ~sim ~router ?period:discovery_period
      ?history:discovery_history ()
  in
  let layering = Traffic.Layering.paper_default in
  let sessions =
    List.mapi
      (fun id (source, _) -> Session.create ~router ~source ~layering ~id)
      listed
  in
  (* Registering starts discovery's capture chain: every session is
     registered before any source pushes its first event. Without a
     control plane nothing reads the captures. *)
  if control <> No_control then
    List.iter (Discovery.Service.register_session discovery) sessions;
  List.iter
    (fun session ->
      let rng = Sim.rng sim ~label:(source_label (Session.id session)) in
      ignore (Traffic.Source.start ~network ~session ~kind:traffic ~rng ()))
    sessions;
  (* the stack so far, which the control plane and the agents complete *)
  let t =
    { sim; network; router; discovery; params; sessions; parent = None;
      controllers = []; flat = None; agents = [] }
  in
  (* Creating a controller pushes no event, so starting each before the
     next is built keeps the event order of building them all first. *)
  let started ~node ?domain ?probe ?federation () =
    let c = new_controller t ~node ?domain ?probe ?federation () in
    Controller.start c;
    c
  in
  let leaves federation =
    List.map
      (fun (id, members) ->
        let node = List.hd members in
        (node, started ~node ~domain:members ?federation:(federation id) ()))
      domains
  in
  let parent, controllers, flat =
    match control with
    | Flat { probe } ->
        let probe =
          if probe then
            Some
              (Toposense.Probe_discovery.create ~network ~node:root
                 ~period:params.interval ())
          else None
        in
        (None, [], Some (started ~node:root ?probe ()))
    | Per_domain -> (None, leaves (fun _ -> None), None)
    | Federated { rehome } ->
        (* the parent's handler at [root] comes before the re-home
           controller's *)
        let parent = Federation.create_parent ~network ~node:root in
        let leaves =
          leaves (fun id -> Some (Federation.leaf ~parent:root ~domain_id:id))
        in
        let flat = if rehome then Some (started ~node:root ()) else None in
        Option.iter
          (fun c ->
            Federation.set_rehome_counter parent (fun () ->
                Controller.suggestions_sent c))
          flat;
        (Some parent, leaves, flat)
    | No_control -> (None, [], None)
  in
  let home members =
    match control with
    | Per_domain | Federated _ -> List.hd members
    | Flat _ | No_control -> root
  in
  let agents =
    match agents with
    | Every_receiver ->
        (* an agent consumes its node's listings, so a node that a later
           session lists again gets no second agent *)
        let listing = Hashtbl.create 64 and homes = Hashtbl.create 64 in
        List.iter2
          (fun s (_, rs) -> List.iter (fun n -> Hashtbl.add listing n s) rs)
          sessions listed;
        List.iter
          (fun (_, m) ->
            List.iter (fun n -> Hashtbl.replace homes n (home m)) m)
          domains;
        let agent node =
          let sessions = List.rev (Hashtbl.find_all listing node) in
          List.iter (fun _ -> Hashtbl.remove listing node) sessions;
          let controller =
            Option.value ~default:root (Hashtbl.find_opt homes node)
          in
          new_agent t ~node ~controller sessions
        in
        List.concat_map snd listed
        |> List.filter_map (fun n ->
               if Hashtbl.mem listing n then Some (agent n) else None)
    | Sampled { active_domains; active_per_domain } ->
        let sampled =
          List.filteri (fun i _ -> i < active_domains) domains
          |> List.concat_map (fun (_, members) ->
                 List.tl members
                 |> List.filteri (fun i _ -> i < active_per_domain)
                 |> List.map (fun node ->
                        new_agent t ~node ~controller:(home members) sessions))
        in
        let active = Util.Bitset.of_list (List.map fst sampled) in
        List.iter2
          (fun session (_, receivers) ->
            let group = Session.group_for_layer session ~layer:0 in
            List.iter
              (fun node ->
                if not (Util.Bitset.mem active node) then
                  Multicast.Router.join router ~node ~group)
              receivers)
          sessions listed;
        sampled
    | No_agents -> []
  in
  { t with parent; controllers; flat; agents }
