module Sim = Engine.Sim
module Time = Engine.Time
module Addr = Net.Addr

type entry = {
  session : Traffic.Session.t;
  buffer : Snapshot.t Engine.Trace.t;
}

(* A registered domain: its nodes as first registered and the controller
   node that registered them (named when a later domain overlaps it). *)
type slot = { nodes : Addr.node_id list; owner : Addr.node_id }

(* The last partition of one session's image, valid while a snapshot
   asked about carries the same [edges] and [members] lists (physically:
   [Snapshot.capture ~prev] shares them while the tree stands still), the
   same source, and no domain has been registered since. *)
type memo = {
  source : Addr.node_id;
  edges : Snapshot.edge list;
  members : (Addr.node_id * int) list;
  slot_count : int;
  parts : Snapshot.part array;
}

type domain = int

type t = {
  sim : Sim.t;
  router : Multicast.Router.t;
  period : Time.span;
  history : int;
  mutable sessions_rev : Traffic.Session.t list;
      (** newest first; O(1) registration, reversed at each use *)
  entries : (int, entry) Hashtbl.t;
  mutable slot_of_node : int array;  (** node -> slot, -1 when in none *)
  slots : (domain, slot) Hashtbl.t;
  memos : (int, memo) Hashtbl.t;
  mutable partitions : int;
}

let create ~sim ~router ?(period = Time.span_of_sec 1) ?(history = 64) () =
  if history <= 0 then invalid_arg "Discovery.Service.create: history <= 0";
  {
    sim;
    router;
    period;
    history;
    sessions_rev = [];
    entries = Hashtbl.create 8;
    slot_of_node = [||];
    slots = Hashtbl.create 8;
    memos = Hashtbl.create 8;
    partitions = 0;
  }

let sessions t = List.rev t.sessions_rev

let newest e =
  Option.map snd (Engine.Trace.find_last e.buffer ~f:(fun _ -> true))

let capture_all t =
  let at = Sim.now t.sim in
  List.iter
    (fun session ->
      let e = Hashtbl.find t.entries (Traffic.Session.id session) in
      let snap =
        Snapshot.capture ?prev:(newest e) ~router:t.router ~session ~at ()
      in
      Engine.Trace.record e.buffer at snap)
    (sessions t)

let register_session t session =
  let id = Traffic.Session.id session in
  if Hashtbl.mem t.entries id then
    invalid_arg "Discovery.Service.register_session: duplicate session";
  Hashtbl.add t.entries id
    { session; buffer = Engine.Trace.create ~capacity:t.history };
  let first = t.sessions_rev = [] in
  t.sessions_rev <- session :: t.sessions_rev;
  if first then begin
    capture_all t;
    ignore (Sim.every t.sim ~period:t.period (fun () -> capture_all t))
  end

let query t ~session ~staleness =
  if staleness < 0 then invalid_arg "Discovery.Service.query: staleness < 0";
  match Hashtbl.find_opt t.entries session with
  | None -> None
  | Some e ->
      if staleness = 0 then
        Some
          (Snapshot.capture ?prev:(newest e) ~router:t.router
             ~session:e.session ~at:(Sim.now t.sim) ())
      else
        let cutoff = Time.to_ns (Sim.now t.sim) - staleness in
        Engine.Trace.find_last e.buffer ~f:(fun (snap : Snapshot.t) ->
            Time.to_ns snap.taken_at <= cutoff)
        |> Option.map snd

let slot_of t n =
  if n >= 0 && n < Array.length t.slot_of_node then t.slot_of_node.(n) else -1

let register_domain t ~owner nodes =
  match List.find_opt (fun n -> slot_of t n >= 0) nodes with
  | Some shared ->
      let s = slot_of t shared in
      let other = Hashtbl.find t.slots s in
      let set l = List.sort_uniq Int.compare l in
      if List.equal Int.equal (set other.nodes) (set nodes) then s
      else
        invalid_arg
          (Format.asprintf
             "Discovery.Service.register_domain: node %a is in the domain of \
              controller %a and of controller %a; controller domains must be \
              disjoint (or identical, to share one view)"
             Addr.pp_node shared Addr.pp_node other.owner Addr.pp_node owner)
  | None ->
      let s = Hashtbl.length t.slots in
      let top = List.fold_left Int.max (-1) nodes in
      let len = Array.length t.slot_of_node in
      if top >= len then begin
        let grown = Array.make (max (top + 1) (2 * len)) (-1) in
        Array.blit t.slot_of_node 0 grown 0 len;
        t.slot_of_node <- grown
      end;
      List.iter (fun n -> t.slot_of_node.(n) <- s) nodes;
      Hashtbl.add t.slots s { nodes; owner };
      s

let restrict t domain (snap : Snapshot.t) =
  let slot_count = Hashtbl.length t.slots in
  let parts =
    match Hashtbl.find_opt t.memos snap.session with
    | Some m
      when m.edges == snap.edges && m.members == snap.members
           && m.source = snap.source && m.slot_count = slot_count ->
        m.parts
    | _ ->
        t.partitions <- t.partitions + 1;
        let parts =
          Snapshot.partition snap ~slots:slot_count ~slot_of:(slot_of t)
        in
        Hashtbl.replace t.memos snap.session
          {
            source = snap.source;
            edges = snap.edges;
            members = snap.members;
            slot_count;
            parts;
          };
        parts
  in
  (* A memo hit from an earlier snapshot of the same image carries that
     snapshot's time; the view is of this one. *)
  match Snapshot.part_view parts.(domain) with
  | Some v when v.taken_at <> snap.taken_at ->
      Some { v with taken_at = snap.taken_at }
  | view -> view

let partitions t = t.partitions
