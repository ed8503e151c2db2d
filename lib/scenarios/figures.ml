module Time = Engine.Time

type stability_row = {
  x : int;
  traffic : Experiment.traffic;
  max_changes : int;
  mean_gap_s : float;
}

let traffics = [ Experiment.Cbr; Experiment.Vbr 3.0; Experiment.Vbr 6.0 ]

let stability_of_outcome ~x ~traffic (o : Experiment.outcome) =
  let logs =
    List.map (fun (r : Experiment.receiver_outcome) -> r.changes) o.receivers
  in
  let s = Metrics.Stability.worst ~logs ~window:(Time.zero, o.duration) in
  { x; traffic; max_changes = s.changes; mean_gap_s = s.mean_gap_s }

(* The sweeps below flatten their grids into one cell list for {!Sweep},
   outer list first, so rows come back in that order and are identical
   for any [jobs]. *)
let grid outer inner =
  List.concat_map (fun o -> List.map (fun i -> (o, i)) inner) outer

let fig6 ?(duration = Time.of_sec 1200) ?(set_sizes = [ 1; 2; 4; 8; 16 ])
    ?(seed = 42L) ?(jobs = 1) () =
  Sweep.run ~jobs
    (fun (traffic, size) ->
      let spec = Builders.topology_a ~receivers_per_set:size in
      let o =
        Experiment.run ~spec ~traffic ~scheme:Experiment.Toposense ~seed
          ~duration ()
      in
      stability_of_outcome ~x:size ~traffic o)
    (grid traffics set_sizes)

let fig7 ?(duration = Time.of_sec 1200) ?(session_counts = [ 1; 2; 4; 8; 16 ])
    ?(seed = 42L) ?(jobs = 1) () =
  Sweep.run ~jobs
    (fun (traffic, count) ->
      let spec = Builders.topology_b ~session_count:count in
      let o =
        Experiment.run ~spec ~traffic ~scheme:Experiment.Toposense ~seed
          ~duration ()
      in
      stability_of_outcome ~x:count ~traffic o)
    (grid traffics session_counts)

type fairness_row = {
  sessions : int;
  traffic : Experiment.traffic;
  dev_first_half : float;
  dev_second_half : float;
}

let fig8 ?(duration = Time.of_sec 1200) ?(session_counts = [ 1; 2; 4; 8; 16 ])
    ?(seeds = [ 42L ]) ?(jobs = 1) () =
  Sweep.run ~jobs
    (fun (traffic, count) ->
          let spec = Builders.topology_b ~session_count:count in
          let halves =
            List.map
              (fun seed ->
                let o =
                  Experiment.run ~spec ~traffic ~scheme:Experiment.Toposense
                    ~seed ~duration ()
                in
                let receivers =
                  List.map
                    (fun (r : Experiment.receiver_outcome) ->
                      (r.changes, r.optimal))
                    o.receivers
                in
                let half = Time.of_ns (Time.to_ns o.duration / 2) in
                ( Metrics.Deviation.mean_relative_deviation ~receivers
                    ~window:(Time.zero, half),
                  Metrics.Deviation.mean_relative_deviation ~receivers
                    ~window:(half, o.duration) ))
              seeds
          in
          let n = float_of_int (List.length halves) in
          {
            sessions = count;
            traffic;
            dev_first_half =
              List.fold_left (fun acc (a, _) -> acc +. a) 0.0 halves /. n;
            dev_second_half =
              List.fold_left (fun acc (_, b) -> acc +. b) 0.0 halves /. n;
          })
    (grid traffics session_counts)

type series_point = {
  at_s : float;
  level : int;
  loss : float;
}

let fig9 ?(duration = Time.of_sec 1200) ?(window = (300.0, 360.0))
    ?(seed = 42L) () =
  let spec = Builders.topology_b ~session_count:4 in
  let o =
    Experiment.run ~spec ~traffic:(Experiment.Vbr 3.0)
      ~scheme:Experiment.Toposense ~seed ~duration
      ~sample_period:(Time.span_of_sec 1) ()
  in
  let lo, hi = window in
  List.map
    (fun ((session, _node), samples) ->
      ( session,
        List.filter_map
          (fun (s : Experiment.sample) ->
            let at_s = Time.to_sec_f s.at in
            if at_s >= lo && at_s <= hi then
              Some { at_s; level = s.level; loss = s.loss }
            else None)
          samples ))
    o.series

type staleness_row = {
  staleness_s : int;
  receivers_per_set : int;
  deviation : float;
}

let fig10 ?(duration = Time.of_sec 1200)
    ?(staleness_seconds = [ 2; 6; 10; 14; 18 ]) ?(set_sizes = [ 1; 2; 4 ])
    ?(seeds = [ 42L ]) ?(jobs = 1) () =
  Sweep.run ~jobs
    (fun (staleness_s, size) ->
          let spec = Builders.topology_a ~receivers_per_set:size in
          let devs =
            List.map
              (fun seed ->
                let params =
                  {
                    Toposense.Params.default with
                    staleness = Time.span_of_sec staleness_s;
                  }
                in
                let o =
                  Experiment.run ~spec ~traffic:(Experiment.Vbr 3.0)
                    ~scheme:Experiment.Toposense ~params ~seed ~duration ()
                in
                let receivers =
                  List.map
                    (fun (r : Experiment.receiver_outcome) ->
                      (r.changes, r.optimal))
                    o.receivers
                in
                Metrics.Deviation.mean_relative_deviation ~receivers
                  ~window:(Time.zero, o.duration))
              seeds
          in
          {
            staleness_s;
            receivers_per_set = size;
            deviation =
              List.fold_left ( +. ) 0.0 devs
              /. float_of_int (List.length devs);
          })
    (grid staleness_seconds set_sizes)

type table1_row = {
  kind : Toposense.Decision.node_kind;
  history : int;
  bw : Toposense.Decision.bw_equality;
  action : Toposense.Decision.action;
}

let table1 () =
  let kinds = [ Toposense.Decision.Leaf; Toposense.Decision.Internal ] in
  let bws =
    [ Toposense.Decision.Lesser; Toposense.Decision.Equal; Toposense.Decision.Greater ]
  in
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun bw ->
          List.map
            (fun history ->
              { kind; history; bw; action = Toposense.Decision.lookup ~kind ~history ~bw })
            (List.init 8 Fun.id))
        bws)
    kinds

let pp_traffic = Experiment.pp_traffic

let pp_stability_row ppf (r : stability_row) =
  Format.fprintf ppf "%a x=%-3d max_changes=%-4d mean_gap=%.1fs" pp_traffic
    r.traffic r.x r.max_changes r.mean_gap_s

let pp_fairness_row ppf (r : fairness_row) =
  Format.fprintf ppf "%a n=%-3d dev[first]=%.3f dev[second]=%.3f" pp_traffic
    r.traffic r.sessions r.dev_first_half r.dev_second_half

let pp_staleness_row ppf (r : staleness_row) =
  Format.fprintf ppf "staleness=%-3ds receivers/set=%-2d deviation=%.3f"
    r.staleness_s r.receivers_per_set r.deviation

let pp_table1_row ppf r =
  Format.fprintf ppf "%-8s hist=%d %a -> %a"
    (match r.kind with
    | Toposense.Decision.Leaf -> "leaf"
    | Toposense.Decision.Internal -> "internal")
    r.history Toposense.Decision.pp_bw r.bw Toposense.Decision.pp_action
    r.action
