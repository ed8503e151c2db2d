(* Tests for layering schedules, sessions and the CBR/VBR sources. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Topology = Net.Topology
module Network = Net.Network
module Packet = Net.Packet
module Addr = Net.Addr
module Router = Multicast.Router
module Layering = Traffic.Layering
module Session = Traffic.Session
module Source = Traffic.Source

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ---------- Layering ---------- *)

let test_paper_rates () =
  let l = Layering.paper_default in
  checki "six layers" 6 (Layering.count l);
  checkf "base 32k" 32_000.0 (Layering.rate_bps l ~layer:0);
  checkf "layer 5 = 1024k" 1_024_000.0 (Layering.rate_bps l ~layer:5);
  checkf "level 0" 0.0 (Layering.cumulative_bps l ~level:0);
  checkf "level 4 = 480k" 480_000.0 (Layering.cumulative_bps l ~level:4);
  checkf "level 6 = 2016k" 2_016_000.0 (Layering.cumulative_bps l ~level:6)

let test_level_for_bandwidth () =
  let l = Layering.paper_default in
  checki "500k -> 4 layers" 4 (Layering.level_for_bandwidth l ~bps:500_000.0);
  checki "100k -> 2 layers" 2 (Layering.level_for_bandwidth l ~bps:100_000.0);
  checki "exact 480k" 4 (Layering.level_for_bandwidth l ~bps:480_000.0);
  checki "tiny" 0 (Layering.level_for_bandwidth l ~bps:1_000.0);
  checki "huge" 6 (Layering.level_for_bandwidth l ~bps:1e9)

let prop_cumulative_monotone =
  let l = Layering.paper_default in
  QCheck.Test.make ~name:"cumulative is strictly monotone" ~count:100
    QCheck.(int_range 0 (Layering.count l - 1))
    (fun k ->
      Layering.cumulative_bps l ~level:(k + 1)
      > Layering.cumulative_bps l ~level:k)

let prop_level_for_bandwidth_tight =
  QCheck.Test.make ~name:"level_for_bandwidth is the tight fit" ~count:100
    QCheck.(float_range 0.0 3_000_000.0)
    (fun bps ->
      let l = Layering.paper_default in
      let k = Layering.level_for_bandwidth l ~bps in
      Layering.cumulative_bps l ~level:k <= bps
      && (k = Layering.count l
          || Layering.cumulative_bps l ~level:(k + 1) > bps))

(* ---------- Session ---------- *)

let harness () =
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 3);
  Topology.add_duplex topo ~a:0 ~b:1 ~bandwidth_bps:1e7
    ~delay:(Time.span_of_ms 10) ();
  Topology.add_duplex topo ~a:1 ~b:2 ~bandwidth_bps:1e7
    ~delay:(Time.span_of_ms 10) ();
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw () in
  (sim, nw, router)

let test_session_groups_distinct () =
  let _, _, router = harness () in
  let s = Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0 in
  let gs = List.init 6 (fun layer -> Session.group_for_layer s ~layer) in
  checki "distinct" 6 (List.length (List.sort_uniq Int.compare gs))

let test_subscription_level_changes () =
  let sim, _, router = harness () in
  let s = Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0 in
  checki "starts at 0" 0 (Session.subscription_level s ~router ~node:2);
  Session.set_subscription_level s ~router ~node:2 ~level:3;
  checki "now 3" 3 (Session.subscription_level s ~router ~node:2);
  Session.set_subscription_level s ~router ~node:2 ~level:1;
  checki "down to 1" 1 (Session.subscription_level s ~router ~node:2);
  Sim.run_until sim (Time.of_sec 5);
  checki "stable" 1 (Session.subscription_level s ~router ~node:2)

let test_subscription_cumulative_invariant () =
  let _, _, router = harness () in
  let s = Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0 in
  Session.set_subscription_level s ~router ~node:2 ~level:4;
  for layer = 0 to 3 do
    checkb "member of lower layer" true
      (Router.is_member router ~node:2 ~group:(Session.group_for_layer s ~layer))
  done;
  for layer = 4 to 5 do
    checkb "not member of upper" false
      (Router.is_member router ~node:2 ~group:(Session.group_for_layer s ~layer))
  done

(* ---------- Sources ---------- *)

(* Count packets of one layer arriving at a subscribed receiver. *)
let run_source ~kind ~layer ~seconds =
  let sim, nw, router = harness () in
  let s = Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0 in
  Session.set_subscription_level s ~router ~node:2 ~level:6;
  Sim.run_until sim (Time.of_sec 1);
  let count = ref 0 and bytes = ref 0 in
  let arena = Network.arena nw in
  Network.set_local_handler nw 2 (fun pkt ->
      if Packet.is_data arena pkt && Packet.layer arena pkt = layer then begin
        incr count;
        bytes := !bytes + Packet.size arena pkt
      end);
  let rng = Sim.rng sim ~label:"source" in
  let src = Source.start ~network:nw ~session:s ~kind ~rng () in
  Sim.run_until sim (Time.add (Sim.now sim) (Time.span_of_sec seconds));
  (!count, !bytes, src)

let test_cbr_base_rate () =
  (* Base layer 32 kbps = 4 packets/s. *)
  let count, bytes, _ = run_source ~kind:Source.Cbr ~layer:0 ~seconds:50 in
  checkb "about 200 packets" true (abs (count - 200) <= 2);
  checkb "bytes consistent" true (bytes = count * 1000)

let test_cbr_layer_rates_double () =
  let c0, _, _ = run_source ~kind:Source.Cbr ~layer:0 ~seconds:30 in
  let c2, _, _ = run_source ~kind:Source.Cbr ~layer:2 ~seconds:30 in
  (* layer 2 is 4x the base rate *)
  checkb "4x rate" true (abs (c2 - (4 * c0)) <= 8)

let test_vbr_mean_rate () =
  let count, _, _ =
    run_source ~kind:(Source.Vbr { peak_to_mean = 3.0 }) ~layer:2 ~seconds:200
  in
  (* layer 2 = 128 kbps = 16 pkts/s -> 3200 expected over 200 s. *)
  let expected = 3200.0 in
  let frac = float_of_int count /. expected in
  checkb
    (Printf.sprintf "mean within 15%% (got %d, expected %.0f)" count expected)
    true
    (frac > 0.85 && frac < 1.15)

let test_vbr_is_bursty () =
  (* Count per-second arrivals of layer 3; VBR P=6 must show seconds with 1
     packet and seconds with many. *)
  let sim, nw, router = harness () in
  let s = Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0 in
  Session.set_subscription_level s ~router ~node:2 ~level:6;
  Sim.run_until sim (Time.of_sec 1);
  let per_second = Hashtbl.create 64 in
  let arena = Network.arena nw in
  Network.set_local_handler nw 2 (fun pkt ->
      if Packet.is_data arena pkt && Packet.layer arena pkt = 3 then begin
        let sec = int_of_float (Time.to_sec_f (Sim.now sim)) in
        Hashtbl.replace per_second sec
          (1 + Option.value ~default:0 (Hashtbl.find_opt per_second sec))
      end);
  let rng = Sim.rng sim ~label:"source" in
  ignore
    (Source.start ~network:nw ~session:s
       ~kind:(Source.Vbr { peak_to_mean = 6.0 })
       ~rng ());
  Sim.run_until sim (Time.of_sec 120);
  let counts = Hashtbl.fold (fun _ v acc -> v :: acc) per_second [] in
  let lo = List.fold_left min max_int counts
  and hi = List.fold_left max 0 counts in
  checkb "has quiet seconds" true (lo <= 2);
  checkb "has bursts" true (hi >= 20)

(* A nan or infinite parameter fails no ordering test, so each must be
   rejected by name before the source sends anything. *)
let test_source_rejects_non_finite () =
  let _, nw, router = harness () in
  let s = Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0 in
  let rejects name kind =
    match
      Source.start ~network:nw ~session:s ~kind
        ~rng:(Engine.Prng.create ~seed:1L) ()
    with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument msg ->
        let n = String.length name in
        let rec named i =
          i + n <= String.length msg
          && (String.sub msg i n = name || named (i + 1))
        in
        checkb (Printf.sprintf "%S names %s" msg name) true (named 0)
  in
  rejects "peak_to_mean" (Source.Vbr { peak_to_mean = Float.nan });
  rejects "peak_to_mean" (Source.Vbr { peak_to_mean = Float.infinity });
  rejects "peak_to_mean" (Source.Vbr { peak_to_mean = 0.5 })

let test_source_counters () =
  let sim, nw, router = harness () in
  let s = Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0 in
  let rng = Sim.rng sim ~label:"source" in
  let src = Source.start ~network:nw ~session:s ~kind:Source.Cbr ~rng () in
  Sim.run_until sim (Time.of_sec 10);
  checkb "base sent ~40" true (abs (Source.packets_sent src ~layer:0 - 40) <= 1);
  let total = List.init 6 (fun l -> Source.packets_sent src ~layer:l) in
  let sum = List.fold_left ( + ) 0 total in
  checki "bytes = packets x 1000" (sum * 1000) (Source.bytes_sent src)

let test_seq_numbers_dense () =
  let sim, nw, router = harness () in
  let s = Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0 in
  Session.set_subscription_level s ~router ~node:2 ~level:1;
  Sim.run_until sim (Time.of_sec 1);
  let seqs = ref [] in
  let arena = Network.arena nw in
  Network.set_local_handler nw 2 (fun pkt ->
      if Packet.is_data arena pkt && Packet.layer arena pkt = 0 then
        seqs := Packet.seq arena pkt :: !seqs);
  let rng = Sim.rng sim ~label:"source" in
  ignore (Source.start ~network:nw ~session:s ~kind:Source.Cbr ~rng ());
  Sim.run_until sim (Time.of_sec 6);
  let got = List.rev !seqs in
  checkb "nonempty" true (got <> []);
  let rec consecutive = function
    | a :: (b :: _ as rest) -> b = a + 1 && consecutive rest
    | [ _ ] | [] -> true
  in
  checkb "dense and ordered" true (consecutive got)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "traffic"
    [
      ( "layering",
        [
          Alcotest.test_case "paper rates" `Quick test_paper_rates;
          Alcotest.test_case "level for bandwidth" `Quick
            test_level_for_bandwidth;
        ] );
      qsuite "layering-props"
        [ prop_cumulative_monotone; prop_level_for_bandwidth_tight ];
      ( "session",
        [
          Alcotest.test_case "groups distinct" `Quick
            test_session_groups_distinct;
          Alcotest.test_case "level changes" `Quick
            test_subscription_level_changes;
          Alcotest.test_case "cumulative invariant" `Quick
            test_subscription_cumulative_invariant;
        ] );
      ( "sources",
        [
          Alcotest.test_case "cbr base rate" `Slow test_cbr_base_rate;
          Alcotest.test_case "cbr layers double" `Slow
            test_cbr_layer_rates_double;
          Alcotest.test_case "vbr mean" `Slow test_vbr_mean_rate;
          Alcotest.test_case "vbr bursty" `Slow test_vbr_is_bursty;
          Alcotest.test_case "rejects non-finite" `Quick
            test_source_rejects_non_finite;
          Alcotest.test_case "counters" `Quick test_source_counters;
          Alcotest.test_case "dense seq" `Quick test_seq_numbers_dense;
        ] );
    ]
