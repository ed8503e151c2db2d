(* The reliable-control-plane layer: per-(session, node) sequence
   stamping, dup/stale rejection, and retransmission backoff. The QCheck
   property is the heart of it: under ANY interleaving of duplication and
   reordering, applying a message iff [admit] says [Fresh] yields
   at-most-once semantics. *)

module Time = Engine.Time
module Protocol = Toposense.Protocol
module Params = Toposense.Params

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---------- tx: sequence allocation ---------- *)

let test_tx_monotonic_per_stream () =
  let tx = Protocol.create_tx () in
  checki "starts at 0" 0 (Protocol.last_sent tx ~session:0 ~node:4);
  checki "first is 1" 1 (Protocol.next_seq tx ~session:0 ~node:4);
  checki "second is 2" 2 (Protocol.next_seq tx ~session:0 ~node:4);
  (* Streams are independent per (session, node). *)
  checki "other node starts fresh" 1 (Protocol.next_seq tx ~session:0 ~node:5);
  checki "other session starts fresh" 1
    (Protocol.next_seq tx ~session:3 ~node:4);
  checki "original stream unperturbed" 3
    (Protocol.next_seq tx ~session:0 ~node:4);
  checki "last_sent tracks" 3 (Protocol.last_sent tx ~session:0 ~node:4)

(* ---------- rx: admission verdicts ---------- *)

let test_rx_verdicts () =
  let rx = Protocol.create_rx () in
  checki "high-water starts 0" 0 (Protocol.last_accepted rx ~session:0 ~node:4);
  let admit seq = Protocol.admit rx ~session:0 ~node:4 ~seq in
  checkb "first is fresh" true (admit 1 = Protocol.Fresh);
  checkb "repeat is duplicate" true (admit 1 = Protocol.Duplicate);
  checkb "skip ahead is fresh" true (admit 5 = Protocol.Fresh);
  checkb "reordered leftover is stale" true (admit 3 = Protocol.Stale);
  checkb "equal-to-high is duplicate" true (admit 5 = Protocol.Duplicate);
  checki "high-water is 5" 5 (Protocol.last_accepted rx ~session:0 ~node:4);
  (* Other streams are unaffected by all of the above. *)
  checkb "other node fresh at 1" true
    (Protocol.admit rx ~session:0 ~node:5 ~seq:1 = Protocol.Fresh)

(* ---------- at-most-once under dup/reorder (QCheck) ---------- *)

(* Model the wire as an adversary: it takes the stream 1..n of distinct
   sends and delivers an arbitrary multiset of copies in arbitrary order
   (dup = a seq appearing twice, reorder = any permutation, loss = a seq
   never appearing). Applying iff Fresh must apply each seq at most once,
   and every Fresh verdict must be a new maximum — the receiver's state
   can never run backwards. *)
let prop_at_most_once =
  let gen =
    QCheck.make
      ~print:(fun l -> String.concat ";" (List.map string_of_int l))
      QCheck.Gen.(
        let* n = 1 -- 30 in
        let* copies = list_size (1 -- 120) (1 -- n) in
        return copies)
  in
  QCheck.Test.make ~name:"admit gives at-most-once delivery" ~count:500 gen
    (fun deliveries ->
      let rx = Protocol.create_rx () in
      let applied = Hashtbl.create 16 in
      let high = ref 0 in
      List.for_all
        (fun seq ->
          match Protocol.admit rx ~session:0 ~node:4 ~seq with
          | Protocol.Fresh ->
              let dup = Hashtbl.mem applied seq in
              Hashtbl.replace applied seq ();
              let monotone = seq > !high in
              high := seq;
              (not dup) && monotone
          | Protocol.Duplicate -> seq = !high
          | Protocol.Stale -> seq < !high)
        deliveries)

(* Two interleaved streams must not interfere: the verdicts for each are
   exactly what the stream would get alone. *)
let prop_streams_independent =
  let gen =
    QCheck.make
      QCheck.Gen.(
        list_size (1 -- 80)
          (let* stream = bool in
           let* seq = 1 -- 20 in
           return (stream, seq)))
  in
  QCheck.Test.make ~name:"interleaved streams stay independent" ~count:300 gen
    (fun deliveries ->
      let rx_both = Protocol.create_rx () in
      let rx_a = Protocol.create_rx () in
      let rx_b = Protocol.create_rx () in
      List.for_all
        (fun (stream, seq) ->
          let node = if stream then 4 else 5 in
          let solo = if stream then rx_a else rx_b in
          Protocol.admit rx_both ~session:0 ~node ~seq
          = Protocol.admit solo ~session:0 ~node ~seq)
        deliveries)

(* ---------- retransmission backoff ---------- *)

let test_backoff_span_doubles_and_caps () =
  let rng = Engine.Prng.create ~seed:42L in
  let base = Time.span_to_sec_f Params.retransmit_initial in
  let cap = Time.span_to_sec_f Params.retransmit_max in
  for attempt = 0 to 40 do
    let ideal = Float.min cap (base *. (2.0 ** float_of_int attempt)) in
    let span = Time.span_to_sec_f (Protocol.backoff_span ~rng ~attempt) in
    checkb
      (Printf.sprintf "attempt %d within +/-50%% of %.3fs (got %.3fs)" attempt
         ideal span)
      true
      (span >= (0.5 *. ideal) -. 1e-9 && span <= (1.5 *. ideal) +. 1e-9)
  done

let test_backoff_span_jitters () =
  (* Distinct draws for the same attempt: the jitter actually consumes
     randomness, so synchronized retransmission storms decorrelate. *)
  let rng = Engine.Prng.create ~seed:42L in
  let spans = List.init 16 (fun _ -> Protocol.backoff_span ~rng ~attempt:0) in
  checkb "not all equal" true
    (List.exists (fun s -> s <> List.hd spans) (List.tl spans));
  List.iter
    (fun s -> checkb "strictly positive" true (s >= 1))
    spans

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "protocol"
    [
      ( "tx",
        [
          Alcotest.test_case "monotonic per stream" `Quick
            test_tx_monotonic_per_stream;
        ] );
      ( "rx",
        [
          Alcotest.test_case "verdicts" `Quick test_rx_verdicts;
        ] );
      qsuite "props" [ prop_at_most_once; prop_streams_independent ];
      ( "backoff",
        [
          Alcotest.test_case "doubles and caps" `Quick
            test_backoff_span_doubles_and_caps;
          Alcotest.test_case "jitters" `Quick test_backoff_span_jitters;
        ] );
    ]
