module Engine = Repro_sim.Engine
module Network = Repro_sim.Network
module Topology = Repro_sim.Topology
module Simtime = Repro_sim.Simtime
module Cbcast = Repro_baselines.Cbcast
module Tobcast = Repro_baselines.Tobcast
module Pobcast = Repro_baselines.Pobcast
module VC = Repro_clock.Vector_clock

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let make_net ?(n = 3) ?(loss = 0.) ?(seed = 1) ?(delay = 1000) () =
  let engine = Engine.create () in
  let topology = Topology.uniform ~n ~delay in
  let config =
    {
      (Network.default_config topology) with
      Network.inbox_capacity = 256;
      service_time = (fun _ -> 10);
      loss_prob = loss;
      seed;
    }
  in
  (engine, Network.create engine config)

(* --- CBCAST --- *)

let test_cbcast_delivers_to_all () =
  let engine, net = make_net () in
  let cb = Cbcast.create engine net ~n:3 in
  Cbcast.broadcast cb ~src:0 ~tag:1 "hello";
  Engine.run engine;
  for e = 0 to 2 do
    check (Alcotest.list int_t) "tag" [ 1 ] (Cbcast.delivered_tags cb ~entity:e)
  done;
  check int_t "total" 3 (Cbcast.delivered_total cb)

let test_cbcast_fifo_per_sender () =
  let engine, net = make_net () in
  let cb = Cbcast.create engine net ~n:3 in
  for i = 1 to 5 do
    Cbcast.broadcast cb ~src:0 ~tag:i "m"
  done;
  Engine.run engine;
  check (Alcotest.list int_t) "in order" [ 1; 2; 3; 4; 5 ]
    (Cbcast.delivered_tags cb ~entity:2)

let test_cbcast_causal_reply () =
  (* E1 replies only after delivering E0's message; no entity may see the
     reply first. *)
  let engine, net = make_net ~delay:1000 () in
  let cb = Cbcast.create engine net ~n:3 in
  Cbcast.broadcast cb ~src:0 ~tag:1 "question";
  Engine.schedule engine ~at:5000 (fun () ->
      Cbcast.broadcast cb ~src:1 ~tag:2 "answer");
  Engine.run engine;
  for e = 0 to 2 do
    check (Alcotest.list int_t) "question before answer" [ 1; 2 ]
      (Cbcast.delivered_tags cb ~entity:e)
  done

let test_cbcast_delay_queue_holds_early_reply () =
  (* Force the answer to physically arrive before the question at E2 via an
     asymmetric topology; CBCAST must still deliver in causal order. *)
  let engine = Engine.create () in
  let topology =
    Topology.of_matrix
      [| [| 0; 100; 9000 |]; [| 100; 0; 100 |]; [| 9000; 100; 0 |] |]
  in
  let net = Network.create engine (Network.default_config topology) in
  let cb = Cbcast.create engine net ~n:3 in
  Cbcast.broadcast cb ~src:0 ~tag:1 "question";
  Engine.schedule engine ~at:500 (fun () ->
      Cbcast.broadcast cb ~src:1 ~tag:2 "answer");
  Engine.run engine;
  check (Alcotest.list int_t) "E2 causal order" [ 1; 2 ]
    (Cbcast.delivered_tags cb ~entity:2)

let test_cbcast_stalls_under_loss () =
  (* The §5 contrast: drop E0's message at E2 only. E2 can never deliver the
     causally-dependent answer, and has no way to detect the loss. *)
  let engine, net = make_net () in
  let cb = Cbcast.create engine net ~n:3 in
  Network.set_fault_hook net (fun ~dst ~src m ->
      if dst = 2 && src = 0 then [] else [ m ]);
  Cbcast.broadcast cb ~src:0 ~tag:1 "question";
  Engine.schedule engine ~at:5000 (fun () ->
      Network.clear_fault_hook net;
      Cbcast.broadcast cb ~src:1 ~tag:2 "answer");
  Engine.run engine;
  check (Alcotest.list int_t) "E1 fine" [ 1; 2 ] (Cbcast.delivered_tags cb ~entity:1);
  check (Alcotest.list int_t) "E2 delivered nothing" []
    (Cbcast.delivered_tags cb ~entity:2);
  check int_t "answer stalled forever" 1 (Cbcast.stalled cb ~entity:2)

let test_cbcast_sender_delivers_immediately () =
  let engine, net = make_net () in
  let cb = Cbcast.create engine net ~n:3 in
  Cbcast.broadcast cb ~src:1 ~tag:7 "m";
  (* Before the engine even runs, the sender has it. *)
  check (Alcotest.list int_t) "self delivery" [ 7 ] (Cbcast.delivered_tags cb ~entity:1);
  Engine.run engine

let test_cbcast_concurrent_messages_all_delivered () =
  let engine, net = make_net () in
  let cb = Cbcast.create engine net ~n:3 in
  Cbcast.broadcast cb ~src:0 ~tag:1 "a";
  Cbcast.broadcast cb ~src:1 ~tag:2 "b";
  Cbcast.broadcast cb ~src:2 ~tag:3 "c";
  Engine.run engine;
  for e = 0 to 2 do
    check int_t "all three" 3 (List.length (Cbcast.delivered_tags cb ~entity:e))
  done

(* --- TOBCAST --- *)

let test_tobcast_total_order_no_loss () =
  let engine, net = make_net () in
  let tb = Tobcast.create engine net ~n:3 ~retry:(Simtime.of_ms 10) in
  Tobcast.broadcast tb ~src:1 ~tag:10 "x";
  Tobcast.broadcast tb ~src:2 ~tag:20 "y";
  Tobcast.broadcast tb ~src:0 ~tag:30 "z";
  Engine.run engine ~max_events:100_000;
  let d0 = Tobcast.delivered_tags tb ~entity:0 in
  check int_t "all delivered" 3 (List.length d0);
  for e = 1 to 2 do
    check (Alcotest.list int_t) "same order" d0 (Tobcast.delivered_tags tb ~entity:e)
  done

let test_tobcast_recovers_from_loss () =
  let engine, net = make_net ~loss:0.2 ~seed:7 () in
  let tb = Tobcast.create engine net ~n:3 ~retry:(Simtime.of_ms 10) in
  for i = 1 to 20 do
    Engine.schedule engine ~at:(i * 500) (fun () ->
        Tobcast.broadcast tb ~src:(i mod 3) ~tag:i "m")
  done;
  Engine.run engine ~max_events:500_000;
  (* Entities other than the sequencer recover through go-back-N. *)
  let d1 = Tobcast.delivered_tags tb ~entity:1 in
  check int_t "entity 1 complete" 20 (List.length d1);
  check bool_t "go-back-N retransmitted" true (Tobcast.retransmissions tb > 0);
  check int_t "no protocol errors" 0 (Tobcast.protocol_errors tb)

let test_tobcast_go_back_n_is_wasteful () =
  (* A single early loss triggers rebroadcast of everything after it. *)
  let engine, net = make_net () in
  let tb = Tobcast.create engine net ~n:3 ~retry:(Simtime.of_ms 50) in
  (* Drop the first Order broadcast at entity 1 only. *)
  let dropped = ref false in
  Network.set_fault_hook net (fun ~dst ~src:_ m ->
      if dst = 1 && not !dropped then begin
        dropped := true;
        []
      end
      else [ m ]);
  for i = 1 to 10 do
    Engine.schedule engine ~at:(i * 2000) (fun () ->
        Tobcast.broadcast tb ~src:0 ~tag:i "m")
  done;
  Engine.run engine ~max_events:500_000;
  check int_t "complete at 1" 10 (List.length (Tobcast.delivered_tags tb ~entity:1));
  check bool_t "rebroadcasts for one loss" true (Tobcast.retransmissions tb >= 1);
  check bool_t "receiver discarded out-of-order arrivals" true
    (Tobcast.discarded tb >= 1)

let test_tobcast_agreement_oracle () =
  (* Total order = prefix agreement across every pair of entities, checked
     with the harness oracle on a lossy run. *)
  let engine, net = make_net ~loss:0.15 ~seed:3 () in
  let tb = Tobcast.create engine net ~n:3 ~retry:(Simtime.of_ms 10) in
  for i = 1 to 15 do
    Engine.schedule engine ~at:(i * 1000) (fun () ->
        Tobcast.broadcast tb ~src:(i mod 3) ~tag:i "m")
  done;
  Engine.run engine ~max_events:500_000;
  let deliveries = Array.init 3 (fun e -> Tobcast.delivered_tags tb ~entity:e) in
  check bool_t "prefix agreement" true
    (Repro_harness.Oracle.total_order_agreement ~deliveries)

let test_tobcast_duplicate_submissions_ignored () =
  let engine, net = make_net () in
  let tb = Tobcast.create engine net ~n:3 ~retry:(Simtime.of_ms 5) in
  Tobcast.broadcast tb ~src:1 ~tag:1 "m";
  (* The submit-retry timer may fire before delivery completes: the
     sequencer must not order the message twice. *)
  Engine.run engine ~max_events:200_000;
  check (Alcotest.list int_t) "exactly once" [ 1 ] (Tobcast.delivered_tags tb ~entity:2)

(* --- POBCAST --- *)

let test_pobcast_fifo_per_source () =
  let engine, net = make_net () in
  let pb = Pobcast.create engine net ~n:3 ~retry:(Simtime.of_ms 10) in
  for i = 1 to 5 do
    Pobcast.broadcast pb ~src:0 ~tag:i "m"
  done;
  Engine.run engine ~max_events:100_000;
  check (Alcotest.list int_t) "fifo" [ 1; 2; 3; 4; 5 ]
    (Pobcast.delivered_tags pb ~entity:2)

let test_pobcast_selective_repair () =
  let engine, net = make_net () in
  let pb = Pobcast.create engine net ~n:3 ~retry:(Simtime.of_ms 10) in
  (* Drop exactly the second message at entity 2. *)
  let count = ref 0 in
  Network.set_fault_hook net (fun ~dst ~src m ->
      if dst = 2 && src = 0 then begin
        incr count;
        if !count = 2 then [] else [ m ]
      end
      else [ m ]);
  (* Messages spaced wider than the repair round-trip, so exactly the lost
     PDU is retransmitted (closer spacing widens the NACK range while the
     repair is in flight — still selective, but conservatively so). *)
  for i = 1 to 5 do
    Engine.schedule engine ~at:(i * 20_000) (fun () ->
        Pobcast.broadcast pb ~src:0 ~tag:i "m")
  done;
  Engine.run engine ~max_events:200_000;
  check (Alcotest.list int_t) "all recovered, in order" [ 1; 2; 3; 4; 5 ]
    (Pobcast.delivered_tags pb ~entity:2);
  (* Selective: only the lost PDU was retransmitted. *)
  check int_t "exactly one retransmission" 1 (Pobcast.retransmissions pb)

let test_pobcast_violates_causality () =
  (* The LO-service anomaly of Figure 2: E1 replies to E0's message; E2 sees
     the reply first because E0→E2 is slow. FIFO broadcast delivers it —
     unlike CBCAST/CO. *)
  let engine = Engine.create () in
  let topology =
    Topology.of_matrix
      [| [| 0; 100; 9000 |]; [| 100; 0; 100 |]; [| 9000; 100; 0 |] |]
  in
  let net = Network.create engine (Network.default_config topology) in
  let pb = Pobcast.create engine net ~n:3 ~retry:(Simtime.of_ms 10) in
  Pobcast.broadcast pb ~src:0 ~tag:1 "question";
  Engine.schedule engine ~at:500 (fun () ->
      Pobcast.broadcast pb ~src:1 ~tag:2 "answer");
  Engine.run engine ~max_events:100_000;
  check (Alcotest.list int_t) "anomaly: answer before question" [ 2; 1 ]
    (Pobcast.delivered_tags pb ~entity:2)

let test_pobcast_counts () =
  let engine, net = make_net () in
  let pb = Pobcast.create engine net ~n:3 ~retry:(Simtime.of_ms 10) in
  Pobcast.broadcast pb ~src:0 ~tag:1 "m";
  Engine.run engine ~max_events:100_000;
  check int_t "sent" 1 (Pobcast.sent pb);
  check int_t "no nacks" 0 (Pobcast.nacks pb)

(* --- Header-size comparison (E5 backing) --- *)

let test_header_sizes_match_paper_claim () =
  (* Both CBCAST's vector clock and the CO ACK vector are n integers: the
     same O(n) header growth; the difference §5 emphasises is computation
     and loss-detectability, not size. *)
  let vt = VC.zero ~n:8 in
  check int_t "vc components" 8 (VC.size vt)

let () =
  Alcotest.run "baselines"
    [
      ( "cbcast",
        [
          Alcotest.test_case "delivers to all" `Quick test_cbcast_delivers_to_all;
          Alcotest.test_case "fifo per sender" `Quick test_cbcast_fifo_per_sender;
          Alcotest.test_case "causal reply" `Quick test_cbcast_causal_reply;
          Alcotest.test_case "delay queue" `Quick
            test_cbcast_delay_queue_holds_early_reply;
          Alcotest.test_case "stalls under loss" `Quick test_cbcast_stalls_under_loss;
          Alcotest.test_case "sender self-delivery" `Quick
            test_cbcast_sender_delivers_immediately;
          Alcotest.test_case "concurrent" `Quick
            test_cbcast_concurrent_messages_all_delivered;
        ] );
      ( "tobcast",
        [
          Alcotest.test_case "total order" `Quick test_tobcast_total_order_no_loss;
          Alcotest.test_case "recovers from loss" `Quick test_tobcast_recovers_from_loss;
          Alcotest.test_case "go-back-N wasteful" `Quick
            test_tobcast_go_back_n_is_wasteful;
          Alcotest.test_case "dedup submissions" `Quick
            test_tobcast_duplicate_submissions_ignored;
          Alcotest.test_case "agreement oracle" `Quick test_tobcast_agreement_oracle;
        ] );
      ( "pobcast",
        [
          Alcotest.test_case "fifo per source" `Quick test_pobcast_fifo_per_source;
          Alcotest.test_case "selective repair" `Quick test_pobcast_selective_repair;
          Alcotest.test_case "violates causality" `Quick test_pobcast_violates_causality;
          Alcotest.test_case "counts" `Quick test_pobcast_counts;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "header sizes O(n)" `Quick
            test_header_sizes_match_paper_claim;
        ] );
    ]
