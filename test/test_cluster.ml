(* Direct tests of the Cluster facade (wiring, instrumentation, tags). *)

module Cluster = Repro_core.Cluster
module Config = Repro_core.Config
module Entity = Repro_core.Entity
module Simtime = Repro_sim.Simtime
module Engine = Repro_sim.Engine
module Pdu = Repro_pdu.Pdu

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let test_tag_roundtrip () =
  List.iter
    (fun (src, seq) ->
      check
        (Alcotest.pair int_t int_t)
        "roundtrip" (src, seq)
        (Cluster.key_of_tag (Cluster.tag_of_key ~src ~seq)))
    [ (0, 1); (3, 12345); (9, 1); (7, 999999) ]

let test_create_validates () =
  Alcotest.check_raises "n" (Invalid_argument "Cluster.create: n must be >= 2")
    (fun () -> ignore (Cluster.create (Cluster.default_config ~n:1)))

let test_basic_wiring () =
  let c = Cluster.create (Cluster.default_config ~n:3) in
  check int_t "size" 3 (Cluster.size c);
  check int_t "entity ids" 2 (Entity.id (Cluster.entity c 2));
  check int_t "entity n" 3 (Entity.cluster_size (Cluster.entity c 0))

let run_simple () =
  let c = Cluster.create (Cluster.default_config ~n:3) in
  Cluster.submit_at c ~at:Simtime.zero ~src:0 "one";
  Cluster.submit_at c ~at:(Simtime.of_ms 2) ~src:1 "two";
  Cluster.run c ~max_events:500_000;
  c

let test_send_time_recorded () =
  let c = run_simple () in
  let send_time (src, seq) =
    Cluster.first_send (Cluster.recorded c) (Cluster.tag_of_key ~src ~seq)
  in
  (match send_time (0, 1) with
  | Some t -> check int_t "first send at t=0" 0 t
  | None -> Alcotest.fail "missing send time");
  check bool_t "unknown key" true (send_time (9, 9) = None)

let test_data_keys_in_send_order () =
  let c = run_simple () in
  let keys =
    List.map Cluster.key_of_tag (Cluster.sent_data (Cluster.recorded c))
  in
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "both data PDUs, send order"
    [ (0, 1); (1, 1) ]
    keys;
  check int_t "tags agree" (List.length keys) (List.length (Cluster.data_tags c))

let test_latency_accumulators () =
  let c = run_simple () in
  let tap = Cluster.delivery_latencies c in
  check int_t "2 msgs x 3 entities" 6 (List.length tap);
  List.iter (fun l -> if l < 0. then Alcotest.fail "negative latency") tap;
  check bool_t "preack samples exist" true (Cluster.preack_latencies c <> []);
  check bool_t "ack samples exist" true (Cluster.ack_latencies c <> []);
  (* Every pre-ack of a PDU happens no later than its ack on average. *)
  let mean = Repro_util.Stats.mean in
  check bool_t "preack <= ack" true
    (mean (Cluster.preack_latencies c) <= mean (Cluster.ack_latencies c))

let test_deliveries_chronological () =
  let c = run_simple () in
  let ds = Cluster.deliveries c ~entity:2 in
  let rec sorted = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && sorted rest
    | _ -> true
  in
  check bool_t "times ascend" true (sorted ds);
  check
    (Alcotest.list Alcotest.string)
    "payload order" [ "one"; "two" ]
    (List.map (fun (_, (d : Pdu.data)) -> d.payload) ds)

let test_causality_ground_truth () =
  let c = Cluster.create (Cluster.default_config ~n:3) in
  Cluster.submit_at c ~at:Simtime.zero ~src:0 "first";
  (* Submitted well after the first has propagated: causally dependent. *)
  Cluster.submit_at c ~at:(Simtime.of_ms 30) ~src:1 "second";
  Cluster.run c ~max_events:500_000;
  let causality = Cluster.happened_before (Cluster.recorded c) in
  let t1 = Cluster.tag_of_key ~src:0 ~seq:1 in
  (* Entity 1's first data PDU may not be seq 1 (confirmations consume
     seqs); find it among the data PDUs sent. *)
  let t2 =
    List.find
      (fun tag -> fst (Cluster.key_of_tag tag) = 1)
      (Cluster.data_tags c)
  in
  check bool_t "ground truth sees dependency" true
    (Repro_clock.Causality.msg_precedes causality t1 t2)

let test_aggregate_metrics_sums () =
  let c = run_simple () in
  let agg = Cluster.aggregate_metrics c in
  let by_hand = ref 0 in
  for e = 0 to 2 do
    by_hand :=
      !by_hand + (Cluster.entity_metrics c e).Repro_core.Metrics.delivered
  done;
  check int_t "aggregate = sum" !by_hand agg.Repro_core.Metrics.delivered;
  check int_t "6 deliveries" 6 agg.Repro_core.Metrics.delivered

let test_engine_exposed () =
  let c = Cluster.create (Cluster.default_config ~n:2) in
  Cluster.submit c ~src:0 "x";
  Cluster.run c ~max_events:500_000;
  check bool_t "time advanced" true (Engine.now (Cluster.engine c) > 0);
  check bool_t "events processed" true (Engine.processed (Cluster.engine c) > 0)

let test_default_service_time_linear () =
  let s4 = Cluster.default_service_time ~n:4 (Pdu.ctl ~cid:0 ~src:0 ~ack:[| 1 |] ~buf:0) in
  let s8 = Cluster.default_service_time ~n:8 (Pdu.ctl ~cid:0 ~src:0 ~ack:[| 1 |] ~buf:0) in
  check bool_t "grows with n" true (s8 > s4);
  check int_t "12us per entity" (12 * 4) (s8 - s4)

let () =
  Alcotest.run "cluster"
    [
      ( "facade",
        [
          Alcotest.test_case "tag roundtrip" `Quick test_tag_roundtrip;
          Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "basic wiring" `Quick test_basic_wiring;
          Alcotest.test_case "send time" `Quick test_send_time_recorded;
          Alcotest.test_case "data keys" `Quick test_data_keys_in_send_order;
          Alcotest.test_case "latencies" `Quick test_latency_accumulators;
          Alcotest.test_case "deliveries chronological" `Quick
            test_deliveries_chronological;
          Alcotest.test_case "causality ground truth" `Quick
            test_causality_ground_truth;
          Alcotest.test_case "aggregate metrics" `Quick test_aggregate_metrics_sums;
          Alcotest.test_case "engine exposed" `Quick test_engine_exposed;
          Alcotest.test_case "default service time" `Quick
            test_default_service_time_linear;
        ] );
    ]
