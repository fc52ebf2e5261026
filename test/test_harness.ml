module Workload = Repro_harness.Workload
module Oracle = Repro_harness.Oracle
module Experiment = Repro_harness.Experiment
module Report = Repro_harness.Report
module Cluster = Repro_core.Cluster
module Simtime = Repro_sim.Simtime

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* --- Workload --- *)

let test_continuous_counts () =
  let w = Workload.continuous ~n:3 ~per_entity:5 ~interval:(Simtime.of_ms 2) () in
  check int_t "total" 15 (Workload.total w);
  (* One schedule entry per (src, index) pair. *)
  let srcs = List.map (fun (e : Workload.entry) -> e.src) w in
  List.iter (fun s -> check int_t "5 per entity" 5
    (List.length (List.filter (( = ) s) srcs))) [ 0; 1; 2 ]

let test_continuous_sorted () =
  let w = Workload.continuous ~n:4 ~per_entity:3 ~interval:(Simtime.of_ms 1) () in
  let rec sorted = function
    | (a : Workload.entry) :: (b :: _ as rest) ->
      Simtime.compare a.at b.at <= 0 && sorted rest
    | _ -> true
  in
  check bool_t "sorted by time" true (sorted w)

let test_payload_size () =
  let p = Workload.payload ~bytes_per_msg:64 ~src:1 ~index:3 in
  check bool_t "at least requested size" true (String.length p >= 64);
  check bool_t "embeds identity" true
    (String.length p > 6 && String.sub p 0 6 = "m:1:3:")

let test_poisson_duration () =
  let rng = Repro_util.Prng.create ~seed:3 in
  let w =
    Workload.poisson ~n:3 ~rng ~mean_interval_ms:1.0
      ~duration:(Simtime.of_ms 20) ()
  in
  check bool_t "nonempty" true (Workload.total w > 10);
  List.iter
    (fun (e : Workload.entry) ->
      if Simtime.compare e.at (Simtime.of_ms 20) > 0 then
        Alcotest.fail "entry beyond duration")
    w

let test_bursty () =
  let rng = Repro_util.Prng.create ~seed:5 in
  let w =
    Workload.bursty ~n:3 ~rng ~burst_size:4 ~burst_gap:(Simtime.of_ms 10)
      ~bursts:3 ()
  in
  check int_t "total" 12 (Workload.total w)

let test_single_source () =
  let w =
    Workload.single_source ~src:2 ~n:3 ~count:4 ~interval:(Simtime.of_ms 1) ()
  in
  check int_t "total" 4 (Workload.total w);
  List.iter
    (fun (e : Workload.entry) -> check int_t "src" 2 e.src)
    w

(* --- Oracle detectors on synthetic data --- *)

let test_duplicates_detected () =
  let v = Oracle.duplicate_tags ~deliveries:[| [ 1; 2; 1 ]; [ 3 ] |] in
  check int_t "one dup" 1 (List.length v);
  check int_t "at entity 0" 0 (List.hd v).Oracle.entity

let test_missing_detected () =
  let missing =
    Oracle.missing_tags ~expected:[ 1; 2 ] ~deliveries:[| [ 1; 2 ]; [ 1 ] |]
  in
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "entity 1 missing tag 2" [ (1, 2) ] missing

let test_causality_violation_detected () =
  let precedes p q = p = 1 && q = 2 in
  let v = Oracle.causality_violations ~precedes ~deliveries:[| [ 2; 1 ] |] in
  check int_t "one violation" 1 (List.length v);
  let v0 = List.hd v in
  check int_t "earlier" 2 v0.Oracle.earlier;
  check int_t "later" 1 v0.Oracle.later

let test_causality_clean () =
  let precedes p q = p = 1 && q = 2 in
  check int_t "no violation" 0
    (List.length (Oracle.causality_violations ~precedes ~deliveries:[| [ 1; 2 ] |]))

let test_fifo_violation_detected () =
  let key_of tag = (tag / 10, tag mod 10) in
  (* Source 1's seq 2 delivered before seq 1. *)
  let v = Oracle.fifo_violations ~key_of ~deliveries:[| [ 12; 11 ] |] in
  check int_t "one violation" 1 (List.length v)

let test_fifo_clean_across_sources () =
  let key_of tag = (tag / 10, tag mod 10) in
  check int_t "interleaving sources is fine" 0
    (List.length (Oracle.fifo_violations ~key_of ~deliveries:[| [ 11; 21; 12; 22 ] |]))

let test_total_order_agreement () =
  check bool_t "agree" true
    (Oracle.total_order_agreement ~deliveries:[| [ 1; 2; 3 ]; [ 1; 2 ] |]);
  check bool_t "disagree" false
    (Oracle.total_order_agreement ~deliveries:[| [ 1; 2 ]; [ 2; 1 ] |])

let test_violation_pp () =
  let v = { Oracle.entity = 0; earlier = 1; later = 2; reason = "r" } in
  check bool_t "pp" true
    (String.length (Format.asprintf "%a" Oracle.pp_violation v) > 0)

(* --- Experiment runner end-to-end --- *)

let test_experiment_run_clean () =
  let config = Cluster.default_config ~n:3 in
  let workload =
    Workload.continuous ~n:3 ~per_entity:5 ~interval:(Simtime.of_ms 3) ()
  in
  let _, outcome = Experiment.run ~config ~workload () in
  check int_t "submitted" 15 outcome.Experiment.submitted;
  check bool_t "oracle ok" true (Oracle.ok outcome.Experiment.oracle);
  check int_t "everyone got everything" (3 * 15) outcome.Experiment.delivered_total;
  check bool_t "tap sampled" true (outcome.Experiment.tap_ms.Repro_util.Stats.count > 0);
  check bool_t "positive goodput" true (Experiment.goodput outcome > 0.)

let test_experiment_pdus_per_message () =
  let config = Cluster.default_config ~n:3 in
  let workload =
    Workload.continuous ~n:3 ~per_entity:5 ~interval:(Simtime.of_ms 3) ()
  in
  let _, outcome = Experiment.run ~config ~workload () in
  let ppm = Experiment.pdus_per_message outcome in
  check bool_t "at least 1 pdu per message" true (ppm >= 1.)

(* The oracle checks what was sent; the shortfall also counts what was
   submitted but never delivered, so a run cut short reads above 0. *)
let test_experiment_shortfall () =
  let config = Cluster.default_config ~n:4 in
  let workload =
    Workload.continuous ~n:4 ~per_entity:5 ~interval:(Simtime.of_ms 3) ()
  in
  let _, clean = Experiment.run ~config ~workload () in
  check int_t "clean run owes nothing" 0 (Experiment.shortfall clean);
  let _, cut = Experiment.run ~max_events:200 ~config ~workload () in
  check bool_t "cut run owes deliveries" true (Experiment.shortfall cut > 0)

(* --- Trace_stats --- *)

module Trace_stats = Repro_harness.Trace_stats
module Trace = Repro_sim.Trace

let synthetic_trace () =
  let t = Trace.create () in
  Trace.record t (Trace.Sent { time = 0; src = 0; uid = 1 });
  Trace.record t (Trace.Arrived { time = 10; dst = 1; uid = 1 });
  Trace.record t (Trace.Handled { time = 30; dst = 1; uid = 1 });
  Trace.record t (Trace.Dropped { time = 10; dst = 2; uid = 1; reason = Trace.Overrun });
  Trace.record t (Trace.Delivered { time = 40; entity = 1; tag = 7 });
  Trace.record t (Trace.Dropped { time = 11; dst = 2; uid = 2; reason = Trace.Injected });
  t

let test_trace_stats_per_entity () =
  let stats = Trace_stats.per_entity (synthetic_trace ()) ~n:3 in
  let e1 = stats.(1) and e2 = stats.(2) in
  check int_t "arrived" 1 e1.Trace_stats.arrived;
  check int_t "handled" 1 e1.Trace_stats.handled;
  check int_t "delivered" 1 e1.Trace_stats.delivered;
  check (Alcotest.float 1e-9) "sojourn 20us = 0.02ms" 0.02
    e1.Trace_stats.mean_sojourn_ms;
  check int_t "overrun at e2" 1 e2.Trace_stats.dropped_overrun;
  check int_t "injected at e2" 1 e2.Trace_stats.dropped_injected

let test_trace_stats_loss_rate () =
  let stats = Trace_stats.per_entity (synthetic_trace ()) ~n:3 in
  check (Alcotest.float 1e-9) "all offered copies lost" 1.0
    (Trace_stats.loss_rate stats.(2));
  check (Alcotest.float 1e-9) "no loss at e1" 0.0 (Trace_stats.loss_rate stats.(1));
  check (Alcotest.float 1e-9) "nothing offered to e0" 0.0
    (Trace_stats.loss_rate stats.(0))

let test_trace_stats_breakdown () =
  check (Alcotest.triple int_t int_t int_t) "breakdown" (1, 1, 0)
    (Trace_stats.drop_breakdown (synthetic_trace ()));
  check int_t "total" 2 (Trace_stats.total_drops (synthetic_trace ()))

let test_trace_stats_on_real_run () =
  let config = { (Cluster.default_config ~n:3) with Cluster.loss_prob = 0.1; seed = 5 } in
  let workload = Workload.continuous ~n:3 ~per_entity:10 ~interval:(Simtime.of_ms 3) () in
  let cluster, outcome = Experiment.run ~config ~workload () in
  check bool_t "oracle ok" true (Oracle.ok outcome.Experiment.oracle);
  let stats = Trace_stats.per_entity (Cluster.trace cluster) ~n:3 in
  let total_injected =
    Array.fold_left (fun acc p -> acc + p.Trace_stats.dropped_injected) 0 stats
  in
  check int_t "trace drops match network counter" outcome.Experiment.losses
    total_injected;
  Array.iter
    (fun p ->
      check bool_t "handled <= arrived" true
        (p.Trace_stats.handled <= p.Trace_stats.arrived))
    stats

(* --- Report helpers --- *)

let test_shape_line () =
  let s = Report.shape_line ~xs:[ 1.; 2.; 3. ] ~ys:[ 2.; 4.; 6. ] in
  check bool_t "mentions slope" true (String.length s > 10)

let test_factor () =
  check Alcotest.string "ratio" "2.00x" (Report.factor 4. 2.);
  check Alcotest.string "div zero" "inf" (Report.factor 4. 0.)

let () =
  Alcotest.run "harness"
    [
      ( "workload",
        [
          Alcotest.test_case "continuous counts" `Quick test_continuous_counts;
          Alcotest.test_case "continuous sorted" `Quick test_continuous_sorted;
          Alcotest.test_case "payload size" `Quick test_payload_size;
          Alcotest.test_case "poisson duration" `Quick test_poisson_duration;
          Alcotest.test_case "bursty" `Quick test_bursty;
          Alcotest.test_case "single source" `Quick test_single_source;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "duplicates" `Quick test_duplicates_detected;
          Alcotest.test_case "missing" `Quick test_missing_detected;
          Alcotest.test_case "causality violation" `Quick
            test_causality_violation_detected;
          Alcotest.test_case "causality clean" `Quick test_causality_clean;
          Alcotest.test_case "fifo violation" `Quick test_fifo_violation_detected;
          Alcotest.test_case "fifo across sources" `Quick
            test_fifo_clean_across_sources;
          Alcotest.test_case "total order agreement" `Quick test_total_order_agreement;
          Alcotest.test_case "pp" `Quick test_violation_pp;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "clean run" `Quick test_experiment_run_clean;
          Alcotest.test_case "pdus per message" `Quick test_experiment_pdus_per_message;
          Alcotest.test_case "shortfall" `Quick test_experiment_shortfall;
        ] );
      ( "trace_stats",
        [
          Alcotest.test_case "per entity" `Quick test_trace_stats_per_entity;
          Alcotest.test_case "loss rate" `Quick test_trace_stats_loss_rate;
          Alcotest.test_case "breakdown" `Quick test_trace_stats_breakdown;
          Alcotest.test_case "real run" `Quick test_trace_stats_on_real_run;
        ] );
      ( "report",
        [
          Alcotest.test_case "shape line" `Quick test_shape_line;
          Alcotest.test_case "factor" `Quick test_factor;
        ] );
    ]
