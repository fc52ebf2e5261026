(* End-to-end CO protocol runs over the simulated MC network, checked against
   the paper's service definitions by the oracle. *)

module Cluster = Repro_core.Cluster
module Config = Repro_core.Config
module Metrics = Repro_core.Metrics
module Workload = Repro_harness.Workload
module Oracle = Repro_harness.Oracle
module Experiment = Repro_harness.Experiment
module Network = Repro_sim.Network
module Engine = Repro_sim.Engine
module Topology = Repro_sim.Topology
module Simtime = Repro_sim.Simtime
module Trace = Repro_sim.Trace
module Pdu = Repro_pdu.Pdu

(* The service oracle over every entity of [cluster]. *)
let check_cluster cluster =
  Oracle.check_recording (Cluster.recorded cluster)
    ~entities:(List.init (Cluster.size cluster) Fun.id)
    ~expected_tags:(Cluster.data_tags cluster)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let max_events = 5_000_000

let run_workload ?(config_f = fun c -> c) ~n ~loss ~seed workload =
  let base = Cluster.default_config ~n in
  let config = config_f { base with Cluster.loss_prob = loss; seed } in
  Experiment.run ~max_events ~config ~workload ()

let assert_clean outcome =
  if not (Oracle.ok outcome.Experiment.oracle) then
    Alcotest.failf "oracle violations: %a" Oracle.pp_report
      outcome.Experiment.oracle;
  check bool_t "terminated before event cap" true
    (outcome.Experiment.events < max_events)

(* --- Clean runs across cluster sizes --- *)

let test_clean_run n () =
  let workload =
    Workload.continuous ~n ~per_entity:10 ~interval:(Simtime.of_ms 3) ()
  in
  let _, outcome = run_workload ~n ~loss:0. ~seed:1 workload in
  assert_clean outcome;
  check int_t "complete delivery" (n * n * 10) outcome.Experiment.delivered_total;
  check int_t "no losses on clean network" 0 outcome.Experiment.losses

let test_single_talker () =
  (* Only one entity produces data: deferred confirmations from pure
     receivers must still drive the PDU to full acknowledgment. *)
  let n = 4 in
  let workload =
    Workload.single_source ~src:1 ~n ~count:5 ~interval:(Simtime.of_ms 5) ()
  in
  let _, outcome = run_workload ~n ~loss:0. ~seed:1 workload in
  assert_clean outcome;
  check int_t "delivered everywhere" (n * 5) outcome.Experiment.delivered_total

let test_two_entities () =
  let workload =
    Workload.continuous ~n:2 ~per_entity:8 ~interval:(Simtime.of_ms 2) ()
  in
  let _, outcome = run_workload ~n:2 ~loss:0. ~seed:1 workload in
  assert_clean outcome

(* --- Loss and recovery --- *)

let test_iid_loss_recovered () =
  let n = 4 in
  let workload =
    Workload.continuous ~n ~per_entity:15 ~interval:(Simtime.of_ms 4) ()
  in
  let cluster, outcome = run_workload ~n ~loss:0.08 ~seed:42 workload in
  assert_clean outcome;
  check bool_t "losses occurred" true (outcome.Experiment.losses > 0);
  check bool_t "gaps detected" true (outcome.Experiment.metrics.Metrics.gaps_detected > 0);
  check bool_t "selective retransmissions" true
    (outcome.Experiment.metrics.Metrics.retransmitted > 0);
  ignore cluster

let test_heavy_loss_recovered () =
  let n = 3 in
  let workload =
    Workload.continuous ~n ~per_entity:10 ~interval:(Simtime.of_ms 6) ()
  in
  let _, outcome = run_workload ~n ~loss:0.25 ~seed:9 workload in
  assert_clean outcome

let test_buffer_overrun_recovered () =
  (* The MC network's organic loss: a small inbox and periodic processing
     stalls (every 20th PDU takes 35ms to handle, longer than the peers'
     BUF-staleness horizon, so they keep sending into the stalled inbox).
     The honest flow condition otherwise prevents overrun — which is itself
     the §4.2 design claim. *)
  let n = 3 in
  let workload =
    Workload.continuous ~n ~per_entity:40 ~interval:(Simtime.of_us 500) ()
  in
  let counter = ref 0 in
  let hiccup_service _ =
    incr counter;
    if !counter mod 20 = 0 then Simtime.of_ms 35 else Simtime.of_us 150
  in
  let config_f c =
    { c with Cluster.inbox_capacity = 8; service_time = hiccup_service }
  in
  let cluster, outcome = run_workload ~config_f ~n ~loss:0. ~seed:11 workload in
  assert_clean outcome;
  let overruns =
    Trace.count (Cluster.trace cluster) ~f:(function
      | Trace.Dropped { reason = Trace.Overrun; _ } -> true
      | _ -> false)
  in
  check bool_t "overruns happened" true (overruns > 0)

let test_figure6_deterministic_loss () =
  (* Figure 6: entity 2 misses one PDU from entity 0 and recovers it through
     RET + selective retransmission. *)
  let n = 3 in
  let config = Cluster.default_config ~n in
  let cluster = Cluster.create config in
  let dropped = ref false in
  Network.set_fault_hook (Cluster.network cluster) (fun ~dst ~src pdu ->
      match pdu with
      | Pdu.Data d
        when dst = 2 && src = 0 && d.seq = 1 && not (Pdu.is_confirmation d) ->
        (* Drop only the first copy; the retransmission passes. *)
        if !dropped then [ pdu ]
        else begin
          dropped := true;
          []
        end
      | Pdu.Data _ | Pdu.Ret _ | Pdu.Ctl _ -> [ pdu ]);
  Cluster.submit_at cluster ~at:Simtime.zero ~src:0 "g";
  Cluster.submit_at cluster ~at:(Simtime.of_ms 2) ~src:0 "p";
  Cluster.submit_at cluster ~at:(Simtime.of_ms 3) ~src:1 "other";
  Cluster.run cluster ~max_events;
  let oracle = check_cluster cluster in
  if not (Oracle.ok oracle) then
    Alcotest.failf "oracle: %a" Oracle.pp_report oracle;
  let metrics = Cluster.aggregate_metrics cluster in
  check bool_t "gap detected" true (metrics.Metrics.gaps_detected >= 1);
  check bool_t "ret sent" true (metrics.Metrics.ret_sent >= 1);
  check bool_t "retransmitted" true (metrics.Metrics.retransmitted >= 1)

(* --- Causal ordering under adversarial delay (Figure 2) --- *)

let test_figure2_causal_order () =
  (* Asymmetric delays: E0's question crawls to E2 while E1's answer races
     ahead. The CO service must still deliver question before answer. *)
  let n = 3 in
  let topology =
    Topology.of_matrix
      [| [| 0; 200; 8000 |]; [| 200; 0; 200 |]; [| 8000; 200; 0 |] |]
  in
  let config = { (Cluster.default_config ~n) with Cluster.topology } in
  let cluster = Cluster.create config in
  Cluster.submit_at cluster ~at:Simtime.zero ~src:0 "question";
  Cluster.submit_at cluster ~at:(Simtime.of_ms 1) ~src:1 "answer";
  Cluster.run cluster ~max_events;
  let oracle = check_cluster cluster in
  if not (Oracle.ok oracle) then
    Alcotest.failf "oracle: %a" Oracle.pp_report oracle;
  let keys = Cluster.delivery_keys cluster ~entity:2 in
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "question then answer at E2"
    [ (0, 1); (1, 1) ]
    keys

(* --- Transitive-chain race: the paper's Direct rule vs our correction --- *)

let transitive_race mode =
  (* E0's p is hidden from E2 and E3 until t = 60ms, and the relay x is
     hidden from E0 (so the chain's witness is never pre-acknowledged at
     the observer while q races ahead). E1 relays (x), E2 replies to the
     relay (q) without ever having seen p: really p ≺ x ≺ q, but Theorem
     4.1 sees p ∥ q. *)
  let n = 4 in
  let config =
    {
      (Cluster.default_config ~n) with
      Cluster.protocol = { Config.default with Config.causality_mode = mode };
    }
  in
  let cluster = Cluster.create config in
  let engine = Cluster.engine cluster in
  Network.set_fault_hook (Cluster.network cluster) (fun ~dst ~src pdu ->
      let early = Simtime.compare (Engine.now engine) (Simtime.of_ms 60) < 0 in
      match pdu with
      | Pdu.Data d when early && src = 0 && d.seq = 1 && (dst = 2 || dst = 3) ->
        []
      | Pdu.Data d when early && src = 1 && d.seq = 1 && dst = 0 -> []
      | Pdu.Data _ | Pdu.Ret _ | Pdu.Ctl _ -> [ pdu ]);
  Cluster.submit_at cluster ~at:Simtime.zero ~src:0 "p";
  Cluster.submit_at cluster ~at:(Simtime.of_ms 3) ~src:1 "x";
  Cluster.submit_at cluster ~at:(Simtime.of_ms 6) ~src:2 "q";
  Cluster.submit_at cluster ~at:(Simtime.of_ms 9) ~src:3 "noise";
  Cluster.run cluster ~max_events;
  check_cluster cluster

let test_transitive_mode_preserves_causality () =
  let oracle = transitive_race Config.Transitive in
  if not (Oracle.ok oracle) then
    Alcotest.failf "oracle: %a" Oracle.pp_report oracle

let test_direct_mode_still_delivers_everything () =
  (* The paper's rule never loses or duplicates anything; only ordering of
     seq-concurrent-but-really-ordered pairs is at risk — and in this race
     it does order q before its causal ancestor p (the Theorem 4.1 gap,
     DESIGN.md §7 / experiment E8). *)
  let oracle = transitive_race Config.Direct in
  check bool_t "information preserved" true
    (oracle.Oracle.missing = [] && oracle.Oracle.dups = []);
  check bool_t "local order preserved" true (oracle.Oracle.fifo = []);
  check bool_t "causal inversion exhibited" true (oracle.Oracle.causal <> [])

(* --- Latency shape: acknowledgment needs about two round trips --- *)

let test_ack_latency_at_least_2r () =
  let n = 4 in
  let r_ms = 2.0 in
  let topology = Topology.uniform ~n ~delay:(Simtime.of_ms_f r_ms) in
  let config = { (Cluster.default_config ~n) with Cluster.topology } in
  let cluster = Cluster.create config in
  Workload.apply cluster
    (Workload.continuous ~n ~per_entity:10 ~interval:(Simtime.of_ms 4) ());
  Cluster.run cluster ~max_events;
  let acks = Cluster.ack_latencies cluster in
  check bool_t "samples" true (acks <> []);
  let mean = Repro_util.Stats.mean acks in
  (* Pre-ack needs >= R, ack >= 2R (plus processing and deferral). *)
  check bool_t "ack >= 2R" true (mean >= 2. *. r_ms);
  let preacks = Cluster.preack_latencies cluster in
  check bool_t "preack >= R" true (Repro_util.Stats.mean preacks >= r_ms);
  check bool_t "preack <= ack" true
    (Repro_util.Stats.mean preacks <= mean)

(* --- Traffic shape: deferred vs immediate confirmation (E2 backing) --- *)

let test_deferred_beats_immediate () =
  let n = 5 in
  let workload =
    Workload.continuous ~n ~per_entity:10 ~interval:(Simtime.of_ms 5) ()
  in
  let run defer =
    let config_f c =
      { c with Cluster.protocol = { Config.default with Config.defer } }
    in
    let _, outcome = run_workload ~config_f ~n ~loss:0. ~seed:1 workload in
    assert_clean outcome;
    Experiment.pdus_per_message outcome
  in
  let deferred = run (Config.Deferred { timeout = Simtime.of_ms 5 }) in
  let immediate = run Config.Immediate in
  check bool_t "immediate costs more" true (immediate > deferred)

(* --- Window ablation --- *)

let test_small_window_blocks () =
  let n = 3 in
  let workload =
    Workload.continuous ~n ~per_entity:20 ~interval:(Simtime.of_ms 1) ()
  in
  let run window =
    let config_f c =
      { c with Cluster.protocol = { Config.default with Config.window } }
    in
    let _, outcome = run_workload ~config_f ~n ~loss:0. ~seed:1 workload in
    assert_clean outcome;
    outcome
  in
  let small = run 1 in
  let large = run 16 in
  check bool_t "small window queues requests" true
    (small.Experiment.metrics.Metrics.flow_blocked
     > large.Experiment.metrics.Metrics.flow_blocked)

(* --- Randomized end-to-end property --- *)

let prop_random_runs_satisfy_co =
  QCheck.Test.make ~name:"random runs satisfy the CO service" ~count:15
    QCheck.(triple (int_range 2 5) (int_bound 1000) (int_bound 12))
    (fun (n, seed, loss_pct) ->
      let rng = Repro_util.Prng.create ~seed in
      let workload =
        Workload.poisson ~n ~rng ~mean_interval_ms:4.0
          ~duration:(Simtime.of_ms 40) ()
      in
      if workload = [] then true
      else begin
        let loss = float_of_int loss_pct /. 100. in
        let _, outcome = run_workload ~n ~loss ~seed workload in
        Oracle.ok outcome.Experiment.oracle
        && outcome.Experiment.events < max_events
      end)

let prop_random_topologies_satisfy_co =
  QCheck.Test.make ~name:"random asymmetric topologies satisfy the CO service"
    ~count:12
    QCheck.(pair (int_range 3 5) (int_bound 1000))
    (fun (n, seed) ->
      let rng = Repro_util.Prng.create ~seed in
      let topology =
        Topology.random ~n ~rng ~lo:(Simtime.of_us 200) ~hi:(Simtime.of_ms 6)
      in
      let config =
        { (Cluster.default_config ~n) with Cluster.topology; loss_prob = 0.05; seed }
      in
      let workload =
        Workload.continuous ~n ~per_entity:8 ~interval:(Simtime.of_ms 4) ()
      in
      let _, outcome = Experiment.run ~max_events ~config ~workload () in
      Oracle.ok outcome.Experiment.oracle && outcome.Experiment.events < max_events)

let prop_determinism =
  QCheck.Test.make ~name:"same seed, same outcome" ~count:5
    QCheck.(int_bound 1000)
    (fun seed ->
      let run () =
        let n = 3 in
        let workload =
          Workload.continuous ~n ~per_entity:8 ~interval:(Simtime.of_ms 2) ()
        in
        let cluster, outcome = run_workload ~n ~loss:0.1 ~seed workload in
        ( outcome.Experiment.delivered_total,
          outcome.Experiment.events,
          Cluster.delivery_keys cluster ~entity:0 )
      in
      run () = run ())

let qsuite tests = Qutil.qsuite ~long:false tests

let () =
  Alcotest.run "integration"
    [
      ( "clean runs",
        [
          Alcotest.test_case "n=3" `Quick (test_clean_run 3);
          Alcotest.test_case "n=5" `Quick (test_clean_run 5);
          Alcotest.test_case "n=8" `Slow (test_clean_run 8);
          Alcotest.test_case "n=2" `Quick test_two_entities;
          Alcotest.test_case "single talker" `Quick test_single_talker;
        ] );
      ( "loss recovery",
        [
          Alcotest.test_case "iid loss" `Quick test_iid_loss_recovered;
          Alcotest.test_case "heavy loss" `Quick test_heavy_loss_recovered;
          Alcotest.test_case "buffer overrun" `Quick test_buffer_overrun_recovered;
          Alcotest.test_case "figure 6" `Quick test_figure6_deterministic_loss;
        ] );
      ( "causal order",
        [
          Alcotest.test_case "figure 2" `Quick test_figure2_causal_order;
          Alcotest.test_case "transitive race fixed" `Quick
            test_transitive_mode_preserves_causality;
          Alcotest.test_case "direct keeps info" `Quick
            test_direct_mode_still_delivers_everything;
        ] );
      ( "latency shape",
        [ Alcotest.test_case "ack >= 2R" `Quick test_ack_latency_at_least_2r ] );
      ( "traffic & flow",
        [
          Alcotest.test_case "deferred beats immediate" `Quick
            test_deferred_beats_immediate;
          Alcotest.test_case "window ablation" `Quick test_small_window_blocks;
        ] );
      ( "properties",
        qsuite
          [
            prop_random_runs_satisfy_co;
            prop_random_topologies_satisfy_co;
            prop_determinism;
          ] );
    ]
