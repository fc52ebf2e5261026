(* cosim — command-line driver for the CO-protocol simulator.

   Examples:
     cosim run -n 4 --per-entity 20 --loss 0.05
     cosim run -n 5 --workload poisson --duration-ms 100 --trace
     cosim compare -n 4 --loss 0.1        (CO vs FIFO vs TO vs CBCAST)
     cosim examples                       (list the example scenarios) *)

module Cluster = Repro_core.Cluster
module Config = Repro_core.Config
module Metrics = Repro_core.Metrics
module Workload = Repro_harness.Workload
module Oracle = Repro_harness.Oracle
module Experiment = Repro_harness.Experiment
module Simtime = Repro_sim.Simtime
module Trace = Repro_sim.Trace
module Network = Repro_sim.Network
module Topology = Repro_sim.Topology
module Engine = Repro_sim.Engine
module Stats = Repro_util.Stats
module Table = Repro_util.Table
module Registry = Repro_obs.Registry
module Exporter = Repro_obs.Exporter
module Plan = Repro_fault.Plan
module Scenario = Repro_scenario.Scenario
module Runner = Repro_scenario.Runner
open Cmdliner

let make_workload ~kind ~n ~per_entity ~interval_ms ~duration_ms ~seed =
  match kind with
  | "continuous" ->
    Workload.continuous ~n ~per_entity ~interval:(Simtime.of_ms interval_ms) ()
  | "poisson" ->
    let rng = Repro_util.Prng.create ~seed in
    Workload.poisson ~n ~rng ~mean_interval_ms:(float_of_int interval_ms)
      ~duration:(Simtime.of_ms duration_ms) ()
  | "bursty" ->
    let rng = Repro_util.Prng.create ~seed in
    Workload.bursty ~n ~rng ~burst_size:per_entity
      ~burst_gap:(Simtime.of_ms (interval_ms * 4))
      ~bursts:n ()
  | "single" ->
    Workload.single_source ~src:0 ~n ~count:per_entity
      ~interval:(Simtime.of_ms interval_ms) ()
  | other -> invalid_arg (Printf.sprintf "unknown workload %S" other)

let pp_summary label (s : Stats.summary) =
  if s.Stats.count > 0 then
    Printf.printf "  %-16s mean %.3fms  p50 %.3fms  p99 %.3fms  (%d samples)\n"
      label s.Stats.mean s.Stats.p50 s.Stats.p99 s.Stats.count

(* Periodic in-run telemetry: a tick on the sim engine that snapshots the
   aggregate counters into a table row. The tick re-arms itself only while
   the workload is still submitting or the cluster is not yet quiescent —
   otherwise it would keep the event queue nonempty forever. *)
let arm_snapshots ~interval_ms ~workload ~table ~series cluster =
  let engine = Cluster.engine cluster in
  let period = Simtime.of_ms interval_ms in
  let workload_end =
    List.fold_left (fun acc e -> max acc e.Workload.at) 0 workload
  in
  let n = Cluster.size cluster in
  let quiescent () =
    List.for_all
      (fun i -> Repro_core.Entity.backlog (Cluster.entity cluster i) = 0)
      (List.init n Fun.id)
  in
  let rec tick () =
    Cluster.sync_metrics cluster;
    let m = Cluster.aggregate_metrics cluster in
    let open_spans =
      match Cluster.recorder cluster with
      | Some r -> Repro_obs.Trace_ctx.open_spans r
      | None -> 0
    in
    Table.add_row table
      [
        Table.fmt_float ~digits:1 (Simtime.to_ms (Engine.now engine));
        Table.fmt_int m.Metrics.data_sent;
        Table.fmt_int m.Metrics.accepted;
        Table.fmt_int m.Metrics.delivered;
        Table.fmt_int m.Metrics.retransmitted;
        Table.fmt_int open_spans;
      ];
    series := float_of_int m.Metrics.delivered :: !series;
    if Engine.now engine < workload_end || not (quiescent ()) then
      Engine.schedule_after engine ~delay:period tick
  in
  Engine.schedule_after engine ~delay:period tick

(* A .json --trace-out target means Perfetto trace-event JSON (built from
   the causal-trace recorder); anything else is the legacy event trace for
   offline linting. *)
let perfetto_target = function
  | Some file -> Filename.check_suffix file ".json"
  | None -> false

let run_cmd n per_entity interval_ms duration_ms loss seed window defer_ms
    workload_kind mode show_trace trace_out tracing paranoid quiet metrics_out
    metrics_interval_ms =
  let tracing = tracing || perfetto_target trace_out in
  let protocol =
    {
      Config.default with
      Config.window;
      defer = Config.Deferred { timeout = Simtime.of_ms defer_ms };
      causality_mode = (if mode = "direct" then Config.Direct else Config.Transitive);
      check_level = (if paranoid then Config.Paranoid else Config.Off);
      tracing;
    }
  in
  let config =
    { (Cluster.default_config ~n) with Cluster.protocol; loss_prob = loss; seed }
  in
  let workload =
    make_workload ~kind:workload_kind ~n ~per_entity ~interval_ms ~duration_ms
      ~seed
  in
  let registry =
    if metrics_out <> None || metrics_interval_ms > 0 then
      Some (Registry.global ())
    else None
  in
  let snapshot_table =
    Table.create
      ~title:
        (Printf.sprintf "telemetry snapshots (every %dms virtual)"
           metrics_interval_ms)
      ~columns:
        [
          ("t ms", Table.Right);
          ("data sent", Table.Right);
          ("accepted", Table.Right);
          ("delivered", Table.Right);
          ("rexmit", Table.Right);
          ("open spans", Table.Right);
        ]
  in
  let delivered_series = ref [] in
  let on_cluster cluster =
    if registry <> None && metrics_interval_ms > 0 then
      arm_snapshots ~interval_ms:metrics_interval_ms ~workload
        ~table:snapshot_table ~series:delivered_series cluster
  in
  let cluster, o = Experiment.run ?registry ~on_cluster ~config ~workload () in
  if show_trace then
    Format.printf "%a@." Trace.dump (Cluster.trace cluster);
  (match trace_out with
  | Some file when perfetto_target trace_out ->
    let spans =
      match Cluster.recorder cluster with
      | Some r -> Repro_obs.Trace_ctx.spans r
      | None -> []
    in
    let oc = open_out file in
    output_string oc (Repro_obs.Critpath.to_perfetto spans);
    close_out oc;
    Printf.printf
      "Perfetto trace written to %s (%d delivery spans; open in \
       ui.perfetto.dev)\n"
      file (List.length spans)
  | Some file ->
    Trace.save (Cluster.trace cluster) ~file;
    Printf.printf "trace written to %s (%d events)\n" file
      (Trace.length (Cluster.trace cluster))
  | None -> ());
  Printf.printf "cluster: n=%d  workload=%s (%d messages)  loss=%.1f%%  seed=%d\n"
    n workload_kind o.Experiment.submitted (loss *. 100.) seed;
  Printf.printf "virtual time to quiescence: %.3fms (%d events)\n"
    o.Experiment.sim_end_ms o.Experiment.events;
  Printf.printf "delivered: %d (expected %d)\n" o.Experiment.delivered_total
    (o.Experiment.submitted * n);
  pp_summary "Tap (delivery)" o.Experiment.tap_ms;
  pp_summary "pre-ack" o.Experiment.preack_ms;
  pp_summary "ack" o.Experiment.ack_ms;
  Printf.printf "traffic: %d copies on the wire, %d lost\n"
    o.Experiment.transmissions o.Experiment.losses;
  if metrics_interval_ms > 0 && !delivered_series <> [] then begin
    Table.print snapshot_table;
    (* Deliveries per interval, oldest tick first. *)
    let per_tick =
      let totals = List.rev !delivered_series in
      let _, deltas =
        List.fold_left
          (fun (prev, acc) v -> (v, (v -. prev) :: acc))
          (0., []) totals
      in
      List.rev deltas
    in
    Printf.printf "deliveries/interval: %s\n\n"
      (Repro_util.Chart.sparkline per_tick)
  end;
  (match o.Experiment.ladder with
  | Some ladder when not quiet -> Table.print (Repro_harness.Report.ladder_table ladder)
  | Some _ | None -> ());
  (match o.Experiment.attribution with
  | Some s when not quiet ->
    Table.print (Repro_harness.Report.attribution_table s)
  | Some _ | None -> ());
  (match (metrics_out, registry) with
  | Some file, Some reg ->
    Exporter.write reg ~file;
    Printf.printf "metrics written to %s\n" file
  | _ -> ());
  if not quiet then begin
    Format.printf "metrics: %a@." Metrics.pp o.Experiment.metrics;
    let stats =
      Repro_harness.Trace_stats.per_entity (Cluster.trace cluster) ~n
    in
    Array.iter
      (fun p -> Format.printf "  %a@." Repro_harness.Trace_stats.pp_per_entity p)
      stats
  end;
  Printf.printf "oracle: %s\n"
    (if Oracle.ok o.Experiment.oracle then "CO service OK"
     else Format.asprintf "VIOLATIONS %a" Oracle.pp_report o.Experiment.oracle);
  let shortfall = Experiment.shortfall o in
  Printf.printf "shortfall: %d\n" shortfall;
  if Oracle.ok o.Experiment.oracle && shortfall = 0 then 0 else 1

let compare_cmd n per_entity interval_ms loss seed =
  let workload =
    make_workload ~kind:"continuous" ~n ~per_entity ~interval_ms ~duration_ms:0
      ~seed
  in
  (* CO *)
  let config = { (Cluster.default_config ~n) with Cluster.loss_prob = loss; seed } in
  let _, o = Experiment.run ~config ~workload () in
  Printf.printf "%-8s delivered %4d/%d  tap %.3fms  wire %5d  rexmit %d\n" "CO"
    o.Experiment.delivered_total (o.Experiment.submitted * n)
    o.Experiment.tap_ms.Stats.mean o.Experiment.transmissions
    o.Experiment.metrics.Metrics.retransmitted;
  (* Baselines over equivalent media, each fed the same workload. *)
  let run_baseline create broadcast =
    let engine = Engine.create () in
    let topology = Topology.uniform ~n ~delay:(Simtime.of_ms 1) in
    let cfg =
      {
        (Network.default_config topology) with
        Network.inbox_capacity = 256;
        service_time = (fun _ -> Simtime.of_us 100);
        loss_prob = loss;
        seed;
      }
    in
    let p = create engine (Network.create engine cfg) in
    let tag = ref 0 in
    Workload.apply_with
      ~submit:(fun ~at ~src payload ->
        incr tag;
        let t = !tag in
        Engine.schedule engine ~at (fun () -> broadcast p ~src ~tag:t payload))
      workload;
    Engine.run engine ~max_events:20_000_000;
    p
  in
  let sum f = List.fold_left (fun acc e -> acc + f ~entity:e) 0 (List.init n Fun.id) in
  let expected = List.length workload * n in
  let retry = Simtime.of_ms 10 in
  let pb =
    run_baseline
      (fun engine net -> Repro_baselines.Pobcast.create engine net ~n ~retry)
      Repro_baselines.Pobcast.broadcast
  in
  Printf.printf "%-8s delivered %4d/%d  rexmit %d (FIFO only: may violate causality)\n"
    "PO"
    (sum (fun ~entity ->
         List.length (Repro_baselines.Pobcast.delivered_tags pb ~entity)))
    expected
    (Repro_baselines.Pobcast.retransmissions pb);
  let tb =
    run_baseline
      (fun engine net -> Repro_baselines.Tobcast.create engine net ~n ~retry)
      Repro_baselines.Tobcast.broadcast
  in
  Printf.printf
    "%-8s delivered %4d/%d  rexmit %d  protocol_errors %d (go-back-N)\n" "TO"
    (sum (fun ~entity ->
         List.length (Repro_baselines.Tobcast.delivered_tags tb ~entity)))
    expected
    (Repro_baselines.Tobcast.retransmissions tb)
    (Repro_baselines.Tobcast.protocol_errors tb);
  let cb =
    run_baseline
      (fun engine net -> Repro_baselines.Cbcast.create engine net ~n)
      Repro_baselines.Cbcast.broadcast
  in
  Printf.printf "%-8s delivered %4d/%d  stalled %d (no loss detection)\n" "CBCAST"
    (Repro_baselines.Cbcast.delivered_total cb)
    expected
    (sum (Repro_baselines.Cbcast.stalled cb));
  0

(* The plans or scenarios a command runs: [all], or one found by name
   (an unknown name exits 2). *)
let select ~all ~find ~what ~cmd name =
  match name with
  | "all" -> all
  | name -> (
    match find name with
    | Some x -> [ x ]
    | None ->
      prerr_endline
        (Printf.sprintf "unknown %s %s (cosim %s --list shows them)" what name
           cmd);
      exit 2)

let list_named ~width header names =
  print_endline header;
  List.iter (fun (name, what) -> Printf.printf "  %-*s %s\n" width name what) names

(* Write the registry if asked, then exit on the verdicts. *)
let conclude registry metrics_out oks =
  (match metrics_out with
  | Some file ->
    Exporter.write registry ~file;
    Printf.printf "metrics written to %s\n" file
  | None -> ());
  if List.for_all Fun.id oks then 0 else 1

let chaos_cmd plan_name list_plans churn n seed per_entity wire tracing
    metrics_out =
  let named = List.map (fun p -> (p.Plan.name, p.Plan.description)) in
  if list_plans then begin
    list_named ~width:16 "built-in fault plans (cosim chaos <name>):"
      (named Plan.all);
    list_named ~width:16 "membership churn plans (cosim chaos <name>):"
      (named Plan.churn_all);
    0
  end
  else begin
    let plans =
      select ~what:"plan" ~cmd:"chaos" ~find:Plan.find plan_name
        ~all:(if churn then Plan.churn_all else Plan.all)
    in
    let wire =
      match wire with
      | "default" -> Config.default.Config.wire
      | "v1" -> Config.V1
      | "v2" -> Config.V2
      | other ->
        prerr_endline ("unknown wire version " ^ other ^ " (v1 or v2)");
        exit 2
    in
    let registry = Registry.global () in
    conclude registry metrics_out
      (List.map
         (fun plan ->
           (* Churn plans script node ids up to 4. *)
           let n = if Plan.churning plan then max n 5 else n in
           let compiled = Scenario.of_plan ~n ~per_entity plan in
           let r =
             Runner.run ~wire ~tracing ~registry ~compiled ~seed Runner.Co
           in
           Format.printf "chaos %s (seed %d)@.%a@.@." plan.Plan.name seed
             Runner.pp r;
           Runner.ok r)
         plans)
  end

let scenario_cmd name list_scenarios seed protocol out metrics_out =
  if list_scenarios then begin
    list_named ~width:14 "named scenarios (cosim scenario --name <name>):"
      (List.map
         (fun s -> (s.Scenario.name, s.Scenario.description))
         Scenario.builtins);
    0
  end
  else begin
    let scenarios =
      select ~what:"scenario" ~cmd:"scenario" ~find:Scenario.find
        ~all:Scenario.builtins name
    in
    let protocols =
      match protocol with
      | "all" -> Runner.all_protocols
      | p -> (
        match Runner.protocol_of_name p with
        | Some p -> [ p ]
        | None ->
          prerr_endline ("unknown protocol " ^ p ^ " (co, cbcast, tobcast, all)");
          exit 2)
    in
    let registry = Registry.global () in
    conclude registry metrics_out
      (List.map
         (fun sc ->
           let compiled = Scenario.compile ~seed sc in
           let results =
             List.map (fun p -> Runner.run ~compiled ~seed p) protocols
           in
           Repro_harness.Report.header
             (Printf.sprintf "scenario %s (seed %d)" sc.Scenario.name seed);
           Repro_harness.Report.para sc.Scenario.description;
           let grid = Runner.deadline_grid compiled results in
           let rescaled = List.map (Runner.rescale ~deadlines_ms:grid) results in
           Table.print
             (Repro_harness.Report.pac_table
                (List.map (fun r -> r.Runner.curve) rescaled));
           List.iter (Format.printf "%a@." Runner.pp) rescaled;
           Runner.to_registry registry ~compiled results;
           let file =
             match out with
             | Some f -> f
             | None -> Printf.sprintf "BENCH_pac_%s.json" sc.Scenario.name
           in
           let oc = open_out file in
           output_string oc (Runner.artifact_json ~compiled ~seed results);
           close_out oc;
           Printf.printf "PAC curves written to %s\n" file;
           List.for_all Runner.ok results)
         scenarios)
  end

let examples_cmd () =
  print_endline "runnable examples (dune exec examples/<name>.exe):";
  print_endline "  quickstart        - 3-entity causal broadcast in a page of code";
  print_endline "  cscw_whiteboard   - collaborative editing, causal dependencies";
  print_endline "  bank_replication  - replicated ledger, no overdrafts";
  print_endline "  lossy_recovery    - gap detection + selective retransmission";
  0

(* Cmdliner plumbing *)

let n_arg =
  Arg.(value & opt int 4 & info [ "n"; "entities" ] ~doc:"Cluster size.")

let per_entity_arg =
  Arg.(value & opt int 20 & info [ "per-entity" ] ~doc:"Messages per entity.")

let interval_arg =
  Arg.(value & opt int 5 & info [ "interval-ms" ] ~doc:"Submission interval (ms).")

let duration_arg =
  Arg.(value & opt int 100 & info [ "duration-ms" ] ~doc:"Poisson workload duration (ms).")

let loss_arg =
  Arg.(value & opt float 0. & info [ "loss" ] ~doc:"iid loss probability (0..1).")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.")

let window_arg = Arg.(value & opt int 8 & info [ "window" ] ~doc:"Flow window W.")

let defer_arg =
  Arg.(value & opt int 5 & info [ "defer-ms" ] ~doc:"Deferred confirmation timeout (ms).")

let workload_arg =
  Arg.(
    value
    & opt string "continuous"
    & info [ "workload" ] ~doc:"continuous | poisson | bursty | single.")

let mode_arg =
  Arg.(
    value
    & opt string "transitive"
    & info [ "causality" ] ~doc:"transitive (default) | direct (paper's Theorem 4.1).")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Dump the full network trace.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ]
        ~doc:
          "Write a trace to $(docv). A $(b,.json) target produces \
           Chrome/Perfetto trace-event JSON from the causal-trace recorder \
           (implies $(b,--tracing); open in ui.perfetto.dev); any other \
           target gets the raw event trace for offline linting (colint \
           trace).")

let tracing_arg =
  Arg.(
    value & flag
    & info [ "tracing" ]
        ~doc:
          "Record per-delivery causal traces (trace contexts on the v2 \
           wire, delay attribution in the report). Never changes protocol \
           behavior.")

let paranoid_arg =
  Arg.(
    value & flag
    & info [ "paranoid" ]
        ~doc:
          "Run with the full invariant catalog asserted after every protocol \
           step (slow; aborts on the first violation).")

let quiet_arg = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Less output.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ]
        ~doc:
          "Write the metric registry to $(docv) after the run: Prometheus \
           text format, or JSONL when the extension is .json/.jsonl. \
           Enables receipt-ladder instrumentation.")

let metrics_interval_arg =
  Arg.(
    value & opt int 0
    & info [ "metrics-interval" ]
        ~doc:
          "Snapshot the counters every $(docv) virtual milliseconds and \
           print the series as a table after the run (0 = off). Enables \
           instrumentation like $(b,--metrics-out).")

let run_term =
  Term.(
    const run_cmd $ n_arg $ per_entity_arg $ interval_arg $ duration_arg
    $ loss_arg $ seed_arg $ window_arg $ defer_arg $ workload_arg $ mode_arg
    $ trace_arg $ trace_out_arg $ tracing_arg $ paranoid_arg $ quiet_arg
    $ metrics_out_arg $ metrics_interval_arg)

let compare_term =
  Term.(const compare_cmd $ n_arg $ per_entity_arg $ interval_arg $ loss_arg $ seed_arg)

let plan_arg =
  Arg.(
    value & pos 0 string "all"
    & info [] ~docv:"PLAN"
        ~doc:"Fault plan to run, or $(b,all) for every built-in plan.")

let list_plans_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List the built-in fault plans.")

let chaos_per_entity_arg =
  Arg.(value & opt int 6 & info [ "per-entity" ] ~doc:"Messages per entity.")

let chaos_wire_arg =
  Arg.(
    value & opt string "default"
    & info [ "wire" ] ~docv:"VERSION"
        ~doc:
          "Codec the cluster frames with: $(b,v1) or $(b,v2). Two runs \
           differing only here must be observationally identical.")

let chaos_churn_arg =
  Arg.(
    value & flag
    & info [ "churn" ]
        ~doc:
          "Make $(b,all) mean every churn plan. A churning plan (scripted \
           $(b,Join)/$(b,Leave), or a crash never restarted) always runs CO \
           on the dynamic-membership group: membership events become view \
           changes and crashes feed the suspicion watchdog.")

let chaos_term =
  Term.(
    const chaos_cmd $ plan_arg $ list_plans_arg $ chaos_churn_arg $ n_arg
    $ seed_arg $ chaos_per_entity_arg $ chaos_wire_arg $ tracing_arg
    $ metrics_out_arg)

let examples_term = Term.(const examples_cmd $ const ())

let scenario_name_arg =
  Arg.(
    value & opt string "all"
    & info [ "name" ] ~docv:"SCENARIO"
        ~doc:"Named scenario to run, or $(b,all) for every built-in one.")

let list_scenarios_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List the named scenarios.")

let scenario_protocol_arg =
  Arg.(
    value & opt string "all"
    & info [ "protocol" ] ~docv:"PROTO"
        ~doc:"$(b,co), $(b,cbcast), $(b,tobcast) or $(b,all).")

let scenario_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Artifact path (default $(b,BENCH_pac_<scenario>.json); only \
           sensible with a single --name).")

let scenario_term =
  Term.(
    const scenario_cmd $ scenario_name_arg $ list_scenarios_arg $ seed_arg
    $ scenario_protocol_arg $ scenario_out_arg $ metrics_out_arg)

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Run a CO cluster over a workload and report.") run_term;
    Cmd.v
      (Cmd.info "compare" ~doc:"Run CO and the three baselines on one workload.")
      compare_term;
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Run a seeded fault plan (crash-restart, partition, loss burst, \
            corruption, ...) against a cluster and check safety and \
            convergence after heal.")
      chaos_term;
    Cmd.v
      (Cmd.info "scenario"
         ~doc:
           "Compile a seeded scenario (workload + topology + faults + \
            churn), run it under CO and the baselines, and write PAC \
            delivery-probability curves to BENCH_pac_<name>.json.")
      scenario_term;
    Cmd.v (Cmd.info "examples" ~doc:"List example scenarios.") examples_term;
  ]

let () =
  let info =
    Cmd.info "cosim" ~version:"1.0"
      ~doc:"Causally Ordering Broadcast protocol simulator (ICDCS 1994)"
  in
  exit (Cmd.eval' (Cmd.group info ~default:run_term cmds))
