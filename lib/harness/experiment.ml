module Cluster = Repro_core.Cluster
module Network = Repro_sim.Network
module Engine = Repro_sim.Engine
module Stats = Repro_util.Stats

type outcome = {
  n : int;
  submitted : int;
  delivered_total : int;
  oracle : Oracle.report;
  tap_ms : Stats.summary;
  preack_ms : Stats.summary;
  ack_ms : Stats.summary;
  metrics : Repro_core.Metrics.t;
  transmissions : int;
  losses : int;
  sim_end_ms : float;
  events : int;
  ladder : Repro_obs.Trace_ctx.ladder option;
  attribution : Repro_obs.Critpath.summary option;
}

let run ?(max_events = 20_000_000) ?registry ?on_cluster ~config ~workload ()
    =
  let config =
    match registry with
    | None -> config
    | Some _ -> { config with Cluster.instrument = registry }
  in
  let cluster = Cluster.create config in
  (match on_cluster with None -> () | Some f -> f cluster);
  (* Paranoid runs get the full external invariant catalog asserted after
     every protocol step, not just the entity's built-in self checks. *)
  if config.Cluster.protocol.Repro_core.Config.check_level = Repro_core.Config.Paranoid
  then Repro_check.Runtime.install_cluster cluster;
  Workload.apply cluster workload;
  Cluster.run cluster ~max_events;
  Cluster.sync_metrics cluster;
  let oracle =
    Oracle.check_recording (Cluster.recorded cluster)
      ~entities:(List.init (Cluster.size cluster) Fun.id)
      ~expected_tags:(Cluster.data_tags cluster)
  in
  let outcome =
    {
      n = Cluster.size cluster;
      submitted = Workload.total workload;
      delivered_total =
        Array.fold_left ( + ) 0 oracle.Oracle.delivered_per_entity;
      oracle;
      tap_ms = Stats.summarize (Cluster.delivery_latencies cluster);
      preack_ms = Stats.summarize (Cluster.preack_latencies cluster);
      ack_ms = Stats.summarize (Cluster.ack_latencies cluster);
      metrics = Cluster.aggregate_metrics cluster;
      transmissions = Network.transmissions (Cluster.network cluster);
      losses = Network.losses (Cluster.network cluster);
      sim_end_ms = Repro_sim.Simtime.to_ms (Engine.now (Cluster.engine cluster));
      events = Engine.processed (Cluster.engine cluster);
      ladder = Option.bind (Cluster.recorder cluster) Repro_obs.Trace_ctx.ladder;
      attribution =
        (match Cluster.recorder cluster with
        | Some r when config.Cluster.protocol.Repro_core.Config.tracing ->
          (match Cluster.registry cluster with
          | Some reg ->
            Repro_obs.Critpath.to_registry reg (Repro_obs.Trace_ctx.spans r)
          | None -> ());
          Some (Repro_obs.Critpath.of_recorder r)
        | Some _ | None -> None);
    }
  in
  (cluster, outcome)

let shortfall outcome = (outcome.submitted * outcome.n) - outcome.delivered_total

let pdus_per_message outcome =
  if outcome.submitted = 0 then 0.
  else
    float_of_int (Repro_core.Metrics.total_pdus_sent outcome.metrics)
    /. float_of_int outcome.submitted

let goodput outcome =
  if outcome.sim_end_ms <= 0. then 0.
  else float_of_int outcome.delivered_total /. (outcome.sim_end_ms /. 1000.)
