module Cluster = Repro_core.Cluster
module Entity = Repro_core.Entity
module Engine = Repro_sim.Engine
module Network = Repro_sim.Network
module Simtime = Repro_sim.Simtime
module Oracle = Repro_harness.Oracle
module Trace_lint = Repro_check.Trace_lint
module Causality = Repro_clock.Causality
module Registry = Repro_obs.Registry

type outcome = {
  plan : string;
  seed : int;
  wire : Repro_core.Config.wire_version;
  live : int list;
  expected : int;
  delivery_orders : (int * int) list array;
  report : Oracle.report;
  converged : bool;
  quiescent : bool;
  ret_retries : int;
  backoff_samples : int;
  recoveries : int;
  lint_issues : Trace_lint.issue list;
  stats : Injector.stats;
  delay_attribution : Repro_obs.Critpath.summary option;
  spans_abandoned : int;
  ok : bool;
}

(* The injector's stream is salted away from the seed the cluster's own
   medium and entities draw from. *)
let injector_seed seed = seed lxor 0xfa017

let schedule_workload cluster ~n ~per_entity =
  (* Deterministic spread over the first ~50ms, staggered per entity so
     no two submissions share an instant. Submissions landing while the
     source is crashed are skipped by the cluster. *)
  for k = 0 to per_entity - 1 do
    for src = 0 to n - 1 do
      let at = Simtime.(of_ms 2 + of_ms (8 * k) + of_us ((137 * src) + 11)) in
      Cluster.submit_at cluster ~at ~src (Printf.sprintf "m%d.%d" src k)
    done
  done

let schedule_plan cluster injector (plan : Plan.t) =
  let engine = Cluster.engine cluster in
  List.iter
    (fun { Plan.at; action } ->
      Engine.schedule engine ~at (fun () ->
          match action with
          | Plan.Crash e ->
            if not (Cluster.is_down cluster e) then Cluster.crash cluster ~id:e;
            Injector.apply injector action
          | Plan.Restart e ->
            (* Lift the medium fault first: the restarted entity's
               recovery CTL must reach its peers. *)
            Injector.apply injector action;
            if Cluster.is_down cluster e then Cluster.restart cluster ~id:e
          | _ -> Injector.apply injector action))
    plan.events

let backoff_samples reg =
  List.fold_left
    (fun acc (s : Registry.sample) ->
      match (s.family, s.value) with
      | "co_ret_backoff_us", Registry.Sample_histogram snap ->
        acc + snap.Repro_obs.Histogram.count
      | _ -> acc)
    0 (Registry.samples reg)

let sorted_tags keys ~tag_of =
  List.sort_uniq Int.compare (List.map tag_of keys)

let run ?(n = 4) ?(seed = 1) ?(per_entity = 6)
    ?(wire = Repro_core.Config.default.Repro_core.Config.wire)
    ?(tracing = Repro_core.Config.default.Repro_core.Config.tracing) ?registry
    (plan : Plan.t) =
  Plan.validate ~n plan;
  if Plan.churning plan then
    invalid_arg
      (Printf.sprintf
         "Chaos.run: plan %s scripts membership churn; use Chaos.run_churn"
         plan.Plan.name);
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let cfg = Cluster.default_config ~n in
  let protocol =
    { cfg.Cluster.protocol with Repro_core.Config.wire; tracing }
  in
  let cfg = { cfg with seed; instrument = Some reg; protocol } in
  let cluster = Cluster.create cfg in
  let injector = Injector.create ~wire ~n ~seed:(injector_seed seed) () in
  Network.set_fault_hook (Cluster.network cluster) (Injector.on_pdu injector);
  Network.set_service_hook (Cluster.network cluster)
    (Injector.service_delay injector);
  schedule_workload cluster ~n ~per_entity;
  schedule_plan cluster injector plan;
  let dog =
    Watchdog.install ~cluster
      ~period:(4 * cfg.protocol.Repro_core.Config.ret_retry_timeout)
      ~until:plan.horizon ()
  in
  Cluster.run ~until:plan.horizon cluster;
  (* Faults are healed by now; let the run drain to quiescence. The event
     bound is a livelock safety net, not an expected stop. *)
  Cluster.run ~max_events:2_000_000 cluster;
  Cluster.sync_metrics cluster;
  let live = Cluster.live_ids cluster in
  let tag_of (src, seq) = Cluster.tag_of_key ~src ~seq in
  let deliveries =
    Array.of_list
      (List.map
         (fun id ->
           List.map tag_of (Cluster.delivery_keys cluster ~entity:id))
         live)
  in
  let cz = Cluster.causality cluster in
  let precedes p q =
    try Causality.msg_precedes cz p q with Not_found -> false
  in
  let expected_tags = Cluster.data_tags cluster in
  let report =
    Oracle.check_deliveries ~expected_tags ~precedes
      ~key_of:Cluster.key_of_tag ~deliveries
  in
  let converged =
    match live with
    | [] -> false
    | first :: rest ->
      let reference =
        sorted_tags (Cluster.delivery_keys cluster ~entity:first) ~tag_of
      in
      List.for_all
        (fun id ->
          sorted_tags (Cluster.delivery_keys cluster ~entity:id) ~tag_of
          = reference)
        rest
  in
  let quiescent =
    List.for_all
      (fun id ->
        let e = Cluster.entity cluster id in
        Entity.undelivered_data e = 0
        && Entity.pending_count e = 0
        && Entity.queued_requests e = 0)
      live
  in
  let lint_issues = Trace_lint.lint_trace ~n (Cluster.trace cluster) in
  let ret_retries = (Cluster.aggregate_metrics cluster).ret_retries in
  let recorder = Cluster.recorder cluster in
  let delay_attribution =
    match recorder with
    | Some r when tracing ->
      (* Aggregate into the registry too, so chaos telemetry exposes the
         same co_delay_attrib_us families a production scrape would. *)
      Repro_obs.Critpath.to_registry reg (Repro_obs.Trace_ctx.spans r);
      Some (Repro_obs.Critpath.of_recorder r)
    | Some _ | None -> None
  in
  let spans_abandoned =
    match recorder with None -> 0 | Some r -> Repro_obs.Trace_ctx.abandoned r
  in
  {
    plan = plan.name;
    seed;
    wire;
    live;
    expected = List.length expected_tags;
    delivery_orders =
      Array.of_list
        (List.map (fun id -> Cluster.delivery_keys cluster ~entity:id) live);
    report;
    converged;
    quiescent;
    ret_retries;
    backoff_samples = backoff_samples reg;
    recoveries = Watchdog.recoveries dog;
    lint_issues;
    stats = Injector.stats injector;
    delay_attribution;
    spans_abandoned;
    ok =
      live <> [] && Oracle.ok report && converged && quiescent
      && lint_issues = [];
  }

(* ------------------------------------------------------------------ *)
(* Churn: the same plan machinery over a dynamic-membership group.     *)

module Group = Repro_member.Group
module Memberwire = Repro_pdu.Memberwire

type churn_outcome = {
  c_plan : string;
  c_seed : int;
  members : int list;  (** Final membership (global node ids). *)
  epochs : int;  (** Final epoch = committed view changes. *)
  view_changes : int;
  evictions : int;
  state_transfer_bytes : int;
  repair_pdus : int;
  stale_epoch_drops : int;
  submitted : int;  (** Workload submissions attempted. *)
  accepted : int;  (** ... of which some entity took (rest were fenced
                       by a barrier or refused as non-member). *)
  agreement : bool;
  epoch_isolated : bool;
  settled : bool;
  c_stats : Injector.stats;
  c_ok : bool;
}

let churn_initial ~max_nodes (plan : Plan.t) =
  let joiner e =
    List.exists
      (fun { Plan.action; _ } -> action = Plan.Join e)
      plan.Plan.events
  in
  Array.of_list (List.filter (fun e -> not (joiner e)) (List.init max_nodes Fun.id))

let run_churn ?(max_nodes = 5) ?(seed = 1) ?(per_member = 6) ?registry
    (plan : Plan.t) =
  Plan.validate ~n:max_nodes plan;
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let base = Group.default_config ~max_nodes in
  let cfg = { base with Group.seed; registry = Some reg } in
  let g = Group.create cfg ~initial:(churn_initial ~max_nodes plan) in
  let engine = Group.engine g in
  (* All loss/partition/corruption/duplication state lives in the seeded
     injector (the group's own medium is lossless), so a (plan, seed)
     pair replays bit-identically — control frames included, via the
     opaque-frame renderer. *)
  let injector =
    Injector.create ~n:max_nodes ~seed:(injector_seed seed) ()
  in
  Network.set_fault_hook (Group.network g) (fun ~dst ~src pkt ->
      match pkt with
      | Group.Proto p ->
        List.map (fun q -> Group.Proto q) (Injector.on_pdu injector ~dst ~src p)
      | Group.Control _ -> Injector.on_frame injector ~dst ~src pkt);
  Network.set_service_hook (Group.network g) (Injector.service_delay injector);
  (* Workload: every endpoint keeps trying to submit through the whole
     faulted window; payloads are stamped with the submitter's epoch so
     cross-epoch leakage is detectable from the deliveries alone. *)
  let submitted = ref 0 and accepted = ref 0 in
  let window = plan.Plan.horizon * 3 / 5 in
  for k = 0 to per_member - 1 do
    for node = 0 to max_nodes - 1 do
      let at =
        Simtime.(
          of_ms 2 + (window * k / per_member) + of_us ((137 * node) + 11))
      in
      Engine.schedule engine ~at (fun () ->
          match Group.entity g ~node with
          | None -> incr submitted
          | Some e ->
            incr submitted;
            let payload =
              Printf.sprintf "e%d.m%d.%d" (Entity.epoch e) node k
            in
            if Group.submit g ~node payload then incr accepted)
    done
  done;
  List.iter
    (fun { Plan.at; action } ->
      Engine.schedule engine ~at (fun () ->
          match action with
          | Plan.Crash e ->
            Injector.apply injector action;
            Group.crash g ~node:e
          | Plan.Restart e ->
            Injector.apply injector action;
            Group.revive g ~node:e
          | Plan.Join e -> Group.propose g ~origin:e (Memberwire.Join e)
          | Plan.Leave e ->
            if Group.is_member g e then
              Group.propose g ~origin:e (Memberwire.Leave e)
          | _ -> Injector.apply injector action))
    plan.Plan.events;
  Group.install_suspicion g ~period:(Simtime.of_ms 10) ~departure_threshold:3
    ~until:plan.Plan.horizon ();
  Group.run ~until:plan.Plan.horizon g;
  let settled = Group.settle g in
  let crashed =
    List.filter_map
      (fun { Plan.action; _ } ->
        match action with Plan.Crash e -> Some e | _ -> None)
      plan.Plan.events
  in
  let final_epoch = Group.epoch g in
  let payloads ~node ~epoch =
    List.filter_map
      (fun (ep, (d : Repro_pdu.Pdu.data)) ->
        if ep = epoch then Some d.Repro_pdu.Pdu.payload else None)
      (Group.deliveries g ~node)
  in
  (* Per-epoch convergence: every witness of an epoch — a node that
     delivered anything in it and did not crash mid-run — saw the same
     payload set. Leavers flushed the closing epoch before departing, so
     they are witnesses of every epoch they were in. *)
  let agreement = ref true in
  for epoch = 0 to final_epoch do
    let witnesses =
      List.filter
        (fun node ->
          (not (List.mem node crashed)) && payloads ~node ~epoch <> [])
        (List.init max_nodes Fun.id)
    in
    match witnesses with
    | [] -> ()
    | w0 :: rest ->
      let reference = List.sort String.compare (payloads ~node:w0 ~epoch) in
      List.iter
        (fun w ->
          if List.sort String.compare (payloads ~node:w ~epoch) <> reference
          then
            agreement := false)
        rest
  done;
  (* No delivery ever mixes epochs: the payload's submit-time stamp must
     match the epoch of the entity that delivered it. *)
  let epoch_isolated =
    List.for_all
      (fun node ->
        List.for_all
          (fun (ep, (d : Repro_pdu.Pdu.data)) ->
            let prefix = Printf.sprintf "e%d." ep in
            let p = d.Repro_pdu.Pdu.payload in
            String.length p >= String.length prefix
            && String.sub p 0 (String.length prefix) = prefix)
          (Group.deliveries g ~node))
      (List.init max_nodes Fun.id)
  in
  {
    c_plan = plan.Plan.name;
    c_seed = seed;
    members = Array.to_list (Group.members g);
    epochs = final_epoch;
    view_changes = Group.view_changes g;
    evictions = Group.evictions g;
    state_transfer_bytes = Group.state_transfer_bytes g;
    repair_pdus = Group.repair_pdus g;
    stale_epoch_drops = Group.stale_epoch_drops g;
    submitted = !submitted;
    accepted = !accepted;
    agreement = !agreement;
    epoch_isolated;
    settled;
    c_stats = Injector.stats injector;
    c_ok = settled && !agreement && epoch_isolated && !accepted > 0;
  }

let pp_churn_outcome ppf o =
  Format.fprintf ppf "@[<v>churn %s (seed %d): %s@," o.c_plan o.c_seed
    (if o.c_ok then "OK" else "FAILED");
  Format.fprintf ppf "  final view: epoch %d, members %a@," o.epochs
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    o.members;
  Format.fprintf ppf
    "  view changes=%d evictions=%d transfer bytes=%d repair pdus=%d stale \
     drops=%d@,"
    o.view_changes o.evictions o.state_transfer_bytes o.repair_pdus
    o.stale_epoch_drops;
  Format.fprintf ppf "  workload: %d/%d submissions accepted@," o.accepted
    o.submitted;
  Format.fprintf ppf "  agreement=%b epoch_isolated=%b settled=%b@," o.agreement
    o.epoch_isolated o.settled;
  Format.fprintf ppf "  injector: %a@]" Injector.pp_stats o.c_stats

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>chaos %s (seed %d): %s@," o.plan o.seed
    (if o.ok then "OK" else "FAILED");
  Format.fprintf ppf "  live entities: %a@,"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    o.live;
  Format.fprintf ppf "  expected %d data PDUs; delivered per live entity: %a@,"
    o.expected
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list o.report.delivered_per_entity);
  Format.fprintf ppf
    "  converged=%b quiescent=%b missing=%d dups=%d fifo=%d causal=%d lint=%d@,"
    o.converged o.quiescent
    (List.length o.report.missing)
    (List.length o.report.dups)
    (List.length o.report.fifo)
    (List.length o.report.causal)
    (List.length o.lint_issues);
  List.iter
    (fun issue -> Format.fprintf ppf "  lint: %a@," Trace_lint.pp_issue issue)
    o.lint_issues;
  Format.fprintf ppf "  ret retries=%d backoff samples=%d watchdog kicks=%d@,"
    o.ret_retries o.backoff_samples o.recoveries;
  (match o.delay_attribution with
  | None -> ()
  | Some s ->
    Format.fprintf ppf "  spans abandoned by crashes: %d@," o.spans_abandoned;
    Format.fprintf ppf "  %a@," Repro_obs.Critpath.pp_summary s);
  Format.fprintf ppf "  injector: %a@]" Injector.pp_stats o.stats
