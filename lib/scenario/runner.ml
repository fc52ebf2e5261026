module Simtime = Repro_sim.Simtime
module Engine = Repro_sim.Engine
module Network = Repro_sim.Network
module Plan = Repro_fault.Plan
module Injector = Repro_fault.Injector
module Watchdog = Repro_fault.Watchdog
module Cluster = Repro_core.Cluster
module Config = Repro_core.Config
module Entity = Repro_core.Entity
module Group = Repro_member.Group
module Memberwire = Repro_pdu.Memberwire
module Workload = Repro_harness.Workload
module Oracle = Repro_harness.Oracle
module Pac = Repro_harness.Pac
module Trace_lint = Repro_check.Trace_lint
module Registry = Repro_obs.Registry
module Trace_ctx = Repro_obs.Trace_ctx
module Critpath = Repro_obs.Critpath
module Cbcast = Repro_baselines.Cbcast
module Tobcast = Repro_baselines.Tobcast

type protocol = Co | Cbcast | Tobcast

let protocol_name = function Co -> "co" | Cbcast -> "cbcast" | Tobcast -> "tobcast"

let protocol_of_name = function
  | "co" -> Some Co
  | "cbcast" -> Some Cbcast
  | "tobcast" -> Some Tobcast
  | _ -> None

let all_protocols = [ Co; Cbcast; Tobcast ]

type membership = {
  final_epoch : int;
  members : int list;
  view_changes : int;
  evictions : int;
  state_transfer_bytes : int;
  repair_pdus : int;
  stale_epoch_drops : int;
  refused : int;
  epoch_isolated : bool;
}

type co = {
  live : int list;
  report : Oracle.report;
  unsent : int;
  delivery_orders : (int * int) list array;
  converged : bool;
  quiescent : bool;
  lint_issues : Trace_lint.issue list;
  ret_retries : int;
  backoff_samples : int;
  recoveries : int;
  delay_attribution : Critpath.summary option;
  spans_abandoned : int;
  membership : membership option;
}

type result = {
  protocol : protocol;
  curve : Pac.curve;
  co : co option;
  causal_ok : bool;
  stalled : int;
  submitted : int;
  events : int;
  latencies_ms : float list;
  stats : Injector.stats;
}

let ok r =
  match r.co with
  | None -> true
  | Some c ->
    r.submitted > 0 && c.live <> [] && Oracle.ok c.report && c.unsent <= 0
    && c.converged && c.quiescent && c.lint_issues = []
    && Option.fold ~none:true ~some:(fun m -> m.epoch_isolated) c.membership

(* Drain window: past the horizon every fault is healed; one extra horizon
   of virtual time lets RET / go-back-N recovery finish. *)
let drain_until (compiled : Scenario.compiled) =
  2 * compiled.Scenario.scenario.Scenario.horizon

let finish ~compiled ~protocol ~co ~causal_ok ~stalled ~sent ~events ~inj
    ~latencies_ms =
  let submitted = List.length !sent in
  let expected =
    submitted * List.length compiled.Scenario.observers
  in
  let horizon_ms =
    Simtime.to_ms compiled.Scenario.scenario.Scenario.horizon
  in
  let deadlines_ms = Pac.deadline_grid ~horizon_ms [ latencies_ms ] in
  let curve =
    Pac.curve ~protocol:(protocol_name protocol) ~expected ~deadlines_ms
      ~latencies_ms
  in
  {
    protocol;
    curve;
    co;
    causal_ok;
    stalled;
    submitted;
    events;
    latencies_ms;
    stats = Injector.stats inj;
  }

(* One fault interpreter for every protocol: a seeded injector on the
   medium's fault and service hooks replays the compiled plan, [apply]
   carrying out each action; nodes that only join later start as if they
   had left. [render] turns the injector's verdict into copies of this
   protocol's payload. *)
let arm ~engine ~(compiled : Scenario.compiled) ~seed ~wire ~render ~apply net
    =
  let inj =
    Injector.create ~wire ~n:compiled.Scenario.scenario.Scenario.n ~seed ()
  in
  List.iter (fun e -> apply inj (Plan.Leave e)) compiled.Scenario.initially_down;
  List.iter
    (fun { Plan.at; action } ->
      Engine.schedule engine ~at (fun () -> apply inj action))
    compiled.Scenario.plan.Plan.events;
  Network.set_fault_hook net (render inj);
  Network.set_service_hook net (Injector.service_delay inj);
  inj

(* Schedule the workload, skipping sources that are down at fire time; the
   skip schedule is identical across protocols because the injector
   replays the same plan. [broadcast] says whether the protocol took the
   submission. Returns the taken-submission table (tag -> send instant),
   newest first. *)
let schedule_workload ~engine ~inj ~(compiled : Scenario.compiled) ~broadcast =
  let sent = ref [] in
  let next_tag = ref 0 in
  List.iter
    (fun { Workload.at; src; payload } ->
      Engine.schedule engine ~at (fun () ->
          if not (Injector.is_down inj src) then begin
            incr next_tag;
            if broadcast ~src ~tag:!next_tag payload then
              sent := (!next_tag, at) :: !sent
          end))
    compiled.Scenario.workload;
  sent

let backoff_samples reg =
  List.fold_left
    (fun acc (s : Registry.sample) ->
      match (s.Registry.family, s.Registry.value) with
      | "co_ret_backoff_us", Registry.Sample_histogram snap ->
        acc + snap.Repro_obs.Histogram.count
      | _ -> acc)
    0 (Registry.samples reg)

let delivered_tags recording e =
  List.map (fun (_, tag, _) -> tag) (Cluster.recorded_deliveries recording ~slot:e)

(* The oracle over [live] observers owed [expected_tags], their delivery
   orders and the trace lint; each CO host sets the rest. *)
let co_details recording ~n ~trace ~live ~expected_tags ~unsent =
  let report = Oracle.check_recording recording ~entities:live ~expected_tags in
  let order e = List.map Cluster.key_of_tag (delivered_tags recording e) in
  {
    live;
    report;
    unsent;
    delivery_orders = Array.of_list (List.map order live);
    converged = false;
    quiescent = false;
    lint_issues = Trace_lint.lint_trace ~n trace;
    ret_retries = 0;
    backoff_samples = 0;
    recoveries = 0;
    delay_attribution = None;
    spans_abandoned = 0;
    membership = None;
  }

let finish_co ~compiled ~engine ~inj ~sent recording co =
  let latency (at, tag, _) =
    Option.map
      (fun t0 -> Simtime.to_ms Simtime.(at - t0))
      (Cluster.first_send recording tag)
  in
  let latencies_ms =
    List.concat_map
      (fun e -> List.filter_map latency (Cluster.recorded_deliveries recording ~slot:e))
      compiled.Scenario.observers
  in
  let { Oracle.dups; fifo; causal; _ } = co.report in
  finish ~compiled ~protocol:Co ~co:(Some co)
    ~causal_ok:(dups = [] && fifo = [] && causal = [])
    ~stalled:0 ~sent ~events:(Engine.processed engine) ~inj ~latencies_ms

let run_co ~max_events ~wire ~tracing ~registry
    ~(compiled : Scenario.compiled) ~seed =
  let sc = compiled.Scenario.scenario in
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let base = Cluster.default_config ~n:sc.Scenario.n in
  let protocol = { base.Cluster.protocol with Config.wire; tracing } in
  let cfg =
    {
      base with
      Cluster.topology = compiled.Scenario.topology;
      seed;
      instrument = Some reg;
      protocol;
    }
  in
  let cluster = Cluster.create cfg in
  let engine = Cluster.engine cluster in
  (* CO's copies are rendered through the codec; [Crash]/[Restart] also
     crash-stop and restore the entity. *)
  let apply inj action =
    match action with
    | Plan.Crash e ->
      if not (Cluster.is_down cluster e) then Cluster.crash cluster ~id:e;
      Injector.apply inj action
    | Plan.Restart e ->
      (* Lift the medium fault first: the restarted entity's recovery CTL
         must reach its peers. *)
      Injector.apply inj action;
      if Cluster.is_down cluster e then Cluster.restart cluster ~id:e
    | _ -> Injector.apply inj action
  in
  let inj =
    arm ~engine ~compiled ~seed ~wire ~render:Injector.on_pdu ~apply
      (Cluster.network cluster)
  in
  let sent =
    schedule_workload ~engine ~inj ~compiled ~broadcast:(fun ~src ~tag:_ p ->
        Cluster.submit cluster ~src p;
        true)
  in
  (* [registry] may be shared across runs: count this run's samples only. *)
  let backoff_before = backoff_samples reg in
  let dog =
    Watchdog.install ~cluster
      ~period:(4 * protocol.Config.ret_retry_timeout)
      ~until:sc.Scenario.horizon ()
  in
  Engine.run engine ~until:(drain_until compiled) ~max_events;
  Cluster.sync_metrics cluster;
  let recording = Cluster.recorded cluster in
  (* The verdict covers the observers that are up at the end. *)
  let live =
    List.filter
      (fun e -> not (Cluster.is_down cluster e))
      compiled.Scenario.observers
  in
  let delivered e = List.sort_uniq Int.compare (delivered_tags recording e) in
  let recorder = Cluster.recorder cluster in
  let delay_attribution =
    match recorder with
    | Some r when tracing ->
      (* Aggregate into the registry too, so the run exposes the same
         co_delay_attrib_us families a production scrape would. *)
      Critpath.to_registry reg (Trace_ctx.spans r);
      Some (Critpath.of_recorder r)
    | Some _ | None -> None
  in
  let sent_data = Cluster.sent_data recording in
  let co =
    co_details recording ~n:sc.Scenario.n ~trace:(Cluster.trace cluster) ~live
      ~expected_tags:sent_data
      ~unsent:(List.length !sent - List.length sent_data)
  in
  finish_co ~compiled ~engine ~inj ~sent recording
    {
      co with
      converged =
        (match live with
        | [] -> false
        | first :: rest ->
          List.for_all (fun e -> delivered e = delivered first) rest);
      quiescent =
        List.for_all (fun e -> Entity.backlog (Cluster.entity cluster e) = 0) live;
      ret_retries = (Cluster.aggregate_metrics cluster).ret_retries;
      backoff_samples = backoff_samples reg - backoff_before;
      recoveries = Watchdog.recoveries dog;
      delay_attribution;
      spans_abandoned =
        (match recorder with None -> 0 | Some r -> Trace_ctx.abandoned r);
    }

(* A churning plan's CO run is hosted on the membership group: [Join]/
   [Leave] become proposals (a non-member's leave is a no-op),
   [Crash]/[Restart] crash and revive the node as well as its NIC, and
   everything else goes to the injector. *)
let run_group ~max_events ~wire ~registry ~(compiled : Scenario.compiled)
    ~seed =
  let sc = compiled.Scenario.scenario in
  let n = sc.Scenario.n in
  let nodes = List.init n Fun.id in
  let base = Group.default_config ~max_nodes:n in
  let cfg =
    {
      base with
      Group.topology = compiled.Scenario.topology;
      protocol = { base.Group.protocol with Config.wire };
      seed;
      registry = Some (Option.value registry ~default:(Registry.create ()));
    }
  in
  let joins e = List.mem e compiled.Scenario.initially_down in
  let initial = Array.of_list (List.filter (Fun.negate joins) nodes) in
  let g = Group.create cfg ~initial in
  let engine = Group.engine g in
  let render inj ~dst ~src = function
    | Group.Proto p ->
      List.map (fun q -> Group.Proto q) (Injector.on_pdu inj ~dst ~src p)
    | Group.Control _ as pkt -> Injector.on_frame inj ~dst ~src pkt
  in
  let apply inj action =
    match action with
    | Plan.Crash node ->
      Injector.apply inj action;
      Group.crash g ~node
    | Plan.Restart node ->
      Injector.apply inj action;
      Group.revive g ~node
    | Plan.Join e -> Group.propose g ~origin:e (Memberwire.Join e)
    | Plan.Leave e ->
      if Group.is_member g e then Group.propose g ~origin:e (Memberwire.Leave e)
    | _ -> Injector.apply inj action
  in
  (* The injector's stream is salted away from the seed the group's own
     medium draws from. *)
  let inj =
    arm ~engine ~compiled ~seed:(seed lxor 0xfa017) ~wire ~render ~apply
      (Group.network g)
  in
  let crashed =
    List.filter_map
      (function { Plan.action = Plan.Crash e; _ } -> Some e | _ -> None)
      compiled.Scenario.plan.Plan.events
  in
  let survivor e = not (List.mem e crashed) in
  (* Payloads carry the submitter's epoch, so a delivery in another epoch
     shows in the payload alone. *)
  let refused = ref 0 and kept = ref 0 in
  let sent =
    schedule_workload ~engine ~inj ~compiled ~broadcast:(fun ~src ~tag:_ p ->
        let e = Group.entity g ~node:src in
        let epoch = Option.fold ~none:0 ~some:Entity.epoch e in
        let taken = Group.submit g ~node:src (Printf.sprintf "e%d.%s" epoch p) in
        if not taken then incr refused else if survivor src then incr kept;
        taken)
  in
  Group.install_suspicion g ~period:(Simtime.of_ms 10) ~departure_threshold:3
    ~until:sc.Scenario.horizon ();
  Engine.run engine ~until:(drain_until compiled) ~max_events;
  let settled = Group.settle g in
  let recording = Group.recorded g in
  let live =
    List.filter
      (fun e -> Group.is_member g e && not (Injector.is_down inj e))
      compiled.Scenario.observers
  in
  (* Owed at every live observer: what never-crashed sources sent, and
     whatever of a crashed source's the barriers carried to any of them. *)
  let survivors_sent =
    List.filter
      (fun tag -> survivor (snd (Group.tag_source g tag)))
      (Cluster.sent_data recording)
  in
  let expected_tags =
    List.sort_uniq Int.compare
      (survivors_sent @ List.concat_map (delivered_tags recording) live)
  in
  (* Per-epoch agreement: the never-crashed nodes that delivered in an
     epoch all delivered the same set in it. *)
  let delivered_in epoch e =
    List.sort Int.compare
      (List.filter
         (fun tag -> fst (Group.tag_source g tag) = epoch)
         (delivered_tags recording e))
  in
  let agree epoch =
    let sets = List.map (delivered_in epoch) (List.filter survivor nodes) in
    match List.filter (( <> ) []) sets with
    | [] -> true
    | set :: rest -> List.for_all (( = ) set) rest
  in
  (* Epoch isolation: a node's delivery epochs never go down, and each
     payload carries the epoch it is delivered in. *)
  let isolated node =
    let ds = Group.deliveries g ~node in
    let epochs = List.map fst ds in
    List.sort Int.compare epochs = epochs
    && List.for_all
         (fun (epoch, (d : Repro_pdu.Pdu.data)) ->
           String.starts_with ~prefix:(Printf.sprintf "e%d." epoch) d.payload)
         ds
  in
  let co =
    co_details recording ~n ~trace:(Network.trace (Group.network g)) ~live
      ~expected_tags ~unsent:(!kept - List.length survivors_sent)
  in
  finish_co ~compiled ~engine ~inj ~sent recording
    {
      co with
      converged = List.for_all agree (List.init (Group.epoch g + 1) Fun.id);
      quiescent = settled;
      membership =
        Some
          {
            final_epoch = Group.epoch g;
            members = Array.to_list (Group.members g);
            view_changes = Group.view_changes g;
            evictions = Group.evictions g;
            state_transfer_bytes = Group.state_transfer_bytes g;
            repair_pdus = Group.repair_pdus g;
            stale_epoch_drops = Group.stale_epoch_drops g;
            refused = !refused;
            epoch_isolated = List.for_all isolated nodes;
          };
    }

(* Baselines share the medium setup bench/main.ml uses for the E4/E5
   comparisons: generous inboxes and a flat 100µs service time, so the
   contrast measures protocol behaviour rather than buffer tuning. *)
let baseline_net ~(compiled : Scenario.compiled) ~seed engine =
  let cfg =
    {
      (Network.default_config compiled.Scenario.topology) with
      Network.inbox_capacity = 256;
      service_time = (fun _ -> Simtime.of_us 100);
      seed;
    }
  in
  Network.create engine cfg

let baseline_latencies ~sent ~observers ~deliveries =
  let send_at = !sent in
  List.concat_map
    (fun e ->
      List.filter_map
        (fun (at, tag) ->
          match List.assoc_opt tag send_at with
          | Some t0 -> Some (Simtime.to_ms Simtime.(at - t0))
          | None -> None)
        (deliveries ~entity:e))
    observers

(* The baselines differ only in the protocol object: [start] builds it on
   the engine and medium and returns its broadcast, its per-entity
   (delivery instant, tag) list and its count of messages parked for
   good. *)
let run_baseline ~max_events ~wire ~(compiled : Scenario.compiled) ~seed
    ~protocol ~start =
  let engine = Engine.create () in
  let net = baseline_net ~compiled ~seed engine in
  let broadcast, deliveries, stalled =
    start engine net ~n:compiled.Scenario.scenario.Scenario.n
  in
  let inj =
    arm ~engine ~compiled ~seed ~wire ~render:Injector.on_frame
      ~apply:Injector.apply net
  in
  let sent =
    schedule_workload ~engine ~inj ~compiled ~broadcast:(fun ~src ~tag p ->
        broadcast ~src ~tag p;
        true)
  in
  Engine.run engine ~until:(drain_until compiled) ~max_events;
  let observers = compiled.Scenario.observers in
  let latencies_ms = baseline_latencies ~sent ~observers ~deliveries in
  let stalled =
    List.fold_left (fun acc e -> acc + stalled ~entity:e) 0 observers
  in
  finish ~compiled ~protocol ~co:None ~causal_ok:true ~stalled ~sent
    ~events:(Engine.processed engine) ~inj ~latencies_ms

let run ?(max_events = 5_000_000) ?(wire = Config.default.Config.wire)
    ?(tracing = Config.default.Config.tracing) ?registry ~compiled ~seed
    protocol =
  match protocol with
  | Co when Plan.churning compiled.Scenario.plan ->
    run_group ~max_events ~wire ~registry ~compiled ~seed
  | Co -> run_co ~max_events ~wire ~tracing ~registry ~compiled ~seed
  | Cbcast ->
    run_baseline ~max_events ~wire ~compiled ~seed ~protocol
      ~start:(fun engine net ~n ->
        let cb = Cbcast.create engine net ~n in
        ( Cbcast.broadcast cb,
          (fun ~entity ->
            List.map
              (fun (at, m) -> (at, m.Cbcast.tag))
              (Cbcast.deliveries cb ~entity)),
          Cbcast.stalled cb ))
  | Tobcast ->
    run_baseline ~max_events ~wire ~compiled ~seed ~protocol
      ~start:(fun engine net ~n ->
        let tb = Tobcast.create engine net ~n ~retry:(Simtime.of_ms 10) in
        (Tobcast.broadcast tb, Tobcast.deliveries tb, fun ~entity:_ -> 0))

let pp_ints ppf l =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
    Format.pp_print_int ppf l

let pp ppf r =
  let c = r.curve in
  Format.fprintf ppf "@[<v>%-8s submitted=%d delivered=%d/%d stalled=%d"
    (protocol_name r.protocol) r.submitted c.Pac.delivered c.Pac.expected
    r.stalled;
  (match r.co with
  | None -> ()
  | Some co ->
    let o = co.report in
    Format.fprintf ppf "@,  verdict: %s@," (if ok r then "OK" else "FAILED");
    Format.fprintf ppf
      "  sent %d data PDUs; delivered per live observer (%a): %a@,"
      o.Oracle.expected pp_ints co.live pp_ints
      (Array.to_list o.Oracle.delivered_per_entity);
    Format.fprintf ppf
      "  converged=%b quiescent=%b missing=%d dups=%d fifo=%d causal=%d \
       lint=%d@,"
      co.converged co.quiescent
      (List.length o.Oracle.missing)
      (List.length o.Oracle.dups)
      (List.length o.Oracle.fifo)
      (List.length o.Oracle.causal)
      (List.length co.lint_issues);
    List.iter
      (fun issue -> Format.fprintf ppf "  lint: %a@," Trace_lint.pp_issue issue)
      co.lint_issues;
    (match co.membership with
    | None ->
      Format.fprintf ppf "  ret retries=%d backoff samples=%d watchdog kicks=%d"
        co.ret_retries co.backoff_samples co.recoveries
    | Some m ->
      Format.fprintf ppf
        "  final view: epoch %d, members %a@,  view changes=%d evictions=%d \
         transfer bytes=%d repair pdus=%d stale drops=%d@,  workload: %d \
         accepted, %d fenced or refused; epoch_isolated=%b"
        m.final_epoch pp_ints m.members m.view_changes m.evictions
        m.state_transfer_bytes m.repair_pdus m.stale_epoch_drops r.submitted
        m.refused m.epoch_isolated);
    match co.delay_attribution with
    | None -> ()
    | Some s ->
      Format.fprintf ppf "@,  spans abandoned by crashes: %d@,  %a"
        co.spans_abandoned Critpath.pp_summary s);
  Format.fprintf ppf "@,  injector: %a@]" Injector.pp_stats r.stats

(* ---------------------------------------------------------------- *)
(* Shared-grid artifacts.                                            *)

let deadline_grid (compiled : Scenario.compiled) results =
  let horizon_ms = Simtime.to_ms compiled.Scenario.scenario.Scenario.horizon in
  Pac.deadline_grid ~horizon_ms (List.map (fun r -> r.latencies_ms) results)

let rescale ~deadlines_ms r =
  let curve =
    Pac.curve ~protocol:(protocol_name r.protocol)
      ~expected:r.curve.Pac.expected ~deadlines_ms ~latencies_ms:r.latencies_ms
  in
  { r with curve }

let workload_kind = function
  | Scenario.Continuous _ -> "continuous"
  | Scenario.Bursty _ -> "bursty"
  | Scenario.Hotspot _ -> "hotspot"
  | Scenario.Zipf _ -> "zipf"
  | Scenario.Diurnal _ -> "diurnal"

let delay_kind = function
  | Scenario.Uniform_delay _ -> "uniform"
  | Scenario.Wan _ -> "wan"

let loss_kind = function
  | Scenario.No_loss -> "none"
  | Scenario.Iid _ -> "iid"
  | Scenario.Gilbert_elliott _ -> "gilbert_elliott"

let artifact_json ~(compiled : Scenario.compiled) ~seed results =
  let sc = compiled.Scenario.scenario in
  let deadlines_ms = deadline_grid compiled results in
  let results = List.map (rescale ~deadlines_ms) results in
  let b = Buffer.create 1024 in
  let num = Pac.json_number in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":\"bench_pac/v1\",\"scenario\":%S,\"description\":%S,\"seed\":%d,\"n\":%d,"
       sc.Scenario.name sc.Scenario.description seed sc.Scenario.n);
  Buffer.add_string b
    (Printf.sprintf
       "\"workload\":%S,\"delays\":%S,\"loss\":%S,\"churn_events\":%d,\"partition_windows\":%d,"
       (workload_kind sc.Scenario.workload)
       (delay_kind sc.Scenario.delays)
       (loss_kind sc.Scenario.loss)
       (List.length sc.Scenario.churn)
       (List.length sc.Scenario.partitions));
  Buffer.add_string b
    (Printf.sprintf "\"horizon_ms\":%s,\"observers\":[%s],\"deadlines_ms\":[%s],"
       (num (Simtime.to_ms sc.Scenario.horizon))
       (String.concat "," (List.map string_of_int compiled.Scenario.observers))
       (String.concat "," (List.map num deadlines_ms)));
  Buffer.add_string b "\"curves\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Pac.to_json r.curve))
    results;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let to_registry registry ~(compiled : Scenario.compiled) results =
  let scenario = compiled.Scenario.scenario.Scenario.name in
  let deadlines_ms = deadline_grid compiled results in
  List.iter
    (fun r -> Pac.to_registry registry ~scenario (rescale ~deadlines_ms r).curve)
    results
