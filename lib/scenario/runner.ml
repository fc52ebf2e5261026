module Simtime = Repro_sim.Simtime
module Engine = Repro_sim.Engine
module Network = Repro_sim.Network
module Plan = Repro_fault.Plan
module Injector = Repro_fault.Injector
module Cluster = Repro_core.Cluster
module Causality = Repro_clock.Causality
module Workload = Repro_harness.Workload
module Oracle = Repro_harness.Oracle
module Pac = Repro_harness.Pac
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

type result = {
  protocol : protocol;
  curve : Pac.curve;
  oracle : Oracle.report option;
  causal_ok : bool;
  stalled : int;
  submitted : int;
  events : int;
  latencies_ms : float list;
}

(* Drain window: past the horizon every fault is healed; one extra horizon
   of virtual time lets RET / go-back-N recovery finish. *)
let drain_until (compiled : Scenario.compiled) =
  2 * compiled.Scenario.scenario.Scenario.horizon

let finish ~compiled ~protocol ~oracle ~causal_ok ~stalled ~submitted ~events
    ~latencies_ms =
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
  { protocol; curve; oracle; causal_ok; stalled; submitted; events; latencies_ms }

(* One fault interpreter for every protocol: a seeded injector on the
   medium's fault and service hooks replays the compiled plan. Nodes that
   only join later start down, as if they had left. [render] turns the
   injector's verdict into copies of this protocol's payload. *)
let arm ~engine ~(compiled : Scenario.compiled) ~seed ~render net =
  let inj = Injector.create ~n:compiled.Scenario.scenario.Scenario.n ~seed () in
  List.iter
    (fun e -> Injector.apply inj (Plan.Leave e))
    compiled.Scenario.initially_down;
  List.iter
    (fun { Plan.at; action } ->
      Engine.schedule engine ~at (fun () -> Injector.apply inj action))
    compiled.Scenario.plan.Plan.events;
  Network.set_fault_hook net (render inj);
  Network.set_service_hook net (Injector.service_delay inj);
  inj

(* Schedule the workload, skipping sources that are down at fire time; the
   skip schedule is identical across protocols because the injector
   replays the same plan. Returns the submit-time table (tag -> send
   instant). *)
let schedule_workload ~engine ~inj ~(compiled : Scenario.compiled) ~broadcast =
  let sent = ref [] in
  let next_tag = ref 0 in
  List.iter
    (fun { Workload.at; src; payload } ->
      Engine.schedule engine ~at (fun () ->
          if not (Injector.is_down inj src) then begin
            incr next_tag;
            sent := (!next_tag, at) :: !sent;
            broadcast ~src ~tag:!next_tag payload
          end))
    compiled.Scenario.workload;
  sent

let run_co ~max_events ~(compiled : Scenario.compiled) ~seed =
  let sc = compiled.Scenario.scenario in
  let n = sc.Scenario.n in
  let cfg =
    { (Cluster.default_config ~n) with Cluster.topology = compiled.Scenario.topology; seed }
  in
  let cluster = Cluster.create cfg in
  let engine = Cluster.engine cluster in
  (* CO's copies are rendered through the codec, as in chaos runs. *)
  let net = Cluster.network cluster in
  let inj = arm ~engine ~compiled ~seed ~render:Injector.on_pdu net in
  ignore
    (schedule_workload ~engine ~inj ~compiled ~broadcast:(fun ~src ~tag:_ p ->
         Cluster.submit cluster ~src p));
  Engine.run engine ~until:(drain_until compiled) ~max_events;
  let tags = Cluster.data_tags cluster in
  let observers = compiled.Scenario.observers in
  let latencies_ms =
    List.concat_map
      (fun e ->
        let stamps = List.map fst (Cluster.deliveries cluster ~entity:e) in
        let keys = Cluster.delivery_keys cluster ~entity:e in
        List.filter_map
          (fun (at, (src, seq)) ->
            match Cluster.send_time cluster ~key:(src, seq) with
            | Some sent -> Some (Simtime.to_ms Simtime.(at - sent))
            | None -> None)
          (List.combine stamps keys))
      observers
  in
  let deliveries =
    Array.of_list
      (List.map
         (fun e ->
           List.map
             (fun (src, seq) -> Cluster.tag_of_key ~src ~seq)
             (Cluster.delivery_keys cluster ~entity:e))
         observers)
  in
  let causality = Cluster.causality cluster in
  let precedes p q =
    try Causality.msg_precedes causality p q with Not_found -> false
  in
  let report =
    Oracle.check_deliveries ~expected_tags:tags ~precedes
      ~key_of:Cluster.key_of_tag ~deliveries
  in
  let causal_ok =
    report.Oracle.dups = [] && report.Oracle.fifo = [] && report.Oracle.causal = []
  in
  finish ~compiled ~protocol:Co ~oracle:(Some report) ~causal_ok ~stalled:0
    ~submitted:(List.length tags)
    ~events:(Engine.processed engine) ~latencies_ms

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

let run_cbcast ~max_events ~(compiled : Scenario.compiled) ~seed =
  let sc = compiled.Scenario.scenario in
  let n = sc.Scenario.n in
  let engine = Engine.create () in
  let net = baseline_net ~compiled ~seed engine in
  let cb = Cbcast.create engine net ~n in
  let inj = arm ~engine ~compiled ~seed ~render:Injector.on_frame net in
  let sent =
    schedule_workload ~engine ~inj ~compiled ~broadcast:(fun ~src ~tag payload ->
        Cbcast.broadcast cb ~src ~tag payload)
  in
  Engine.run engine ~until:(drain_until compiled) ~max_events;
  let observers = compiled.Scenario.observers in
  let latencies_ms =
    baseline_latencies ~sent ~observers ~deliveries:(fun ~entity ->
        List.map
          (fun (at, m) -> (at, m.Cbcast.tag))
          (Cbcast.deliveries cb ~entity))
  in
  let stalled =
    List.fold_left (fun acc e -> acc + Cbcast.stalled cb ~entity:e) 0 observers
  in
  finish ~compiled ~protocol:Cbcast ~oracle:None ~causal_ok:true ~stalled
    ~submitted:(List.length !sent)
    ~events:(Engine.processed engine) ~latencies_ms

let run_tobcast ~max_events ~(compiled : Scenario.compiled) ~seed =
  let sc = compiled.Scenario.scenario in
  let n = sc.Scenario.n in
  let engine = Engine.create () in
  let net = baseline_net ~compiled ~seed engine in
  let tb = Tobcast.create engine net ~n ~retry:(Simtime.of_ms 10) in
  let inj = arm ~engine ~compiled ~seed ~render:Injector.on_frame net in
  let sent =
    schedule_workload ~engine ~inj ~compiled ~broadcast:(fun ~src ~tag payload ->
        Tobcast.broadcast tb ~src ~tag payload)
  in
  Engine.run engine ~until:(drain_until compiled) ~max_events;
  let observers = compiled.Scenario.observers in
  let latencies_ms =
    baseline_latencies ~sent ~observers ~deliveries:(fun ~entity ->
        Tobcast.deliveries tb ~entity)
  in
  finish ~compiled ~protocol:Tobcast ~oracle:None ~causal_ok:true ~stalled:0
    ~submitted:(List.length !sent)
    ~events:(Engine.processed engine) ~latencies_ms

let run ?(max_events = 5_000_000) ~compiled ~seed protocol =
  match protocol with
  | Co -> run_co ~max_events ~compiled ~seed
  | Cbcast -> run_cbcast ~max_events ~compiled ~seed
  | Tobcast -> run_tobcast ~max_events ~compiled ~seed

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
