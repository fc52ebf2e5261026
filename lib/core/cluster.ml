open Repro_pdu
module Engine = Repro_sim.Engine
module Network = Repro_sim.Network
module Simtime = Repro_sim.Simtime
module Topology = Repro_sim.Topology
module Trace = Repro_sim.Trace
module Registry = Repro_obs.Registry
module Trace_ctx = Repro_obs.Trace_ctx

type config = {
  n : int;
  protocol : Config.t;
  topology : Topology.t;
  inbox_capacity : int;
  service_time : Pdu.t -> Simtime.t;
  loss_prob : float;
  seed : int;
  instrument : Registry.t option;
}

let default_service_time ~n _pdu = Simtime.of_us (40 + (12 * n))

let default_config ~n =
  {
    n;
    protocol = Config.default;
    topology = Topology.uniform ~n ~delay:(Simtime.of_ms 1);
    inbox_capacity = 64;
    service_time = default_service_time ~n;
    loss_prob = 0.;
    seed = 0;
    instrument = None;
  }

let tag_of_key ~src ~seq = (src * 0x1000000) + seq
let key_of_tag tag = (tag / 0x1000000, tag mod 0x1000000)

type t = {
  config : config;
  engine : Engine.t;
  net : Pdu.t Network.t;
  entities : Entity.t array;
  deliveries : (Simtime.t * Pdu.data) list array; (* reverse chronological *)
  send_times : (int * int, Simtime.t) Hashtbl.t;
  preack_ms : Repro_util.Stats.Acc.t;
  ack_ms : Repro_util.Stats.Acc.t;
  deliver_ms : Repro_util.Stats.Acc.t;
  causality : Repro_clock.Causality.t;
  rev_data_keys : (int * int) list ref; (* data PDUs, newest first *)
  recorder : Trace_ctx.t option;
  (* Crash-stop support. [down.(i)] silences entity [i]: its receive handler
     discards, scheduled submissions are skipped, and every timer armed by
     any incarnation checks both flags before firing — a timer armed before
     a crash must not drive the pre-crash entity object after a restart has
     replaced it. *)
  down : bool array;
  incarnation : int array;
  checkpoints : string option array; (* stable storage, written at crash *)
  rebuild : int -> string option -> Entity.t; (* rewire an entity slot *)
}

let create (config : config) =
  if config.n < 2 then invalid_arg "Cluster.create: n must be >= 2";
  Config.validate config.protocol;
  let engine = Engine.create () in
  let net_config =
    {
      (Network.default_config config.topology) with
      Network.inbox_capacity = config.inbox_capacity;
      service_time = config.service_time;
      loss_prob = config.loss_prob;
      seed = config.seed;
    }
  in
  let net = Network.create engine net_config in
  let deliveries = Array.make config.n [] in
  let send_times = Hashtbl.create 1024 in
  let preack_ms = Repro_util.Stats.Acc.create () in
  let ack_ms = Repro_util.Stats.Acc.create () in
  let deliver_ms = Repro_util.Stats.Acc.create () in
  let causality = Repro_clock.Causality.create ~n:config.n in
  let rev_data_keys = ref [] in
  let salt =
    if config.protocol.Config.tracing then
      Some (Trace_ctx.salt_of_seed ~seed:config.seed)
    else None
  in
  let recorder =
    if Option.is_some config.instrument || Option.is_some salt then
      Some
        (Trace_ctx.create ?registry:config.instrument ?salt ~members:config.n
           ())
    else None
  in
  let down = Array.make config.n false in
  let incarnation = Array.make config.n 0 in
  (* Every transmission round-trips through the configured wire codec
     before it enters the medium, so the simulated cluster exercises the
     same encode/decode pair as the UDP transport: a codec bug shows up
     in every sim test, and the wire-version switch is observable to the
     differential suite. The round-trip is the identity on any PDU the
     entities can legally produce. With tracing on, v2 DATA frames carry
     the trace extension — the round-trip then also proves traced frames
     decode to the same PDUs the protocol handed in. *)
  let frame =
    match (config.protocol.Config.wire, salt) with
    | Config.V1, _ -> Codec.encode
    | Config.V2, None -> Codec.encode_v2
    | Config.V2, Some salt -> (
      fun pdu ->
        match pdu with
        | Pdu.Data d ->
          Codec.encode_traced
            ~ids:[| Trace_ctx.id ~salt ~src:d.src ~seq:d.seq |]
            pdu
        | Pdu.Ret _ | Pdu.Ctl _ -> Codec.encode_v2 pdu)
  in
  let wire_roundtrip pdu =
    match Codec.decode_any (frame pdu) with
    | Ok [ p ] -> p
    | Ok _ | Error _ -> invalid_arg "Cluster: wire round-trip failed"
  in
  let build_entity checkpoint id =
        let record_first_send pdu =
          match pdu with
          | Pdu.Data d when d.src = id ->
            let key = Pdu.key d in
            if not (Hashtbl.mem send_times key) then begin
              Hashtbl.add send_times key (Engine.now engine);
              if not (Pdu.is_confirmation d) then begin
                rev_data_keys := key :: !rev_data_keys;
                Trace.record (Network.trace net)
                  (Trace.Submitted
                     {
                       time = Engine.now engine;
                       src = id;
                       tag = tag_of_key ~src:d.src ~seq:d.seq;
                     })
              end;
              Repro_clock.Causality.send causality ~entity:id
                ~msg:(tag_of_key ~src:d.src ~seq:d.seq)
            end
          | Pdu.Data _ | Pdu.Ret _ | Pdu.Ctl _ -> ()
        in
        let actions =
          {
            Entity.broadcast =
              (fun pdu ->
                let pdu = wire_roundtrip pdu in
                record_first_send pdu;
                ignore (Network.broadcast net ~src:id pdu));
            unicast =
              (fun ~dst pdu ->
                ignore (Network.unicast net ~src:id ~dst (wire_roundtrip pdu)));
            deliver =
              (fun d ->
                let now = Engine.now engine in
                deliveries.(id) <- (now, d) :: deliveries.(id);
                Trace.record (Network.trace net)
                  (Trace.Delivered
                     { time = now; entity = id; tag = tag_of_key ~src:d.src ~seq:d.seq });
                match Hashtbl.find_opt send_times (Pdu.key d) with
                | Some t0 ->
                  Repro_util.Stats.Acc.add deliver_ms (Simtime.to_ms (now - t0))
                | None -> ());
            now = (fun () -> Engine.now engine);
            set_timer =
              (fun ~delay f ->
                let inc = incarnation.(id) in
                Engine.schedule_after engine ~delay (fun () ->
                    if (not down.(id)) && incarnation.(id) = inc then f ()));
            available_buffer = (fun () -> Network.available_buffer net id);
          }
        in
        let entity =
          match checkpoint with
          | None -> Entity.create ~config:config.protocol ~id ~n:config.n ~actions
          | Some blob -> (
            match Entity.restore ~config:config.protocol ~actions blob with
            | Ok e -> e
            | Error err ->
              invalid_arg
                (Format.asprintf "Cluster.restart: corrupt checkpoint: %a"
                   Entity.pp_restore_error err))
        in
        Entity.add_observer entity (fun ev ->
            let now = Engine.now engine in
            let latency (d : Pdu.data) acc =
              match Hashtbl.find_opt send_times (Pdu.key d) with
              | Some t0 -> Repro_util.Stats.Acc.add acc (Simtime.to_ms (now - t0))
              | None -> ()
            in
            match ev with
            | Entity.Accepted d ->
              (* Ground-truth happened-before: acceptance is the paper's
                 receipt event r_i[p]. *)
              Repro_clock.Causality.receive causality ~entity:id
                ~msg:(tag_of_key ~src:d.src ~seq:d.seq)
            | Entity.Preacknowledged d -> latency d preack_ms
            | Entity.Acknowledged d -> latency d ack_ms
            | Entity.Gap_detected _ | Entity.Ret_answered _ -> ());
        (match recorder with
        | Some r ->
          Entity.set_probe entity
            (Probe.of_recorder r ~entity:id ~incarnation:incarnation.(id)
               ~now:(fun () -> Engine.now engine)
               ())
        | None -> ());
        entity
  in
  let entities = Array.init config.n (build_entity None) in
  Array.iteri
    (fun id _ ->
      (* Index-based so a restart's replacement entity takes over the slot;
         a crashed entity's arriving copies are discarded. *)
      Network.attach net ~id ~handler:(fun ~src:_ pdu ->
          if not down.(id) then Entity.receive entities.(id) pdu))
    entities;
  {
    config;
    engine;
    net;
    entities;
    deliveries;
    send_times;
    preack_ms;
    ack_ms;
    deliver_ms;
    causality;
    rev_data_keys;
    recorder;
    down;
    incarnation;
    checkpoints = Array.make config.n None;
    rebuild = (fun id checkpoint -> build_entity checkpoint id);
  }

let engine t = t.engine
let network t = t.net
let entity t i = t.entities.(i)
let size t = t.config.n

let submit_at t ~at ~src payload =
  Engine.schedule t.engine ~at (fun () ->
      if not t.down.(src) then ignore (Entity.submit t.entities.(src) payload))

let submit t ~src payload = submit_at t ~at:(Engine.now t.engine) ~src payload

let run ?until ?max_events t = Engine.run ?until ?max_events t.engine

(* --- Crash-stop and checkpoint-restore recovery --- *)

let is_down t i = t.down.(i)

let live_ids t =
  List.filter (fun i -> not t.down.(i)) (List.init t.config.n (fun i -> i))

let crash t ~id =
  if id < 0 || id >= t.config.n then invalid_arg "Cluster.crash: id out of range";
  if t.down.(id) then invalid_arg "Cluster.crash: entity already down";
  (* Stable-storage model: the checkpoint is written before the crash takes
     effect, as a periodic checkpointer would have. *)
  t.checkpoints.(id) <- Some (Entity.checkpoint t.entities.(id));
  (* Open telemetry spans die with the incarnation: abandon them (tagged
     with the incarnation that was running) so post-restart ladder stamps
     can never stitch onto pre-crash spans. *)
  (match t.recorder with
  | Some r -> Trace_ctx.abandon_entity r ~entity:id ~incarnation:t.incarnation.(id)
  | None -> ());
  t.down.(id) <- true;
  t.incarnation.(id) <- t.incarnation.(id) + 1;
  Trace.record (Network.trace t.net)
    (Trace.Crashed { time = Engine.now t.engine; entity = id })

let restart t ~id =
  if id < 0 || id >= t.config.n then
    invalid_arg "Cluster.restart: id out of range";
  if not t.down.(id) then invalid_arg "Cluster.restart: entity is not down";
  t.incarnation.(id) <- t.incarnation.(id) + 1;
  t.down.(id) <- false;
  let entity = t.rebuild id t.checkpoints.(id) in
  t.entities.(id) <- entity;
  Trace.record (Network.trace t.net)
    (Trace.Restarted { time = Engine.now t.engine; entity = id });
  Entity.kick entity

let deliveries t ~entity = List.rev t.deliveries.(entity)

let delivery_keys t ~entity =
  List.rev_map (fun (_, d) -> Pdu.key d) t.deliveries.(entity)

let send_time t ~key = Hashtbl.find_opt t.send_times key

let delivery_latencies t = Repro_util.Stats.Acc.samples t.deliver_ms
let preack_latencies t = Repro_util.Stats.Acc.samples t.preack_ms
let ack_latencies t = Repro_util.Stats.Acc.samples t.ack_ms

let aggregate_metrics t =
  let acc = Metrics.create () in
  Array.iter (fun e -> Metrics.add ~into:acc (Entity.metrics e)) t.entities;
  acc

let entity_metrics t i = Entity.metrics t.entities.(i)
let recorder t = t.recorder
let registry t = t.config.instrument

let sync_metrics t =
  match t.config.instrument with
  | None -> ()
  | Some reg ->
    Array.iteri
      (fun id e ->
        Metrics.to_registry (Entity.metrics e) reg
          ~labels:[ ("entity", string_of_int id) ])
      t.entities;
    Registry.counter_set
      (Registry.counter reg
         ~help:"Physical PDU copies put on the MC medium"
         ~name:"co_net_transmissions_total" [])
      (Network.transmissions t.net);
    Registry.counter_set
      (Registry.counter reg
         ~help:"PDU copies lost to injected loss or inbox overflow"
         ~name:"co_net_losses_total" [])
      (Network.losses t.net);
    Registry.set
      (Registry.gauge reg ~help:"Virtual time of the simulation, seconds"
         ~name:"co_sim_time_seconds" [])
      (Simtime.to_ms (Engine.now t.engine) /. 1000.)
let trace t = Network.trace t.net
let causality t = t.causality

let data_keys t = List.rev !(t.rev_data_keys)

let data_tags t =
  List.rev_map (fun (src, seq) -> tag_of_key ~src ~seq) !(t.rev_data_keys)
