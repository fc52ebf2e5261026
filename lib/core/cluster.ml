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

(* --- Recording: what a sim host keeps about its entities' traffic --- *)

type recording = {
  engine_of : Engine.t;
  log : Trace.t;
  causality_of : Repro_clock.Causality.t;
  first_sent : (int, Simtime.t) Hashtbl.t; (* tag -> first broadcast *)
  mutable rev_data_tags : int list; (* data PDUs, newest first *)
  delivered : (Simtime.t * int * Pdu.data) list array; (* newest first *)
  preack_ms : Repro_util.Stats.Acc.t;
  ack_ms : Repro_util.Stats.Acc.t;
  deliver_ms : Repro_util.Stats.Acc.t;
}

let recording ~slots engine log =
  {
    engine_of = engine;
    log;
    causality_of = Repro_clock.Causality.create ~n:slots;
    first_sent = Hashtbl.create 1024;
    rev_data_tags = [];
    delivered = Array.make slots [];
    preack_ms = Repro_util.Stats.Acc.create ();
    ack_ms = Repro_util.Stats.Acc.create ();
    deliver_ms = Repro_util.Stats.Acc.create ();
  }

let record r ~slot ~self ~tag (actions : Entity.actions) build =
  let now () = Engine.now r.engine_of in
  let tag_of (d : Pdu.data) = tag ~src:d.src ~seq:d.seq in
  let since tag acc =
    match Hashtbl.find_opt r.first_sent tag with
    | Some t0 -> Repro_util.Stats.Acc.add acc (Simtime.to_ms (now () - t0))
    | None -> ()
  in
  let broadcast pdu =
    (match pdu with
    | Pdu.Data d when d.src = self ->
      let tag = tag_of d in
      if not (Hashtbl.mem r.first_sent tag) then begin
        Hashtbl.add r.first_sent tag (now ());
        if not (Pdu.is_confirmation d) then begin
          r.rev_data_tags <- tag :: r.rev_data_tags;
          Trace.record r.log (Trace.Submitted { time = now (); src = slot; tag })
        end;
        Repro_clock.Causality.send r.causality_of ~entity:slot ~msg:tag
      end
    | Pdu.Data _ | Pdu.Ret _ | Pdu.Ctl _ -> ());
    actions.broadcast pdu
  in
  let deliver d =
    let tag = tag_of d in
    r.delivered.(slot) <- (now (), tag, d) :: r.delivered.(slot);
    Trace.record r.log (Trace.Delivered { time = now (); entity = slot; tag });
    since tag r.deliver_ms;
    actions.deliver d
  in
  let entity = build { actions with broadcast; deliver } in
  Entity.add_observer entity (function
    | Entity.Accepted d ->
      (* Ground-truth happened-before: acceptance is the paper's receipt
         event r_i[p]. *)
      Repro_clock.Causality.receive r.causality_of ~entity:slot ~msg:(tag_of d)
    | Entity.Preacknowledged d -> since (tag_of d) r.preack_ms
    | Entity.Acknowledged d -> since (tag_of d) r.ack_ms
    | Entity.Gap_detected _ | Entity.Ret_answered _ -> ());
  entity

let recorded_deliveries r ~slot = List.rev r.delivered.(slot)
let first_send r tag = Hashtbl.find_opt r.first_sent tag
let sent_data r = List.rev r.rev_data_tags
let happened_before r = r.causality_of

type t = {
  config : config;
  engine : Engine.t;
  net : Pdu.t Network.t;
  entities : Entity.t array;
  recording : recording;
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
  let recording = recording ~slots:config.n engine (Network.trace net) in
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
    let actions =
      {
        Entity.broadcast =
          (fun pdu ->
            ignore (Network.broadcast net ~src:id (wire_roundtrip pdu)));
        unicast =
          (fun ~dst pdu ->
            ignore (Network.unicast net ~src:id ~dst (wire_roundtrip pdu)));
        deliver = ignore;
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
      record recording ~slot:id ~self:id ~tag:tag_of_key actions
        (fun actions ->
          match checkpoint with
          | None ->
            Entity.create ~config:config.protocol ~id ~n:config.n ~actions
          | Some blob -> (
            match Entity.restore ~config:config.protocol ~actions blob with
            | Ok e -> e
            | Error err ->
              invalid_arg
                (Format.asprintf "Cluster.restart: corrupt checkpoint: %a"
                   Entity.pp_restore_error err)))
    in
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
    recording;
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

let deliveries t ~entity =
  List.map (fun (at, _, d) -> (at, d)) (recorded_deliveries t.recording ~slot:entity)

let delivery_keys t ~entity =
  List.rev_map (fun (_, _, d) -> Pdu.key d) t.recording.delivered.(entity)

let delivery_latencies t = Repro_util.Stats.Acc.samples t.recording.deliver_ms
let preack_latencies t = Repro_util.Stats.Acc.samples t.recording.preack_ms
let ack_latencies t = Repro_util.Stats.Acc.samples t.recording.ack_ms

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
let recorded t = t.recording
let data_tags t = sent_data t.recording
