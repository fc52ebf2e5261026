type 'a config = {
  topology : Topology.t;
  inbox_capacity : int;
  service_time : 'a -> Simtime.t;
  transmit_time : 'a -> Simtime.t;
  loss_prob : float;
  seed : int;
}

type 'a inflight = { uid : int; src : int; payload : 'a }

type 'a endpoint = {
  id : int;
  inbox : 'a inflight Repro_util.Ring_buffer.t;
  mutable handler : (src:int -> 'a -> unit) option;
  mutable busy : bool;  (* the endpoint processor is serving a message *)
}

type 'a t = {
  engine : Engine.t;
  config : 'a config;
  endpoints : 'a endpoint array;
  rng : Repro_util.Prng.t;
  trace : Trace.t;
  mutable next_uid : int;
  mutable fault_hook : (dst:int -> src:int -> 'a -> 'a list) option;
  mutable service_hook : (dst:int -> Simtime.t -> Simtime.t) option;
  mutable sent_copies : int;
  mutable lost_copies : int;
}

let default_config topology =
  {
    topology;
    inbox_capacity = 64;
    service_time = (fun _ -> Simtime.of_us 10);
    transmit_time = (fun _ -> Simtime.zero);
    loss_prob = 0.;
    seed = 0;
  }

let create engine config =
  if config.inbox_capacity <= 0 then
    invalid_arg "Network.create: inbox_capacity must be > 0";
  if config.loss_prob < 0. || config.loss_prob > 1. then
    invalid_arg "Network.create: loss_prob out of range";
  let n = Topology.n config.topology in
  {
    engine;
    config;
    endpoints =
      Array.init n (fun id ->
          {
            id;
            inbox = Repro_util.Ring_buffer.create ~capacity:config.inbox_capacity;
            handler = None;
            busy = false;
          });
    rng = Repro_util.Prng.create ~seed:config.seed;
    trace = Trace.create ();
    next_uid = 0;
    fault_hook = None;
    service_hook = None;
    sent_copies = 0;
    lost_copies = 0;
  }

let n t = Array.length t.endpoints
let engine t = t.engine
let trace t = t.trace

let attach t ~id ~handler =
  if id < 0 || id >= n t then invalid_arg "Network.attach: id out of range";
  let ep = t.endpoints.(id) in
  if ep.handler <> None then invalid_arg "Network.attach: handler already set";
  ep.handler <- Some handler

(* Serve the inbox: process the head message, then continue while non-empty.
   [busy] guards against double-scheduling when messages arrive while a
   previous service interval is still running. *)
let rec start_service t ep =
  match Repro_util.Ring_buffer.peek ep.inbox with
  | None -> ep.busy <- false
  | Some m ->
    ep.busy <- true;
    let d = t.config.service_time m.payload in
    let d =
      match t.service_hook with Some f -> f ~dst:ep.id d | None -> d
    in
    Engine.schedule_after t.engine ~delay:d (fun () ->
        (* The head may only be [m]: arrivals go to the tail. *)
        (match Repro_util.Ring_buffer.pop ep.inbox with
        | Some head -> assert (head.uid = m.uid)
        | None -> assert false);
        Trace.record t.trace
          (Handled { time = Engine.now t.engine; dst = ep.id; uid = m.uid });
        (match ep.handler with
        | Some h -> h ~src:m.src m.payload
        | None -> ());
        start_service t ep)

let enqueue_copy t ~dst (m : 'a inflight) =
  let now = Engine.now t.engine in
  let ep = t.endpoints.(dst) in
  if Repro_util.Prng.bernoulli t.rng ~p:t.config.loss_prob then begin
    t.lost_copies <- t.lost_copies + 1;
    Trace.record t.trace (Dropped { time = now; dst; uid = m.uid; reason = Injected })
  end
  else if not (Repro_util.Ring_buffer.push ep.inbox m) then begin
    (* Inbox full: the buffer-overrun loss of the MC service. *)
    t.lost_copies <- t.lost_copies + 1;
    Trace.record t.trace (Dropped { time = now; dst; uid = m.uid; reason = Overrun })
  end
  else begin
    Trace.record t.trace (Arrived { time = now; dst; uid = m.uid });
    if not ep.busy then start_service t ep
  end

let arrive t ~dst (m : 'a inflight) =
  let now = Engine.now t.engine in
  let ep = t.endpoints.(dst) in
  if dst = m.src then begin
    (* Lossless loopback: the sender already holds the PDU in its sending
       log, so its own copy bypasses the bounded inbox and is handled at
       arrival time with no service delay. Faults never apply to loopback —
       a crashed sender stops transmitting at the source instead. *)
    Trace.record t.trace (Arrived { time = now; dst; uid = m.uid });
    Trace.record t.trace (Handled { time = now; dst; uid = m.uid });
    match ep.handler with Some h -> h ~src:m.src m.payload | None -> ()
  end
  else begin
    match t.fault_hook with
    | None -> enqueue_copy t ~dst m
    | Some hook -> (
      match hook ~dst ~src:m.src m.payload with
      | [] ->
        t.lost_copies <- t.lost_copies + 1;
        Trace.record t.trace
          (Dropped { time = now; dst; uid = m.uid; reason = Faulted })
      | copies ->
        (* One entry passes the copy through (possibly corrupted); extra
           entries model datagram duplication. *)
        List.iter (fun payload -> enqueue_copy t ~dst { m with payload }) copies)
  end

let send_copy t ~src ~dst ~uid payload =
  let dispatch_delay = t.config.transmit_time payload in
  let prop = Topology.delay t.config.topology ~src ~dst in
  t.sent_copies <- t.sent_copies + 1;
  Engine.schedule_after t.engine
    ~delay:(Simtime.add dispatch_delay prop)
    (fun () -> arrive t ~dst { uid; src; payload })

let fresh_uid t =
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  uid

let broadcast t ~src payload =
  if src < 0 || src >= n t then invalid_arg "Network.broadcast: src out of range";
  let uid = fresh_uid t in
  Trace.record t.trace (Sent { time = Engine.now t.engine; src; uid });
  for dst = 0 to n t - 1 do
    send_copy t ~src ~dst ~uid payload
  done;
  uid

let unicast t ~src ~dst payload =
  if src < 0 || src >= n t then invalid_arg "Network.unicast: src out of range";
  if dst < 0 || dst >= n t then invalid_arg "Network.unicast: dst out of range";
  let uid = fresh_uid t in
  Trace.record t.trace (Sent { time = Engine.now t.engine; src; uid });
  send_copy t ~src ~dst ~uid payload;
  uid

let available_buffer t id = Repro_util.Ring_buffer.available t.endpoints.(id).inbox

let set_fault_hook t f = t.fault_hook <- Some f
let clear_fault_hook t = t.fault_hook <- None
let set_service_hook t f = t.service_hook <- Some f

let transmissions t = t.sent_copies
let losses t = t.lost_copies
