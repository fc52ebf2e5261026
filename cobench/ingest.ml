(* The single-entity ingest path: one Entity (id 0 of n) fed by n-1
   scripted peers, the shape of the repo's [throughput] scenario. Each
   round is one v2 batch datagram carrying one PDU from every peer, which
   goes through [Codec.decode_any] and then [Entity.receive_batch]; the
   entity's own confirmations loop back in-process. Peers confirm each
   other [lag] rounds late, so ~(n-1)·lag PDUs sit in the PRL. No
   sockets, timers or anti-entropy.

   A round is due when the previous one has been processed (a closed
   loop of depth one); tap runs from that due time to the delivery. *)

open Common
module Entity = Repro_core.Entity
module Config = Repro_core.Config
module Pdu = Repro_pdu.Pdu
module Codec = Repro_pdu.Codec
module Wirestats = Repro_obs.Wirestats
module Registry = Repro_obs.Registry
module Exporter = Repro_obs.Exporter

let n = 8
let lag = 32

let config =
  {
    Config.default with
    Config.defer = Config.Immediate;
    window = 64;
    initial_buf = 4096;
    retain_arl = false;
    anti_entropy = false;
  }

let rep ~per_source ~seed ~(tr : Layers.t option) ~setup_only =
  (* --- setup --- *)
  let t0 = now_s () in
  let delivered_rev = ref [] in
  let loopback = Queue.create () in
  let actions =
    {
      Entity.broadcast = (fun pdu -> Queue.push pdu loopback);
      unicast = (fun ~dst:_ _ -> ());
      deliver = (fun d -> delivered_rev := d :: !delivered_rev);
      now = (fun () -> 0);
      set_timer = (fun ~delay:_ _ -> ());
      available_buffer = (fun () -> 4096);
    }
  in
  let e = Entity.create ~config ~id:0 ~n ~actions in
  let ws = Wirestats.create ~wire:"v2" in
  (* The seed rotates which peer leads each batch; the protocol must not
     care, so neither may the figures. *)
  let rotation = 1 + (abs seed mod (n - 1)) in
  let peers = Array.init (n - 1) (fun k -> 1 + ((k + rotation) mod (n - 1))) in
  let payload =
    Array.init n (fun src -> if src = 0 then [||] else
      Array.init per_source (fun idx -> make_payload ~src ~idx))
  in
  let due = Array.make per_source 0. in
  let tap = Fbuf.create () in
  let deliveries = ref 0 in
  Entity.add_observer e (function
    | Entity.Acknowledged d when d.payload <> "" ->
      let now = now_s () in
      incr deliveries;
      let ms = (now -. due.(payload_idx d.payload)) *. 1e3 in
      Fbuf.add tap ms;
      Option.iter (fun (tr : Layers.t) -> Fbuf.add tr.ack_ms ms) tr
    | Entity.Accepted d when d.payload <> "" ->
      Option.iter
        (fun (tr : Layers.t) ->
          Fbuf.add tr.accept_ms (Layers.ms_since due.(payload_idx d.payload)))
        tr
    | Entity.Preacknowledged d when d.payload <> "" ->
      Option.iter
        (fun (tr : Layers.t) ->
          Fbuf.add tr.preack_ms (Layers.ms_since due.(payload_idx d.payload)))
        tr
    | _ -> ());
  let setup_s = now_s () -. t0 in
  if setup_only then Rep.setup_only setup_s
  else
  (* --- timed phase --- *)
  let mk ~src ~seq ~ack ~payload =
    match Pdu.data ~cid:0 ~src ~seq ~ack ~buf:4096 ~payload with
    | Pdu.Data d -> d
    | Pdu.Ret _ | Pdu.Ctl _ -> assert false
  in
  let drain_loopback () =
    while not (Queue.is_empty loopback) do
      let rev = ref [] in
      while not (Queue.is_empty loopback) do
        rev := Queue.pop loopback :: !rev
      done;
      let pdus = List.rev !rev in
      match tr with
      | None -> Entity.receive_batch e pdus
      | Some tr -> Layers.receive_batch tr e pdus
    done
  in
  let frame ~pdus ~payload_bytes f =
    let bytes =
      match tr with
      | None -> f ()
      | Some tr ->
        let bytes, ns =
          Layers.timed tr Spans.Transport "medium.submit" (fun () ->
              Layers.encode tr "Codec.encode_data_batch_v2" ~pdus f)
        in
        Fbuf.add tr.submit_us (float_of_int ns /. 1e3);
        bytes
    in
    Wirestats.record ws ~pdus ~bytes:(Bytes.length bytes) ~payload_bytes;
    bytes
  in
  let ingest bytes =
    match tr with
    | None -> (
      match Codec.decode_any bytes with
      | Ok pdus ->
        Entity.receive_batch e pdus;
        drain_loopback ()
      | Error _ -> failwith "ingest: undecodable batch")
    | Some tr ->
      tr.steps <- tr.steps + 1;
      tr.recv_datagrams <- tr.recv_datagrams + 1;
      let (), ns =
        Layers.timed tr Spans.Transport "medium.step" (fun () ->
            match Layers.decode tr bytes with
            | Ok pdus ->
              Layers.receive_batch tr e pdus;
              drain_loopback ()
            | Error _ -> ())
      in
      Fbuf.add tr.step_us (float_of_int ns /. 1e3)
  in
  (* Peer j's ACK vector in round s: it has accepted all of our
     broadcasts, its own stream up to s, and the other peers' streams only
     up to [ack_others]. *)
  let round ~s ~ack_others ~idx =
    let build () =
      List.map
        (fun j ->
          let ack = Array.make n ack_others in
          ack.(0) <- Entity.seq_next e;
          ack.(j) <- s;
          let payload = if idx < 0 then "" else payload.(j).(idx) in
          mk ~src:j ~seq:s ~ack ~payload)
        (Array.to_list peers)
    in
    let batch =
      match tr with
      | None -> build ()
      | Some tr -> fst (Layers.timed tr Spans.Loadgen "peers.build" build)
    in
    let payload_bytes = if idx < 0 then 0 else (n - 1) * payload_size in
    let bytes =
      frame ~pdus:(n - 1) ~payload_bytes (fun () ->
          Codec.encode_data_batch_v2 batch)
    in
    Option.iter
      (fun (tr : Layers.t) ->
        if idx >= 0 then Fbuf.add tr.late_ms ((now_s () -. due.(idx)) *. 1e3))
      tr;
    ingest bytes
  in
  let gc0 = Layers.gc_begin () in
  let t1 = now_s () and cpu1 = cpu_s () in
  for s = 1 to per_source do
    due.(s - 1) <- now_s ();
    round ~s ~ack_others:(max 1 (s - lag)) ~idx:(s - 1)
  done;
  (* Flush: empty rounds with caught-up ACK vectors drain the lagged tail;
     a CTL per round prompts the entity's own confirmation. *)
  for r = 1 to lag + 2 do
    let s = per_source + r in
    round ~s ~ack_others:s ~idx:(-1);
    let ack = Array.make n s in
    ack.(0) <- Entity.seq_next e;
    ack.(1) <- s + 1;
    let ctl = Pdu.ctl ~cid:0 ~src:1 ~ack ~buf:4096 in
    let bytes =
      match tr with
      | None -> Codec.encode_v2 ctl
      | Some tr ->
        Layers.encode tr "Codec.encode_v2" ~pdus:1 (fun () -> Codec.encode_v2 ctl)
    in
    Wirestats.record ws ~pdus:1 ~bytes:(Bytes.length bytes) ~payload_bytes:0;
    ingest bytes
  done;
  let timed_s = now_s () -. t1 and cpu = cpu_s () -. cpu1 in
  let rss_mb = rss_mb () in
  (* --- untimed --- *)
  Option.iter
    (fun tr ->
      Layers.gc_end tr gc0;
      (* A rep is shorter than the 1 s scrape period, so a traced rep is
         scraped once, after its timed phase. *)
      let reg = Registry.create () in
      let (), ns =
        Layers.timed tr Spans.Obs "scrape" (fun () ->
            Repro_core.Metrics.to_registry (Entity.metrics e) reg
              ~labels:[ ("entity", "0") ];
            Wirestats.to_registry ws reg;
            ignore (Exporter.to_prometheus reg))
      in
      Fbuf.add tr.scrape_ms (float_of_int ns /. 1e6))
    tr;
  let sent = Array.init n (fun src -> if src = 0 then 0 else per_source) in
  let gate =
    Gate.check ~sent [| Array.of_list (List.rev !delivered_rev) |]
  in
  Option.iter
    (fun tr ->
      Layers.add_rep tr ~messages:((n - 1) * per_source)
        ~deliveries:!deliveries ~ws ~datagrams:(Wirestats.datagrams ws) [ e ])
    tr;
  {
    Rep.setup_s;
    timed_s;
    cpu_s = cpu;
    deliveries = !deliveries;
    wire_bytes = Wirestats.wire_bytes ws;
    rss_mb;
    gate;
    tap_ms = tap;
  }
