(* The two real-socket workloads: an n-member Udp_cluster on loopback,
   driven through its public functions only.

   [Closed w]: every member keeps [w] of its own messages outstanding
   until it has delivered them itself; a message is due the moment its
   window slot frees. [Paced rate]: messages are due on a fixed schedule
   of [rate] per second in total, sources in a seeded round-robin order,
   regardless of how the cluster keeps up.

   In a traced rep the benchmark installs a fault hook that takes over
   the ingress of every datagram: it applies the workload's iid loss
   itself, then calls [Codec.decode_any] and [Entity.receive_batch] —
   exactly what the cluster's own ingress does — so both calls get spans
   nested inside the enclosing [Udp_cluster.step]. *)

open Common
module Udp_cluster = Repro_transport.Udp_cluster
module Entity = Repro_core.Entity
module Pdu = Repro_pdu.Pdu
module Codec = Repro_pdu.Codec
module Registry = Repro_obs.Registry
module Exporter = Repro_obs.Exporter
module Wirestats = Repro_obs.Wirestats
module Prng = Repro_util.Prng

type policy = Closed of int | Paced of float

type spec = {
  n : int;
  policy : policy;
  loss : float;
  registry : bool;  (** Attach a Registry and scrape it once a second. *)
  per_source : int;  (** Messages each member issues per rep. *)
}

(* A rep that delivers nothing for [stall_s] is stuck, and one that is
   still running [deadline_s] after its last message was due has failed;
   either way its shortfall counts as failed deliveries. A stuck cluster
   keeps allocating, so giving up early also bounds its memory. *)
let stall_s = 5.
let deadline_s = 25.

(* One scrape as an operator's exporter would do it: mirror the counters,
   then render the exposition. Without an attached registry (a traced rep
   of a workload that runs none) the counters go to a side registry, so
   the cluster itself is unchanged. *)
let scrape c side =
  match side with
  | None -> Udp_cluster.sync_registry c
  | Some reg ->
    for i = 0 to Udp_cluster.size c - 1 do
      Repro_core.Metrics.to_registry
        (Entity.metrics (Udp_cluster.entity c i))
        reg
        ~labels:[ ("entity", string_of_int i) ]
    done;
    Wirestats.to_registry (Udp_cluster.wirestats c) reg

let ingress_hook (tr : Layers.t) c ~loss ~rng ~dst ~src:_ bytes =
  tr.recv_datagrams <- tr.recv_datagrams + 1;
  if loss > 0. && Prng.bernoulli rng ~p:loss then tr.dropped <- tr.dropped + 1
  else begin
    match Layers.decode tr bytes with
    | Error _ -> ()
    | Ok pdus ->
      (* Re-frame one datagram in eight to time the encoder on live
         traffic without doubling the traced rep's codec work. *)
      if tr.recv_datagrams land 7 = 0 then begin
        (* A datagram is either one DATA batch or a single RET/CTL. *)
        match pdus with
        | [ (Pdu.Ret _ | Pdu.Ctl _) as pdu ] ->
          ignore (Layers.encode tr "Codec.encode_v2" ~pdus:1 (fun () ->
              Codec.encode_v2 pdu))
        | _ ->
          let datas =
            List.filter_map (function Pdu.Data d -> Some d | _ -> None) pdus
          in
          if List.length datas = List.length pdus && datas <> [] then
            ignore
              (Layers.encode tr "Codec.encode_data_batch_v2"
                 ~pdus:(List.length datas)
                 (fun () -> Codec.encode_data_batch_v2 datas))
      end;
      Layers.receive_batch tr (Udp_cluster.entity c dst) pdus
  end;
  []

let rep spec ~seed ~(tr : Layers.t option) ~setup_only =
  let n = spec.n and per = spec.per_source in
  let rng = Prng.create ~seed in
  let order = Array.init n Fun.id in
  Prng.shuffle rng order;
  (* --- setup --- *)
  let t0 = now_s () in
  let registry = if spec.registry then Some (Registry.create ()) else None in
  let traced = Option.is_some tr in
  let c =
    Udp_cluster.create ?registry
      ~loss:(if traced then 0. else spec.loss)
      ~seed ~n ()
  in
  let payload = payloads ~sources:n ~per_source:per in
  let due = Array.init n (fun _ -> Array.make per 0.) in
  let submitted_at = Array.init n (fun _ -> Array.make per 0.) in
  let sent = Array.make n 0 in
  let freed = Array.init n (fun _ -> Queue.create ()) in
  let deliveries = ref 0 in
  let progress_at = ref 0. in
  let tap = Fbuf.create () in
  for i = 0 to n - 1 do
    Entity.add_observer (Udp_cluster.entity c i) (function
      | Entity.Acknowledged d when d.payload <> "" ->
        let now = now_s () in
        let src = payload_src d.payload and idx = payload_idx d.payload in
        incr deliveries;
        progress_at := now;
        Fbuf.add tap ((now -. due.(src).(idx)) *. 1e3);
        if d.src = i then Queue.add now freed.(i);
        Option.iter
          (fun (tr : Layers.t) ->
            Fbuf.add tr.ack_ms ((now -. submitted_at.(src).(idx)) *. 1e3))
          tr
      | Entity.Accepted d when traced && d.payload <> "" ->
        Option.iter
          (fun (tr : Layers.t) ->
            Fbuf.add tr.accept_ms
              (Layers.ms_since
                 submitted_at.(payload_src d.payload).(payload_idx d.payload)))
          tr
      | Entity.Preacknowledged d when traced && d.payload <> "" ->
        Option.iter
          (fun (tr : Layers.t) ->
            Fbuf.add tr.preack_ms
              (Layers.ms_since
                 submitted_at.(payload_src d.payload).(payload_idx d.payload)))
          tr
      | _ -> ())
  done;
  let side = if traced && not spec.registry then Some (Registry.create ()) else None in
  Option.iter
    (fun tr ->
      let loss_rng = Prng.create ~seed:(seed + 1) in
      Udp_cluster.set_fault_hook c (ingress_hook tr c ~loss:spec.loss ~rng:loss_rng))
    tr;
  let setup_s = now_s () -. t0 in
  if setup_only then begin
    Udp_cluster.close c;
    Rep.setup_only setup_s
  end
  else
  (* --- timed phase --- *)
  let gc0 = Layers.gc_begin () in
  let t1 = now_s () and cpu1 = cpu_s () in
  let expected = n * n * per in
  let submit src ~due_at =
    let idx = sent.(src) in
    let now = now_s () in
    due.(src).(idx) <- due_at;
    submitted_at.(src).(idx) <- now;
    sent.(src) <- idx + 1;
    match tr with
    | None -> Udp_cluster.submit c ~src payload.(src).(idx)
    | Some tr ->
      Fbuf.add tr.late_ms ((now -. due_at) *. 1e3);
      let (), ns =
        Layers.timed tr Spans.Transport "Udp_cluster.submit" (fun () ->
            Udp_cluster.submit c ~src payload.(src).(idx))
      in
      Fbuf.add tr.submit_us (float_of_int ns /. 1e3)
  in
  let step timeout_s =
    match tr with
    | None -> ignore (Udp_cluster.step c ~timeout_s)
    | Some tr ->
      tr.steps <- tr.steps + 1;
      let _, ns =
        Layers.timed tr Spans.Transport "Udp_cluster.step" (fun () ->
            Udp_cluster.step c ~timeout_s)
      in
      Fbuf.add tr.step_us (float_of_int ns /. 1e3)
  in
  let scrape_now () =
    let render () =
      scrape c side;
      match (registry, side) with
      | Some reg, _ | None, Some reg -> ignore (Exporter.to_prometheus reg)
      | None, None -> ()
    in
    match tr with
    | None -> render ()
    | Some tr ->
      let (), ns = Layers.timed tr Spans.Obs "scrape" render in
      Fbuf.add tr.scrape_ms (float_of_int ns /. 1e6)
  in
  let next_scrape = ref (t1 +. 1.) in
  let maybe_scrape now =
    if spec.registry && now >= !next_scrape then begin
      next_scrape := now +. 1.;
      scrape_now ()
    end
  in
  let deadline = ref (t1 +. deadline_s) in
  progress_at := t1;
  let running () =
    let now = now_s () in
    !deliveries < expected && now < !deadline && now -. !progress_at < stall_s
  in
  (match spec.policy with
  | Closed w ->
    for k = 0 to n - 1 do
      for _ = 1 to min w per do
        submit order.(k) ~due_at:t1
      done
    done;
    while running () do
      step 0.005;
      for k = 0 to n - 1 do
        let i = order.(k) in
        while sent.(i) < per && not (Queue.is_empty freed.(i)) do
          submit i ~due_at:(Queue.pop freed.(i))
        done
      done;
      maybe_scrape (now_s ())
    done
  | Paced rate ->
    let total = n * per in
    let due_of k = t1 +. (float_of_int k /. rate) in
    deadline := due_of total +. deadline_s;
    let k = ref 0 in
    while running () do
      let now = now_s () in
      while !k < total && due_of !k <= now do
        submit order.(!k mod n) ~due_at:(due_of !k);
        incr k
      done;
      maybe_scrape now;
      let wait =
        if !k < total then Float.max 0. (Float.min 0.002 (due_of !k -. now_s ()))
        else 0.005
      in
      step wait
    done);
  let timed_s = now_s () -. t1 and cpu = cpu_s () -. cpu1 in
  let rss_mb = rss_mb () in
  let delivered = !deliveries in
  (* --- untimed: correctness gate, accounting, teardown --- *)
  Option.iter
    (fun tr ->
      Layers.gc_end tr gc0;
      (* Reps can be shorter than the scrape period: every traced rep
         also scrapes once after its timed phase. *)
      scrape_now ())
    tr;
  let gate =
    Gate.check ~sent
      (Array.init n (fun q -> Array.of_list (Udp_cluster.deliveries c ~entity:q)))
  in
  let ws = Udp_cluster.wirestats c in
  Option.iter
    (fun tr ->
      Layers.add_rep tr ~messages:(Array.fold_left ( + ) 0 sent)
        ~deliveries:delivered ~ws ~datagrams:(Udp_cluster.datagrams_sent c)
        (List.init n (Udp_cluster.entity c)))
    tr;
  let wire_bytes = Wirestats.wire_bytes ws in
  Udp_cluster.close c;
  {
    Rep.setup_s;
    timed_s;
    cpu_s = cpu;
    deliveries = delivered;
    wire_bytes;
    rss_mb;
    gate;
    tap_ms = tap;
  }
