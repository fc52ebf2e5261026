module Entity = Repro_core.Entity
module Config = Repro_core.Config
module Pdu = Repro_pdu.Pdu
module Codec = Repro_pdu.Codec
module Simtime = Repro_sim.Simtime
module Registry = Repro_obs.Registry
module Wirestats = Repro_obs.Wirestats
module Trace_ctx = Repro_obs.Trace_ctx
module Monoclock = Repro_util.Monoclock
module Group = Repro_member.Group
module View = Repro_member.View

type timer = { at : Simtime.t; fn : unit -> unit }

(* Where a queued PDU is headed. [All] fans out to every peer (and a
   loopback self-copy); [One] is a point-to-point send — to self it is a
   pure in-process delivery. *)
type dest = All | One of int

type node = {
  id : int;
  socket : Unix.file_descr;
  addr : Unix.sockaddr;
  entity : Entity.t;
  wire : Config.wire_version;  (** Codec this node frames egress with. *)
  traced : bool;
      (** Attach trace ids to this node's v2 DATA frames (no effect on a
          v1 node — the v1 layout has no extension point). *)
  out : (dest * Pdu.t) Queue.t;  (** Egress queue, drained by [flush]. *)
  mutable rev_delivered : Pdu.data list;
}

(* Egress batching caps: a run of DATA PDUs to the same destination is
   packed into one v2 datagram up to these bounds. Both keep a batch
   well under the 64KiB UDP limit even with maximal ACK vectors. *)
let max_batch_pdus = 16
let max_batch_payload = 1024

type t = {
  mutable n : int;
  mutable nodes : node array;
  mutable timers : timer Repro_util.Pqueue.t;
      (* Replaced wholesale at a view change: abandoning the queue is the
         generation guard that keeps a closed epoch's heartbeat and RET
         retries from firing into the new view. *)
  base_config : Config.t;
      (* The epoch-0 template; each view change re-derives the effective
         per-epoch [cid] from it. *)
  mutable epoch : int;
  mutable view_changes : int;
  rng : Repro_util.Prng.t;
  loss : float;
  started_at_mono : int; (* Monoclock µs at creation; stamp origin *)
  started_at_wall : float;
      (* The run's single wall-clock stamp (Unix.gettimeofday at
         creation), kept only so log headers can anchor the monotonic
         stamps to calendar time. Never used in a subtraction. *)
  buf : Bytes.t;
  wirestats : Wirestats.t;
  mutable sent : int;
  mutable dropped : int;
  mutable decode_errors : int;
  mutable closed : bool;
  mutable fault_hook : (dst:int -> src:int -> bytes -> bytes list) option;
  mutable faulted : int;
  registry : Registry.t option;
  recorder : Trace_ctx.t option;
}

(* Monotonic microseconds since cluster creation, as the entities'
   Simtime: latency spans and timer deadlines cannot go negative or
   jump when NTP steps the wall clock mid-run. *)
let now_us t = Monoclock.now_us () - t.started_at_mono

let payload_bytes = function
  | Pdu.Data d -> String.length d.Pdu.payload
  | Pdu.Ret _ | Pdu.Ctl _ -> 0

let frame_one wire pdu =
  match wire with Config.V1 -> Codec.encode pdu | Config.V2 -> Codec.encode_v2 pdu

let send_datagram t node ~dst bytes ~pdus ~payload =
  t.sent <- t.sent + 1;
  Wirestats.record t.wirestats ~pdus ~bytes:(Bytes.length bytes)
    ~payload_bytes:payload;
  ignore
    (Unix.sendto node.socket bytes 0 (Bytes.length bytes) [] t.nodes.(dst).addr)

let ship t node dest bytes ~pdus ~payload =
  match dest with
  | All ->
    for dst = 0 to t.n - 1 do
      if dst <> node.id then send_datagram t node ~dst bytes ~pdus ~payload
    done
  | One dst -> send_datagram t node ~dst bytes ~pdus ~payload

(* A traced node attaches the deterministic trace id of each DATA item
   to its v2 batches (0xB3 frames); untraced and v1 nodes are
   byte-identical to before. *)
let encode_batch t node batch =
  match (node.traced, Option.bind t.recorder Trace_ctx.salt) with
  | true, Some salt ->
    let ids =
      Array.of_list
        (List.map
           (fun (d : Pdu.data) -> Trace_ctx.id ~salt ~src:d.src ~seq:d.seq)
           batch)
    in
    Codec.encode_data_batch_traced ~ids batch
  | true, None | false, _ -> Codec.encode_data_batch_v2 batch

(* Drain one node's egress queue: coalesce consecutive DATA runs to the
   same destination into a single v2 batch datagram (v1 nodes frame each
   PDU alone), collect the loopback self-copies, ship everything, then
   hand the self-copies to the entity in one batch. Processing those may
   enqueue more output (confirmations, RET answers), so loop until the
   queue stays empty. *)
let rec flush_node t node =
  if not (Queue.is_empty node.out) then begin
    let items = List.of_seq (Queue.to_seq node.out) in
    Queue.clear node.out;
    let rev_self = ref [] in
    let loopback pdu = rev_self := pdu :: !rev_self in
    let rec walk = function
      | [] -> ()
      | (dest, Pdu.Data d) :: rest when node.wire = Config.V2 ->
        let rec take acc payload count = function
          | (dest', Pdu.Data d') :: tail
            when dest' = dest && count < max_batch_pdus
                 && payload + String.length d'.Pdu.payload <= max_batch_payload
            ->
            take (d' :: acc)
              (payload + String.length d'.Pdu.payload)
              (count + 1) tail
          | tail -> (List.rev acc, payload, tail)
        in
        let batch, payload, rest =
          take [ d ] (String.length d.Pdu.payload) 1 rest
        in
        (match dest with
        | One dst when dst = node.id ->
          List.iter (fun d -> loopback (Pdu.Data d)) batch
        | All | One _ ->
          let bytes = encode_batch t node batch in
          ship t node dest bytes ~pdus:(List.length batch) ~payload;
          if dest = All then List.iter (fun d -> loopback (Pdu.Data d)) batch);
        walk rest
      | (dest, pdu) :: rest ->
        (match dest with
        | One dst when dst = node.id -> loopback pdu
        | All | One _ ->
          let bytes = frame_one node.wire pdu in
          ship t node dest bytes ~pdus:1 ~payload:(payload_bytes pdu);
          if dest = All then loopback pdu);
        walk rest
    in
    walk items;
    (match List.rev !rev_self with
    | [] -> ()
    | self -> Entity.receive_batch node.entity self);
    flush_node t node
  end

let flush_all t = Array.iter (fun node -> flush_node t node) t.nodes

(* Build a node whose entity is produced by [make] from actions closing
   over the node's own record (egress queue, delivery list). [t_ref] is
   indirect because epoch-0 nodes are built before the cluster record
   exists; timers always read [t.timers] at arm time, so they land in the
   current epoch's queue. *)
let make_node (t_ref : t option ref) ~id ~socket ~addr ~wire ~traced
    ~initial_buf ~rev_delivered make =
  let rec node =
    lazy
      (let actions =
         {
           Entity.broadcast =
             (fun pdu -> Queue.add (All, pdu) (Lazy.force node).out);
           unicast =
             (fun ~dst pdu -> Queue.add (One dst, pdu) (Lazy.force node).out);
           deliver =
             (fun d ->
               let node = Lazy.force node in
               node.rev_delivered <- d :: node.rev_delivered);
           now = (fun () -> now_us (Option.get !t_ref));
           set_timer =
             (fun ~delay fn ->
               let t = Option.get !t_ref in
               Repro_util.Pqueue.push t.timers { at = now_us t + delay; fn });
           available_buffer = (fun () -> initial_buf);
         }
       in
       {
         id;
         socket;
         addr;
         entity = make actions;
         wire;
         traced;
         out = Queue.create ();
         rev_delivered;
       })
  in
  Lazy.force node

(* Monotonic µs since creation for every stamp (see [now_us]). Re-applied
   to the fresh entities after a view change — note the [entity] label is
   the node's {e rank}, which remaps across epochs. *)
let attach_probes t =
  match t.recorder with
  | Some r ->
    Array.iter
      (fun node ->
        Entity.set_probe node.entity
          (Repro_core.Probe.of_recorder r ~entity:node.id
             ~now:(fun () -> now_us t)
             ()))
      t.nodes
  | None -> ()

(* A nonblocking datagram socket bound to an ephemeral loopback port. *)
let bind_loopback () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.set_nonblock fd;
  fd

let create ?registry ?(loss = 0.) ?(seed = 0) ?(config = Config.default) ?wires
    ?traced ~n () =
  if n < 2 then invalid_arg "Udp_cluster.create: n must be >= 2";
  if loss < 0. || loss > 1. then invalid_arg "Udp_cluster.create: loss";
  Config.validate config;
  let wires =
    match wires with
    | None -> Array.make n config.Config.wire
    | Some w ->
      if Array.length w <> n then invalid_arg "Udp_cluster.create: wires";
      Array.copy w
  in
  let traced =
    match traced with
    | None -> Array.make n config.Config.tracing
    | Some tr ->
      if Array.length tr <> n then invalid_arg "Udp_cluster.create: traced";
      Array.copy tr
  in
  let sockets = Array.init n (fun _ -> bind_loopback ()) in
  let addrs = Array.map Unix.getsockname sockets in
  let timers =
    Repro_util.Pqueue.create ~cmp:(fun a b -> Simtime.compare a.at b.at)
  in
  let t_ref = ref None in
  let nodes =
    Array.init n (fun id ->
        make_node t_ref ~id ~socket:sockets.(id) ~addr:addrs.(id)
          ~wire:wires.(id) ~traced:traced.(id)
          ~initial_buf:config.Config.initial_buf ~rev_delivered:[]
          (fun actions -> Entity.create ~config ~id ~n ~actions))
  in
  let uniform =
    Array.for_all (fun w -> w = wires.(0)) wires
  in
  let t =
    {
      n;
      nodes;
      timers;
      base_config = config;
      epoch = 0;
      view_changes = 0;
      rng = Repro_util.Prng.create ~seed;
      loss;
      started_at_mono = Monoclock.now_us ();
      started_at_wall = Unix.gettimeofday ();
      buf = Bytes.create 65536;
      wirestats =
        Wirestats.create
          ~wire:(if uniform then Config.wire_name wires.(0) else "mixed");
      sent = 0;
      dropped = 0;
      decode_errors = 0;
      closed = false;
      fault_hook = None;
      faulted = 0;
      registry;
      recorder =
        (let salt =
           if config.Config.tracing || Array.exists Fun.id traced then
             Some (Trace_ctx.salt_of_seed ~seed)
           else None
         in
         if Option.is_some registry || Option.is_some salt then
           Some (Trace_ctx.create ?registry ?salt ~members:n ())
         else None);
    }
  in
  t_ref := Some t;
  attach_probes t;
  t

let size t = t.n

let submit t ~src payload = ignore (Entity.submit t.nodes.(src).entity payload)

let rec fire_due_timers t fired =
  match Repro_util.Pqueue.peek t.timers with
  | Some timer when Simtime.compare timer.at (now_us t) <= 0 ->
    ignore (Repro_util.Pqueue.pop t.timers);
    timer.fn ();
    fire_due_timers t true
  | Some _ | None -> fired

(* Datagrams carry no entity id outside the payload; recover the sender
   from its bound source address (every entity sends from its own bound
   socket). -1 when the sender is not one of ours. *)
let src_of_addr t from =
  let rec scan i =
    if i >= t.n then -1
    else if t.nodes.(i).addr = from then i
    else scan (i + 1)
  in
  scan 0

(* One surviving copy of a datagram: apply the injected loss, decode, and
   prepend its PDUs (reversed) to [rev_pdus]. A bad datagram counts as one
   decode error however many PDUs it claimed to carry. *)
let offer t rev_pdus datagram =
  if t.loss > 0. && Repro_util.Prng.bernoulli t.rng ~p:t.loss then begin
    t.dropped <- t.dropped + 1;
    rev_pdus
  end
  else
    match Codec.decode_any datagram with
    | Ok pdus -> List.rev_append pdus rev_pdus
    | Error _ ->
      t.decode_errors <- t.decode_errors + 1;
      rev_pdus

(* Read every datagram queued on the node's socket (until EAGAIN), map each
   through the fault hook and [offer], then hand everything decoded, in
   arrival order, to the entity as one batch: the PACK/ACK scans, prune,
   pump and confirmation decision run once per member per step, on the
   whole burst, rather than once per datagram. *)
let drain_socket t node =
  let rec drain got rev_pdus =
    match Unix.recvfrom node.socket t.buf 0 (Bytes.length t.buf) [] with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (got, rev_pdus)
    | len, from ->
      let datagram = Bytes.sub t.buf 0 len in
      let copies =
        match t.fault_hook with
        | None -> [ datagram ]
        | Some f ->
          let copies = f ~dst:node.id ~src:(src_of_addr t from) datagram in
          if copies = [] then t.faulted <- t.faulted + 1;
          copies
      in
      drain true (List.fold_left (offer t) rev_pdus copies)
  in
  let got, rev_pdus = drain false [] in
  (match rev_pdus with
  | [] -> ()
  | _ -> Entity.receive_batch node.entity (List.rev rev_pdus));
  got

let step t ~timeout_s =
  if t.closed then invalid_arg "Udp_cluster.step: closed";
  let fired = fire_due_timers t false in
  (* The one egress flush outside the view-change cut. What the drain
     below queues waits for the next step's, so a burst's confirmations
     share frames with whatever the caller submits in between. *)
  flush_all t;
  (* Wait no longer than the next timer deadline. *)
  let timeout_s =
    match Repro_util.Pqueue.peek t.timers with
    | Some timer ->
      let until = float_of_int (timer.at - now_us t) /. 1e6 in
      max 0. (min timeout_s until)
    | None -> timeout_s
  in
  let fds = Array.to_list (Array.map (fun node -> node.socket) t.nodes) in
  let ready, _, _ = Unix.select fds [] [] timeout_s in
  Array.fold_left
    (fun got node ->
      (List.mem node.socket ready && drain_socket t node) || got)
    fired t.nodes

let run_for t ~seconds =
  (* Monotonic deadline: wall-clock steps (NTP slew, manual set) must not
     stretch or truncate a bounded drive loop. *)
  let deadline = Monoclock.now_s () +. seconds in
  while Monoclock.now_s () < deadline do
    ignore (step t ~timeout_s:(min 0.01 (deadline -. Monoclock.now_s ())))
  done

let quiescent t =
  Array.for_all
    (fun node ->
      Queue.is_empty node.out && Entity.backlog node.entity = 0)
    t.nodes

let run_until_quiescent t ~max_seconds =
  let deadline = Monoclock.now_s () +. max_seconds in
  let rec loop () =
    if Monoclock.now_s () >= deadline then quiescent t
    else if quiescent t then begin
      (* Drain stragglers briefly; state may regress if something arrives. *)
      run_for t ~seconds:0.05;
      if quiescent t then true else loop ()
    end
    else begin
      ignore (step t ~timeout_s:0.01);
      loop ()
    end
  in
  loop ()

type change = Add_node | Remove_node of int

(* The cut's precondition (Group.reconciled) plus drained egress queues.
   Datagrams may still sit in kernel buffers — after the cut they are
   duplicates of PDUs every member already accepted, and the new epoch's
   cid guard fences them off. *)
let reconciled t =
  quiescent t && Group.reconciled (Array.map (fun node -> node.entity) t.nodes)

let commit_view_change t change =
  if t.closed then invalid_arg "Udp_cluster.commit_view_change: closed";
  (match change with
  | Remove_node l when l < 0 || l >= t.n ->
    invalid_arg "Udp_cluster.commit_view_change: rank out of range"
  | Remove_node _ when t.n <= 2 ->
    invalid_arg "Udp_cluster.commit_view_change: view would shrink below 2"
  | Remove_node _ | Add_node -> ());
  if not (reconciled t) then
    Error
      "cluster not reconciled: drive it to quiescence first \
       (run_until_quiescent)"
  else begin
    let old = t.nodes in
    let req = Entity.req old.(0).entity in
    let closing = { View.epoch = t.epoch; members = Array.init t.n Fun.id } in
    let next =
      Result.get_ok
        (View.apply closing
           (match change with Add_node -> Join t.n | Remove_node l -> Leave l))
    in
    let epoch = next.View.epoch in
    let n_new = View.size next in
    let map = View.rank_map ~closing ~next in
    let config' = Group.epoch_config t.base_config ~epoch in
    (* Abandoning the timer queue is the generation guard (see [t.timers]);
       the fresh entities re-arm from [kick] below. *)
    t.timers <-
      Repro_util.Pqueue.create ~cmp:(fun a b -> Simtime.compare a.at b.at);
    t.epoch <- epoch;
    t.view_changes <- t.view_changes + 1;
    Group.count_view_change t.registry ~epoch;
    let t_ref = ref (Some t) in
    (* The joiner restores the very bytes its sponsor (the lowest-ranked
       survivor) would build for its rank — the co-checkpoint-v1 state
       transfer, here shipped in-process since the joiner's socket is born
       on this host. *)
    let sponsor = match map 0 with Some o -> o | None -> assert false in
    t.nodes <-
      Array.init n_new (fun k ->
          let socket, addr, wire, traced, rev_delivered, basis =
            match map k with
            | Some o ->
              (* Survivors keep their sockets: datagrams already in their
                 kernel buffers become the stale stragglers the cid guard
                 must fence. Delivery history continues across epochs. *)
              let s = old.(o) in
              (s.socket, s.addr, s.wire, s.traced, s.rev_delivered, s.entity)
            | None ->
              let fd = bind_loopback () in
              ( fd,
                Unix.getsockname fd,
                t.base_config.Config.wire,
                t.base_config.Config.tracing,
                [],
                old.(sponsor).entity )
          in
          let blob =
            Group.bootstrap t.base_config ~closing ~next ~req ~rank:k basis
          in
          make_node t_ref ~id:k ~socket ~addr ~wire ~traced
            ~initial_buf:config'.Config.initial_buf ~rev_delivered
            (fun actions ->
              match
                Entity.restore ~expect_id:k ~expect_n:n_new ~config:config'
                  ~actions blob
              with
              | Ok e -> e
              | Error err ->
                invalid_arg
                  (Format.asprintf "Udp_cluster: cut bootstrap rejected: %a"
                     Entity.pp_restore_error err)));
    t.n <- n_new;
    (match change with
    | Remove_node l -> (
      (* The leaver's socket dies with its epoch; stale datagrams queued on
         it vanish — uniformly forgotten, which is legal post-barrier (no
         member still needs them). *)
      try Unix.close old.(l).socket with Unix.Unix_error _ -> ())
    | Add_node -> ());
    (* The closed epoch's (rank, seq) stamps would be read against the
       remapped ranks' fresh PDUs. *)
    Option.iter (Trace_ctx.cut ~members:n_new) t.recorder;
    attach_probes t;
    Array.iter (fun node -> Entity.kick node.entity) t.nodes;
    flush_all t;
    Ok ()
  end

let epoch t = t.epoch
let view_changes t = t.view_changes

let deliveries t ~entity = List.rev t.nodes.(entity).rev_delivered

let entity t i = t.nodes.(i).entity

let port t i =
  match t.nodes.(i).addr with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Udp_cluster.port: not an inet socket"

let set_fault_hook t f = t.fault_hook <- Some f
let clear_fault_hook t = t.fault_hook <- None
let datagrams_sent t = t.sent
let datagrams_dropped t = t.dropped
let datagrams_faulted t = t.faulted
let decode_errors t = t.decode_errors
let recorder t = t.recorder
let started_at_wall t = t.started_at_wall
let wirestats t = t.wirestats

let sync_registry t =
  match t.registry with
  | None -> ()
  | Some reg ->
    Array.iter
      (fun node ->
        Repro_core.Metrics.to_registry (Entity.metrics node.entity) reg
          ~labels:[ ("entity", string_of_int node.id) ])
      t.nodes;
    let c ~help name v =
      Registry.counter_set (Registry.counter reg ~help ~name []) v
    in
    c ~help:"UDP datagrams put on the wire" "co_udp_datagrams_sent_total"
      t.sent;
    c ~help:"Incoming datagrams dropped by injected loss"
      "co_udp_datagrams_dropped_total" t.dropped;
    c ~help:"Datagrams that failed PDU decoding" "co_udp_decode_errors_total"
      t.decode_errors;
    Wirestats.to_registry t.wirestats reg

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter (fun node -> try Unix.close node.socket with Unix.Unix_error _ -> ()) t.nodes
  end
