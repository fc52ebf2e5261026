module Config = Repro_core.Config
module Entity = Repro_core.Entity
module Cluster = Repro_core.Cluster
module Engine = Repro_sim.Engine
module Network = Repro_sim.Network
module Simtime = Repro_sim.Simtime
module Topology = Repro_sim.Topology
module Trace = Repro_sim.Trace
module Registry = Repro_obs.Registry
module Pdu = Repro_pdu.Pdu
module Codec = Repro_pdu.Codec
module Memberwire = Repro_pdu.Memberwire

type packet = Proto of Pdu.t | Control of Memberwire.t

type config = {
  max_nodes : int;
  protocol : Config.t;
  topology : Topology.t;
  inbox_capacity : int;
  service_time : Simtime.t;
  loss_prob : float;
  seed : int;
  control_period : Simtime.t;
  registry : Registry.t option;
}

let default_config ~max_nodes =
  {
    max_nodes;
    protocol = { Config.default with retain_arl = true };
    topology = Topology.uniform ~n:max_nodes ~delay:(Simtime.of_ms 1);
    inbox_capacity = 64;
    service_time = Simtime.of_us (40 + (12 * max_nodes));
    loss_prob = 0.0;
    seed = 0;
    control_period = Simtime.of_ms 5;
    registry = None;
  }

(* Effective cluster id of one epoch. Injective in (cid, epoch) for
   epoch < 2^20, and never 0-colliding with a different base cid, so the
   entity's receive-path cid guard is exactly the epoch guard. *)
let epoch_cid ~cid ~epoch = (cid lsl 20) lor (epoch + 1)

let epoch_config base ~epoch =
  { base with Config.cid = epoch_cid ~cid:base.Config.cid ~epoch; epoch }

(* ------------------------------------------------------------------ *)
(* Epoch cut-over: the one translation of a closing epoch's reconciled
   state into the next view, shared by every host that commits views.  *)

(* Column maxima of a REQ matrix, floored at 1: the reconciled cut. *)
let cut_req m =
  Array.init (Array.length m) (fun k ->
      Array.fold_left (fun acc row -> max acc row.(k)) 1 m)

let reconciled entities =
  let r0 = Entity.req entities.(0) in
  Array.for_all (fun e -> Entity.backlog e = 0 && Entity.req e = r0) entities

(* REQ carries over per surviving source (a joiner's column starts at 1),
   and the accepted-header table is re-homed the same way so
   Transitive-mode reach computation keeps terminating across the cut. *)
let bootstrap base ~closing ~next ~req ~rank basis =
  let n_new = View.size next in
  let map = View.rank_map ~closing ~next in
  let inv = Array.make (View.size closing) (-1) in
  for r = 0 to n_new - 1 do
    match map r with Some o -> inv.(o) <- r | None -> ()
  done;
  let remap_vec v =
    Array.init n_new (fun r -> match map r with Some o -> v.(o) | None -> 1)
  in
  let headers =
    (* Quiesced entities keep confirming while the coordinator converges,
       so the table can hold entries at or above the cut — empty sequenced
       confirmations the commit uniformly forgets (every member restarts
       from the same REQ, and senders reuse those numbers in the new
       epoch). Only the sub-cut history of surviving sources crosses the
       boundary. *)
    List.filter_map
      (fun (src, seq, ack) ->
        if inv.(src) >= 0 && seq < req.(src) then
          Some (inv.(src), seq, remap_vec ack)
        else None)
      (Entity.header_entries basis)
  in
  Entity.bootstrap_checkpoint
    ~config:(epoch_config base ~epoch:next.View.epoch)
    ~id:rank ~n:n_new ~req:(remap_vec req) ~headers

(* Coordinator-side barrier for one view change. *)
type barrier = {
  b_change : Memberwire.change;
  b_closing : View.t;
  b_next : View.t;
  b_required : int list;  (* gids that must report: closing minus evictee *)
  b_reports : (int, int array * bool) Hashtbl.t;  (* gid -> (req, flushed) *)
  mutable b_commit : Memberwire.t option;  (* the Commit frame, once built *)
  mutable b_committed_at : Simtime.t;
}

type transfer = {
  x_target : int;
  x_frame : Memberwire.t;
  x_since : Simtime.t;  (* resend while the target stays silent past this *)
}

type node = {
  gid : int;
  mutable down : bool;
  (* Bumped whenever this node's protocol identity changes (epoch install,
     crash, revive): per-entity timers capture the value at arm time and
     refuse to fire against a newer one, so a replaced entity's timer wheel
     dies silently instead of poking the successor. *)
  mutable generation : int;
  mutable view : View.t option;
  mutable entity : Entity.t option;
  mutable quiescing : Memberwire.change option;
  mutable barrier : barrier option;  (* present while this node coordinates *)
  mutable proposals : Memberwire.change list;  (* queued behind the barrier *)
  mutable transfer : transfer option;  (* sponsor duty toward a joiner *)
  mutable last_commit : Memberwire.t option;  (* replayed to stragglers *)
}

type t = {
  config : config;
  engine : Engine.t;
  net : packet Network.t;
  nodes : node array;
  recording : Cluster.recording;  (* slots are gids *)
  last_heard : Simtime.t array;  (* by gid; group-wide liveness evidence *)
  mutable latest : View.t;
  mutable view_changes : int;
  mutable state_transfer_bytes : int;
  mutable stale_epoch : int;
  mutable repair_pdus : int;
  mutable evictions : int;
}

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let m_counter t ?help name labels f =
  match t.config.registry with
  | None -> ()
  | Some reg -> f (Registry.counter reg ?help ~name labels)

let count_view_change registry ~epoch =
  Option.iter
    (fun reg ->
      Registry.inc
        (Registry.counter reg ~help:"Committed membership view changes"
           ~name:"co_view_changes_total"
           [ ("epoch", string_of_int epoch) ]))
    registry

let m_state_bytes t ~by =
  m_counter t ~help:"co-checkpoint-v1 bytes shipped in STATE frames"
    "co_state_transfer_bytes_total" []
    (Registry.inc ~by)

let m_stale t =
  m_counter t ~help:"Data PDUs dropped by the epoch guard"
    "co_stale_epoch_total" [] Registry.inc

let m_repair t ~by =
  m_counter t ~help:"PDUs pushed in barrier REPAIR frames"
    "co_repair_pdus_total" []
    (Registry.inc ~by)

let m_evict t =
  m_counter t ~help:"Evictions proposed by the suspicion policy"
    "co_evictions_total" [] Registry.inc

(* ------------------------------------------------------------------ *)
(* Wire round-trips: everything crossing the medium passes through its
   codec, exactly like Cluster does for the data plane.                *)

let proto_roundtrip t pdu =
  let frame =
    match t.config.protocol.Config.wire with
    | Config.V1 -> Codec.encode pdu
    | Config.V2 -> Codec.encode_v2 pdu
  in
  match Codec.decode_any frame with
  | Ok [ p ] -> p
  | Ok _ | Error _ -> invalid_arg "Group: data-plane wire round-trip failed"

let control_roundtrip frame =
  match Memberwire.decode (Memberwire.encode frame) with
  | Ok f -> f
  | Error _ -> invalid_arg "Group: member-frame wire round-trip failed"

let bcast_control t ~src frame =
  ignore (Network.broadcast t.net ~src (Control (control_roundtrip frame)))

let ucast_control t ~src ~dst frame =
  ignore (Network.unicast t.net ~src ~dst (Control (control_roundtrip frame)))

let base_cid t = t.config.protocol.Config.cid

(* ------------------------------------------------------------------ *)
(* Entity installation                                                 *)

let tag_source t tag =
  let stream = fst (Cluster.key_of_tag tag) in
  (stream / t.config.max_nodes, stream mod t.config.max_nodes)

let wire_actions t nd ~view =
  let gen = nd.generation in
  let gid = nd.gid in
  {
    Entity.broadcast =
      (fun pdu ->
        ignore (Network.broadcast t.net ~src:gid (Proto (proto_roundtrip t pdu))));
    unicast =
      (fun ~dst pdu ->
        let dgid = View.node view ~rank:dst in
        ignore
          (Network.unicast t.net ~src:gid ~dst:dgid
             (Proto (proto_roundtrip t pdu))));
    deliver = ignore;
    now = (fun () -> Engine.now t.engine);
    set_timer =
      (fun ~delay f ->
        Engine.schedule_after t.engine ~delay (fun () ->
            if (not nd.down) && nd.generation = gen then f ()));
    available_buffer = (fun () -> Network.available_buffer t.net gid);
  }

let install t nd ~view ~rank ~via =
  nd.generation <- nd.generation + 1;
  let epoch = view.View.epoch in
  let config = epoch_config t.config.protocol ~epoch in
  (* PDU tags name (epoch, source gid, seq): sequence numbers restart for
     a rejoiner and are reused above a cut, never within one epoch. *)
  let tag ~src ~seq =
    let node = View.node view ~rank:src in
    Cluster.tag_of_key ~src:((epoch * t.config.max_nodes) + node) ~seq
  in
  let e =
    Cluster.record t.recording ~slot:nd.gid ~self:rank ~tag
      (wire_actions t nd ~view)
      (fun actions ->
        match via with
        | `Create -> Entity.create ~config ~id:rank ~n:(View.size view) ~actions
        | `Restore blob -> (
          match
            Entity.restore ~expect_id:rank ~expect_n:(View.size view) ~config
              ~actions blob
          with
          | Ok e -> e
          | Error err ->
            failwith
              (Format.asprintf "Group: node %d rejected epoch-%d bootstrap: %a"
                 nd.gid epoch Entity.pp_restore_error err)))
  in
  nd.entity <- Some e;
  nd.view <- Some view;
  nd.quiescing <- None;
  if view.View.epoch > t.latest.View.epoch then t.latest <- view

let drop_membership t nd =
  ignore t;
  nd.generation <- nd.generation + 1;
  nd.entity <- None;
  nd.view <- None;
  nd.quiescing <- None

(* ------------------------------------------------------------------ *)
(* Barrier: member side                                                *)

let coordinator_gid nd v =
  let excluding =
    match nd.quiescing with
    | Some (Memberwire.Evict g) -> Some g
    | _ -> None
  in
  View.coordinator ?excluding v

let send_report t nd =
  match (nd.view, nd.entity) with
  | Some v, Some e ->
    let frame =
      Memberwire.Report
        {
          cid = base_cid t;
          epoch = v.View.epoch;
          member = nd.gid;
          req = Entity.req e;
          flushed = Entity.queued_requests e = 0;
        }
    in
    ucast_control t ~src:nd.gid ~dst:(coordinator_gid nd v) frame
  | _ -> ()

(* Fence new sends and start the report heartbeat. Idempotent: a repeated
   Propose for the change already being quiesced is a no-op. *)
let quiesce t nd change =
  if nd.quiescing = None then begin
    nd.quiescing <- Some change;
    let gen = nd.generation in
    let rec tick () =
      if (not nd.down) && nd.generation = gen && nd.quiescing <> None then begin
        send_report t nd;
        Engine.schedule_after t.engine ~delay:t.config.control_period tick
      end
    in
    tick ()
  end

(* ------------------------------------------------------------------ *)
(* Barrier: coordinator side                                           *)

let reqs_matrix b =
  (* Row per closing rank. A rank that has no report (only ever the evict
     target) is presumed fully replicated (max of the known rows): nobody
     pushes repairs *to* the departed, while its own PDUs still get
     re-homed from whichever survivor's row genuinely is the maximum. *)
  let n = View.size b.b_closing in
  let known =
    Array.map
      (fun gid -> Hashtbl.find_opt b.b_reports gid)
      b.b_closing.View.members
  in
  let col_max k =
    Array.fold_left
      (fun acc row -> match row with Some (r, _) -> max acc r.(k) | None -> acc)
      1 known
  in
  Array.init n (fun j ->
      match known.(j) with
      | Some (r, _) -> Array.copy r
      | None -> Array.init n col_max)

let converged b =
  List.for_all
    (fun gid ->
      match Hashtbl.find_opt b.b_reports gid with
      | Some (_, flushed) -> flushed
      | None -> false)
    b.b_required
  &&
  let rows =
    List.filter_map (fun gid -> Hashtbl.find_opt b.b_reports gid) b.b_required
  in
  match rows with
  | [] -> false
  | (first, _) :: rest -> List.for_all (fun (r, _) -> r = first) rest

let try_commit t nd b =
  if b.b_commit = None && converged b then begin
    (* Every required row is identical; lift the evictee's presumed row to
       the common vector too so close_epoch opens every gate. *)
    let r_final = cut_req (reqs_matrix b) in
    let cut =
      Array.init (View.size b.b_closing) (fun _ -> Array.copy r_final)
    in
    let frame =
      Memberwire.Commit { cid = base_cid t; view = b.b_next; cut }
    in
    b.b_commit <- Some frame;
    b.b_committed_at <- Engine.now t.engine;
    nd.last_commit <- Some frame;
    t.view_changes <- t.view_changes + 1;
    count_view_change t.config.registry ~epoch:b.b_next.View.epoch;
    bcast_control t ~src:nd.gid frame
  end

let propose_frame t ~origin ~epoch change =
  Memberwire.Propose { cid = base_cid t; origin; epoch; change }

(* Dispatch any proposals that queued up behind a finished barrier: the
   old coordinator re-broadcasts them as fresh requests against the new
   epoch, and whoever now coordinates picks them up. *)
let redispatch_proposals t nd =
  let queued = nd.proposals in
  nd.proposals <- [];
  List.iter
    (fun change ->
      match View.apply t.latest change with
      | Error _ -> ()  (* overtaken by the change that just committed *)
      | Ok _ ->
        bcast_control t ~src:nd.gid
          (propose_frame t ~origin:nd.gid ~epoch:t.latest.View.epoch change))
    queued

let rec coordinator_tick t nd b () =
  match nd.barrier with
  | Some b' when b' == b -> (
    let rearm () =
      Engine.schedule_after t.engine ~delay:t.config.control_period
        (coordinator_tick t nd b)
    in
    match b.b_commit with
    | None ->
      (* Still collecting: re-solicit quiescence and, once everyone has
         spoken at least once, publish the matrix so holders push repairs
         to laggards. *)
      bcast_control t ~src:nd.gid
        (propose_frame t ~origin:nd.gid ~epoch:b.b_closing.View.epoch
           b.b_change);
      if
        List.for_all (fun gid -> Hashtbl.mem b.b_reports gid) b.b_required
        && not (converged b)
      then
        bcast_control t ~src:nd.gid
          (Memberwire.Reconcile
             {
               cid = base_cid t;
               epoch = b.b_closing.View.epoch;
               reqs = reqs_matrix b;
             });
      try_commit t nd b;
      rearm ()
    | Some commit ->
      (* Post-commit duties: keep the Commit visible until the dust
         settles, then retire the barrier and let queued proposals run. *)
      let joiner =
        match b.b_change with Memberwire.Join g -> Some g | _ -> None
      in
      let joiner_heard =
        match joiner with
        | None -> true
        | Some g -> Simtime.compare t.last_heard.(g) b.b_committed_at > 0
      in
      let grace =
        Simtime.compare
          Simtime.(Engine.now t.engine - b.b_committed_at)
          Simtime.(t.config.control_period + t.config.control_period)
        >= 0
      in
      if joiner_heard && grace then begin
        ignore commit;
        nd.barrier <- None;
        redispatch_proposals t nd
      end
      else rearm ())
  | _ -> ()

let change_target = function
  | Memberwire.Join g | Memberwire.Leave g | Memberwire.Evict g -> g

let start_barrier t nd change =
  match nd.view with
  | None -> ()
  | Some closing -> (
    match View.apply closing change with
    | Error _ -> ()  (* no-op change (already applied / would break the view) *)
    | Ok next ->
      let required =
        Array.to_list closing.View.members
        |> List.filter (fun g ->
               match change with Memberwire.Evict e -> g <> e | _ -> true)
      in
      let b =
        {
          b_change = change;
          b_closing = closing;
          b_next = next;
          b_required = required;
          b_reports = Hashtbl.create 8;
          b_commit = None;
          b_committed_at = Simtime.zero;
        }
      in
      nd.barrier <- Some b;
      (* Accepted: announce with origin = coordinator, which is every
         member's cue (ours included, via loopback) to quiesce. *)
      bcast_control t ~src:nd.gid
        (propose_frame t ~origin:nd.gid ~epoch:closing.View.epoch change);
      Engine.schedule_after t.engine ~delay:t.config.control_period
        (coordinator_tick t nd b))

(* ------------------------------------------------------------------ *)
(* State transfer (sponsor side)                                       *)

let rec transfer_tick t nd x () =
  match nd.transfer with
  | Some x' when x' == x ->
    if Simtime.compare t.last_heard.(x.x_target) x.x_since > 0 then
      nd.transfer <- None
    else begin
      (match x.x_frame with
      | Memberwire.State { checkpoint; _ } ->
        t.state_transfer_bytes <- t.state_transfer_bytes + String.length checkpoint;
        m_state_bytes t ~by:(String.length checkpoint)
      | _ -> ());
      ucast_control t ~src:nd.gid ~dst:x.x_target x.x_frame;
      Engine.schedule_after t.engine ~delay:t.config.control_period
        (transfer_tick t nd x)
    end
  | _ -> ()

let begin_transfer t nd ~target frame =
  let x =
    { x_target = target; x_frame = frame; x_since = Engine.now t.engine }
  in
  nd.transfer <- Some x;
  transfer_tick t nd x ()

(* ------------------------------------------------------------------ *)
(* Epoch cut-over (everyone, on Commit)                                *)

let handle_commit t nd (next : View.t) cut =
  match (nd.view, nd.entity) with
  | Some v, Some e when v.View.epoch + 1 = next.View.epoch ->
    let n_old = View.size v in
    if
      Array.length cut = n_old
      && Array.for_all (fun row -> Array.length row = n_old) cut
    then begin
      let evicted_self =
        match nd.quiescing with
        | Some (Memberwire.Evict g) -> g = nd.gid
        | _ -> false
      in
      Entity.close_epoch e ~req_matrix:cut;
      (* Survivors and clean leavers crossed the barrier with their REQ at
         the cut, so the scans above flushed everything; anything still
         parked out-of-sequence is an orphan above a gap only a departed
         source could fill, and dies with this entity. A falsely-suspected
         evictee may genuinely be behind the cut — it flushes best-effort
         and retires. *)
      if
        (not evicted_self)
        && (Entity.undelivered_data e <> 0 || Entity.queued_requests e <> 0)
      then
        failwith
          (Printf.sprintf
             "Group: node %d crossed the barrier with unflushed state" nd.gid);
      let blob =
        bootstrap t.config.protocol ~closing:v ~next ~req:(cut_req cut)
      in
      (match View.rank next ~node:nd.gid with
      | Some r ->
        install t nd ~view:next ~rank:r ~via:(`Restore (blob ~rank:r e));
        Entity.kick (Option.get nd.entity)
      | None ->
        (* We left (or were evicted while still listening): retire. *)
        drop_membership t nd);
      if next.View.epoch > t.latest.View.epoch then t.latest <- next;
      (* Sponsor duty: the lowest-id survivor ships each joiner its
         bootstrap blob, built from its own entity like every survivor's —
         the joiner restores byte-identical state. *)
      Array.iter
        (fun g ->
          if not (View.mem v g) then begin
            let sponsor = View.coordinator ?excluding:(Some g) next in
            if sponsor = nd.gid then begin
              match View.rank next ~node:g with
              | Some jr ->
                begin_transfer t nd ~target:g
                  (Memberwire.State
                     {
                       cid = base_cid t;
                       sponsor = nd.gid;
                       target = g;
                       view = next;
                       checkpoint = blob ~rank:jr e;
                     })
              | None -> ()
            end
          end)
        next.View.members
    end
  | Some v, _ when next.View.epoch <= v.View.epoch -> ()  (* duplicate *)
  | _ -> ()
(* A node with no view (a joiner) ignores Commit: its entry point is the
   State transfer, which carries the same view. *)

(* ------------------------------------------------------------------ *)
(* Receive handlers                                                    *)

let handle_proto t nd pdu =
  match nd.entity with
  | None -> ()
  | Some e ->
    let ours = (Entity.config e).Config.cid in
    let pcid =
      match pdu with
      | Pdu.Data d -> d.Pdu.cid
      | Pdu.Ret r -> r.Pdu.cid
      | Pdu.Ctl c -> c.Pdu.cid
    in
    if pcid = ours then Entity.receive e pdu
    else begin
      t.stale_epoch <- t.stale_epoch + 1;
      m_stale t
    end

let handle_repair nd ~epoch pdus =
  match (nd.view, nd.entity) with
  | Some v, Some e when v.View.epoch = epoch ->
    let decoded =
      List.filter_map
        (fun s ->
          match Codec.decode (Bytes.of_string s) with
          | Ok p -> Some p
          | Error _ -> None)
        pdus
    in
    Entity.receive_batch e decoded
  | _ -> ()

(* A Reconcile names the laggards; each member pushes Repairs for every
   (source, laggard) pair it is the designated holder of — lowest-ranked
   member whose reported REQ component is the column maximum. Point-to-
   point pushes close gaps a departed source can never answer RETs for. *)
let handle_reconcile t nd ~epoch reqs =
  match (nd.view, nd.entity) with
  | Some v, Some e
    when v.View.epoch = epoch
         && Array.length reqs = View.size v
         && Array.for_all (fun row -> Array.length row = View.size v) reqs -> (
    match View.rank v ~node:nd.gid with
    | None -> ()
    | Some my_rank ->
      let n = View.size v in
      let r_final = cut_req reqs in
      for k = 0 to n - 1 do
        let r_k = r_final.(k) in
        let holder = ref (-1) in
        for j = n - 1 downto 0 do
          if reqs.(j).(k) = r_k then holder := j
        done;
        if !holder = my_rank then
          for l = 0 to n - 1 do
            if l <> my_rank && reqs.(l).(k) < r_k then begin
              let pdus = ref [] and complete = ref true in
              for s = r_k - 1 downto reqs.(l).(k) do
                match Entity.find_received e ~src:k ~seq:s with
                | Some d ->
                  pdus :=
                    Bytes.to_string (Codec.encode (Pdu.Data d)) :: !pdus
                | None -> complete := false
              done;
              if !complete && !pdus <> [] then begin
                let count = List.length !pdus in
                t.repair_pdus <- t.repair_pdus + count;
                m_repair t ~by:count;
                ucast_control t ~src:nd.gid ~dst:(View.node v ~rank:l)
                  (Memberwire.Repair
                     {
                       cid = base_cid t;
                       src = k;
                       target = View.node v ~rank:l;
                       epoch;
                       pdus = !pdus;
                     })
              end
            end
          done
      done)
  | _ -> ()

let handle_propose t nd ~origin ~epoch change =
  match nd.view with
  | Some v when v.View.epoch = epoch -> (
    let excluding =
      match change with Memberwire.Evict g -> Some g | _ -> None
    in
    let coord = View.coordinator ?excluding v in
    if nd.gid = coord then
      match nd.barrier with
      | Some b ->
        if origin = nd.gid && b.b_change = change then quiesce t nd change
        else if
          b.b_change <> change
          && (not (List.mem change nd.proposals))
          && origin <> nd.gid
        then nd.proposals <- nd.proposals @ [ change ]
      | None ->
        (* Accept (this broadcasts origin = us; the loopback copy of that
           broadcast lands in the branch above and quiesces us). *)
        start_barrier t nd change
    else if origin = coord && Result.is_ok (View.apply v change) then
      (* The coordinator announced an accepted change. The applicability
         check keeps a stale redispatched proposal (one the coordinator
         will refuse) from fencing us into a barrier that never starts. *)
      quiesce t nd change
    (* A raw request overheard by a non-coordinator is not ours to act on. *))
  | Some _ -> ()  (* stale-epoch proposal *)
  | None -> ()

let handle_report t nd ~epoch ~member ~req ~flushed =
  match nd.barrier with
  | Some b when b.b_closing.View.epoch = epoch ->
    if b.b_commit = None then begin
      if
        List.mem member b.b_required
        && Array.length req = View.size b.b_closing
      then begin
        Hashtbl.replace b.b_reports member (req, flushed);
        try_commit t nd b
      end
    end
    else
      (* Straggler that missed the Commit: replay it point-to-point. *)
      Option.iter
        (fun c -> ucast_control t ~src:nd.gid ~dst:member c)
        b.b_commit
  | _ -> (
    (* Reports against an epoch we already closed: the sender missed the
       Commit that ended it. Replay our remembered one. *)
    match nd.last_commit with
    | Some (Memberwire.Commit { view; _ } as c)
      when view.View.epoch = epoch + 1 ->
      ucast_control t ~src:nd.gid ~dst:member c
    | _ -> ())

let handle_state t nd ~target ~view ~checkpoint =
  if target = nd.gid then
    match nd.view with
    | Some v when v.View.epoch >= view.View.epoch -> ()  (* duplicate *)
    | _ -> (
      match View.rank view ~node:nd.gid with
      | None -> ()
      | Some r ->
        install t nd ~view ~rank:r ~via:(`Restore checkpoint);
        Entity.kick (Option.get nd.entity))

let handle_control t nd frame =
  match frame with
  | Memberwire.Propose { cid; origin; epoch; change } ->
    if cid = base_cid t then handle_propose t nd ~origin ~epoch change
  | Memberwire.Report { cid; epoch; member; req; flushed } ->
    if cid = base_cid t then handle_report t nd ~epoch ~member ~req ~flushed
  | Memberwire.Reconcile { cid; epoch; reqs } ->
    if cid = base_cid t then handle_reconcile t nd ~epoch reqs
  | Memberwire.Repair { cid; epoch; pdus; _ } ->
    if cid = base_cid t then handle_repair nd ~epoch pdus
  | Memberwire.Commit { cid; view; cut } ->
    if cid = base_cid t then handle_commit t nd view cut
  | Memberwire.State { cid; target; view; checkpoint; _ } ->
    if cid = base_cid t then handle_state t nd ~target ~view ~checkpoint

let handle t dst ~src packet =
  t.last_heard.(src) <- Engine.now t.engine;
  let nd = t.nodes.(dst) in
  if not nd.down then
    match packet with
    | Proto pdu -> handle_proto t nd pdu
    | Control frame -> handle_control t nd frame

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create config ~initial =
  if config.max_nodes < 2 then invalid_arg "Group.create: max_nodes < 2";
  if Topology.n config.topology <> config.max_nodes then
    invalid_arg "Group.create: topology does not span max_nodes";
  Config.validate config.protocol;
  if not config.protocol.Config.retain_arl then
    invalid_arg "Group.create: retain_arl must be on (barrier repair)";
  if Simtime.compare config.control_period Simtime.zero <= 0 then
    invalid_arg "Group.create: control_period must be positive";
  let view = View.initial initial in
  if Array.exists (fun g -> g >= config.max_nodes) initial then
    invalid_arg "Group.create: initial member outside max_nodes";
  let engine = Engine.create () in
  let net =
    Network.create engine
      {
        Network.topology = config.topology;
        inbox_capacity = config.inbox_capacity;
        service_time = (fun _ -> config.service_time);
        transmit_time = (fun _ -> Simtime.zero);
        loss_prob = config.loss_prob;
        seed = config.seed;
      }
  in
  let nodes =
    Array.init config.max_nodes (fun gid ->
        {
          gid;
          down = false;
          generation = 0;
          view = None;
          entity = None;
          quiescing = None;
          barrier = None;
          proposals = [];
          transfer = None;
          last_commit = None;
        })
  in
  let t =
    {
      config;
      engine;
      net;
      nodes;
      recording =
        Cluster.recording ~slots:config.max_nodes engine (Network.trace net);
      last_heard = Array.make config.max_nodes Simtime.zero;
      latest = view;
      view_changes = 0;
      state_transfer_bytes = 0;
      stale_epoch = 0;
      repair_pdus = 0;
      evictions = 0;
    }
  in
  Array.iter
    (fun nd ->
      Network.attach net ~id:nd.gid ~handler:(fun ~src packet ->
          handle t nd.gid ~src packet))
    nodes;
  Array.iteri
    (fun rank gid -> install t nodes.(gid) ~view ~rank ~via:`Create)
    view.View.members;
  t

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)

let engine t = t.engine
let network t = t.net
let epoch t = t.latest.View.epoch
let members t = Array.copy t.latest.View.members
let is_member t g = View.mem t.latest g

let check_gid t g ~who =
  if g < 0 || g >= t.config.max_nodes then
    invalid_arg (who ^ ": node out of range")

let entity t ~node =
  check_gid t node ~who:"Group.entity";
  t.nodes.(node).entity

let submit t ~node payload =
  check_gid t node ~who:"Group.submit";
  let nd = t.nodes.(node) in
  match nd.entity with
  | Some e when (not nd.down) && nd.quiescing = None ->
    ignore (Entity.submit e payload);
    true
  | _ -> false

let change_satisfied t change =
  match change with
  | Memberwire.Join g -> View.mem t.latest g
  | Memberwire.Leave g | Memberwire.Evict g -> not (View.mem t.latest g)

let propose t ~origin change =
  check_gid t origin ~who:"Group.propose";
  check_gid t (change_target change) ~who:"Group.propose (target)";
  let nd = t.nodes.(origin) in
  if nd.down then invalid_arg "Group.propose: origin is down";
  let send () =
    bcast_control t ~src:origin
      (propose_frame t ~origin ~epoch:t.latest.View.epoch change)
  in
  let retry_period =
    Simtime.(t.config.control_period + t.config.control_period)
  in
  let rec retry () =
    Engine.schedule_after t.engine ~delay:retry_period (fun () ->
        if (not (change_satisfied t change)) && not nd.down then begin
          send ();
          retry ()
        end)
  in
  send ();
  retry ()

let crash t ~node =
  check_gid t node ~who:"Group.crash";
  let nd = t.nodes.(node) in
  if not nd.down then
    Trace.record (Network.trace t.net)
      (Trace.Crashed { time = Engine.now t.engine; entity = node });
  nd.down <- true;
  nd.generation <- nd.generation + 1

let revive t ~node =
  check_gid t node ~who:"Group.revive";
  let nd = t.nodes.(node) in
  if nd.down then begin
    nd.down <- false;
    Trace.record (Network.trace t.net)
      (Trace.Restarted { time = Engine.now t.engine; entity = node });
    (* Volatile state is gone: rank, clocks and logs belong to an epoch
       that moved on without us. Come back through the front door. *)
    drop_membership t nd;
    nd.barrier <- None;
    nd.transfer <- None;
    nd.last_commit <- None
  end

(* Crashed nodes are excluded: a node that froze mid-quiesce would
   otherwise read as forever-in-progress and wedge [settled]. *)
let barrier_active t =
  Array.exists
    (fun nd ->
      (not nd.down)
      && (nd.barrier <> None || nd.quiescing <> None || nd.transfer <> None))
    t.nodes

let outstanding_work t =
  Array.fold_left
    (fun acc nd ->
      match nd.entity with
      | Some e when not nd.down -> acc + Entity.backlog e
      | _ -> acc)
    0 t.nodes

let install_suspicion t ~period ?stall_threshold ?departure_threshold ~until ()
    =
  let susp =
    Suspicion.create ?stall_threshold ?departure_threshold
      ~n:t.config.max_nodes ()
  in
  let last_seen = Array.copy t.last_heard in
  let last_delivered = Array.make t.config.max_nodes 0 in
  let proposed = Array.make t.config.max_nodes false in
  Engine.every t.engine ~period ~until (fun () ->
      (* Membership questions are settled one at a time: while a barrier is
         running, the sampler stands down rather than stack a second
         verdict on top of it. *)
      if not (barrier_active t) then begin
        let v = t.latest in
        let backlog = outstanding_work t in
        Array.iter
          (fun gid ->
            let nd = t.nodes.(gid) in
            let alive =
              Simtime.compare t.last_heard.(gid) last_seen.(gid) > 0
            in
            last_seen.(gid) <- t.last_heard.(gid);
            let delivered =
              match nd.entity with
              | Some e -> (Entity.metrics e).Repro_core.Metrics.delivered
              | None -> last_delivered.(gid)
            in
            let progressed = delivered > last_delivered.(gid) in
            last_delivered.(gid) <- delivered;
            match Suspicion.observe susp ~subject:gid ~alive ~progressed ~backlog with
            | Suspicion.Healthy -> ()
            | Suspicion.Stalled -> (
              match nd.entity with
              | Some e when not nd.down -> Entity.kick e
              | _ -> ())
            | Suspicion.Departed ->
              if View.mem t.latest gid && not proposed.(gid) then begin
                proposed.(gid) <- true;
                t.evictions <- t.evictions + 1;
                m_evict t;
                let origin = View.coordinator ?excluding:(Some gid) t.latest in
                propose t ~origin (Memberwire.Evict gid)
              end)
          v.View.members
      end)

let run ?until ?max_events t = Engine.run ?until ?max_events t.engine

let settled t =
  (not (barrier_active t)) && outstanding_work t = 0

(* Drain the event queue (timer-driven recovery and barrier machinery keep
   it non-empty exactly while there is protocol work left), then judge.
   The virtual-time limit catches livelocks: a wedged barrier re-arms its
   timers forever, so the queue alone would never empty. Progress is
   measured in processed events, not time slices — [Engine.run ~until]
   leaves the clock at the last event, so a fixed-width window could sit
   forever in front of a quiet gap. *)
let settle ?(limit = Simtime.of_ms 10_000) t =
  let deadline = Simtime.(Engine.now t.engine + limit) in
  let rec go () =
    if
      Engine.pending t.engine = 0
      || Simtime.compare (Engine.now t.engine) deadline >= 0
    then settled t
    else begin
      let before = Engine.processed t.engine in
      Engine.run ~until:deadline ~max_events:10_000 t.engine;
      if Engine.processed t.engine = before then settled t else go ()
    end
  in
  go ()

let deliveries t ~node =
  check_gid t node ~who:"Group.deliveries";
  List.map
    (fun (_, tag, d) -> (fst (tag_source t tag), d))
    (Cluster.recorded_deliveries t.recording ~slot:node)

let recorded t = t.recording
let view_changes t = t.view_changes
let state_transfer_bytes t = t.state_transfer_bytes
let stale_epoch_drops t = t.stale_epoch
let repair_pdus t = t.repair_pdus
let evictions t = t.evictions
