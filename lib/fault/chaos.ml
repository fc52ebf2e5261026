module Entity = Repro_core.Entity
module Engine = Repro_sim.Engine
module Network = Repro_sim.Network
module Simtime = Repro_sim.Simtime
module Registry = Repro_obs.Registry
module Group = Repro_member.Group
module Memberwire = Repro_pdu.Memberwire

(* The injector's stream is salted away from the seed the group's own
   medium draws from. *)
let injector_seed seed = seed lxor 0xfa017

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
