module Trace = Repro_sim.Trace
module Simtime = Repro_sim.Simtime

type per_entity = {
  entity : int;
  arrived : int;
  handled : int;
  dropped_overrun : int;
  dropped_injected : int;
  dropped_faulted : int;
  delivered : int;
  mean_sojourn_ms : float;
  p50_sojourn_ms : float;
  p99_sojourn_ms : float;
}

let per_entity trace ~n =
  let arrived = Array.make n 0
  and handled = Array.make n 0
  and over = Array.make n 0
  and inj = Array.make n 0
  and faulted = Array.make n 0
  and delivered = Array.make n 0
  and sojourns = Array.make n []
  and arrival_time = Hashtbl.create 256 in
  List.iter
    (fun event ->
      match event with
      | Trace.Arrived { time; dst; uid } ->
        if dst < n then begin
          arrived.(dst) <- arrived.(dst) + 1;
          Hashtbl.replace arrival_time (dst, uid) time
        end
      | Trace.Handled { time; dst; uid } ->
        if dst < n then begin
          handled.(dst) <- handled.(dst) + 1;
          match Hashtbl.find_opt arrival_time (dst, uid) with
          | Some t0 ->
            sojourns.(dst) <- Simtime.to_ms (time - t0) :: sojourns.(dst);
            Hashtbl.remove arrival_time (dst, uid)
          | None -> ()
        end
      | Trace.Dropped { dst; reason; _ } when dst < n -> (
        match reason with
        | Trace.Overrun -> over.(dst) <- over.(dst) + 1
        | Trace.Injected -> inj.(dst) <- inj.(dst) + 1
        | Trace.Faulted -> faulted.(dst) <- faulted.(dst) + 1)
      | Trace.Delivered { entity; _ } when entity < n ->
        delivered.(entity) <- delivered.(entity) + 1
      | Trace.Submitted _ | Trace.Sent _ | Trace.Dropped _ | Trace.Delivered _
      | Trace.Crashed _ | Trace.Restarted _ | Trace.Note _ ->
        ())
    (Trace.events trace);
  Array.init n (fun entity ->
      let s = Repro_util.Stats.summarize sojourns.(entity) in
      {
        entity;
        arrived = arrived.(entity);
        handled = handled.(entity);
        dropped_overrun = over.(entity);
        dropped_injected = inj.(entity);
        dropped_faulted = faulted.(entity);
        delivered = delivered.(entity);
        mean_sojourn_ms = s.Repro_util.Stats.mean;
        p50_sojourn_ms = s.Repro_util.Stats.p50;
        p99_sojourn_ms = s.Repro_util.Stats.p99;
      })

let loss_rate p =
  let dropped = p.dropped_overrun + p.dropped_injected + p.dropped_faulted in
  let offered = p.arrived + dropped in
  if offered = 0 then 0. else float_of_int dropped /. float_of_int offered

let total_drops trace = List.length (Trace.drops trace)

let drop_breakdown trace =
  List.fold_left
    (fun (o, i, x) reason ->
      match reason with
      | Trace.Overrun -> (o + 1, i, x)
      | Trace.Injected -> (o, i + 1, x)
      | Trace.Faulted -> (o, i, x + 1))
    (0, 0, 0) (Trace.drops trace)

let pp_per_entity ppf p =
  Format.fprintf ppf
    "entity %d: arrived=%d handled=%d drops(ovr/inj/fault)=%d/%d/%d \
     delivered=%d sojourn mean=%.3fms p50=%.3fms p99=%.3fms"
    p.entity p.arrived p.handled p.dropped_overrun p.dropped_injected
    p.dropped_faulted p.delivered p.mean_sojourn_ms
    p.p50_sojourn_ms p.p99_sojourn_ms
