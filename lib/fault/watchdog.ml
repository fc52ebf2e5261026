module Cluster = Repro_core.Cluster
module Entity = Repro_core.Entity
module Engine = Repro_sim.Engine
module Suspicion = Repro_member.Suspicion

type t = {
  cluster : Cluster.t;
  suspicion : Suspicion.t;
  last_delivered : int array;
  last_backlog : int array;
  notified : bool array; (* departure callback fired for this down spell *)
  on_suspect : (int -> Suspicion.verdict -> unit) option;
  mutable recoveries : int;
  mutable departures : int;
}

let notify t id verdict =
  match t.on_suspect with None -> () | Some f -> f id verdict

let check t =
  let live = Cluster.live_ids t.cluster in
  (* What the survivors are collectively still waiting to resolve — the
     "someone is waiting on it" signal that separates a dead peer from a
     merely quiet cluster. *)
  let live_backlog =
    List.fold_left
      (fun acc id -> acc + Entity.backlog (Cluster.entity t.cluster id))
      0 live
  in
  for id = 0 to Cluster.size t.cluster - 1 do
    if List.mem id live then begin
      (* Fetch through the cluster each tick: a restart replaces the
         entity object (and resets its counters). *)
      let e = Cluster.entity t.cluster id in
      let delivered = (Entity.metrics e).delivered in
      let b = Entity.backlog e in
      let progressed =
        delivered > t.last_delivered.(id) || b < t.last_backlog.(id)
      in
      if t.notified.(id) then begin
        (* Back from the dead (a restart): forget the departure verdict. *)
        Suspicion.reset t.suspicion ~subject:id;
        t.notified.(id) <- false
      end;
      (match
         Suspicion.observe t.suspicion ~subject:id ~alive:true ~progressed
           ~backlog:b
       with
      | Suspicion.Stalled ->
        t.recoveries <- t.recoveries + 1;
        Entity.kick e;
        notify t id Suspicion.Stalled;
        (* Restart the ladder so a still-stuck entity is re-kicked only
           after another full run of missed intervals. *)
        Suspicion.reset t.suspicion ~subject:id
      | Suspicion.Healthy | Suspicion.Departed -> ());
      t.last_delivered.(id) <- delivered;
      t.last_backlog.(id) <- b
    end
    else
      match
        Suspicion.observe t.suspicion ~subject:id ~alive:false
          ~progressed:false ~backlog:live_backlog
      with
      | Suspicion.Departed when not t.notified.(id) ->
        t.departures <- t.departures + 1;
        t.notified.(id) <- true;
        notify t id Suspicion.Departed
      | Suspicion.Departed | Suspicion.Healthy | Suspicion.Stalled -> ()
  done

let install ~cluster ~period ?(stall_intervals = 3) ?departure_intervals
    ?on_suspect ~until () =
  if stall_intervals < 1 then invalid_arg "Watchdog.install: stall_intervals";
  let departure_intervals =
    match departure_intervals with
    | Some d ->
      if d < 1 then invalid_arg "Watchdog.install: departure_intervals";
      d
    | None -> 2 * stall_intervals
  in
  let n = Cluster.size cluster in
  let t =
    {
      cluster;
      suspicion =
        Suspicion.create ~stall_threshold:stall_intervals
          ~departure_threshold:departure_intervals ~n ();
      last_delivered = Array.make n 0;
      last_backlog = Array.make n 0;
      notified = Array.make n false;
      on_suspect;
      recoveries = 0;
      departures = 0;
    }
  in
  Engine.every (Cluster.engine cluster) ~period ~until (fun () -> check t);
  t

let recoveries t = t.recoveries
let departures t = t.departures
