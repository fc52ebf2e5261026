module Simtime = Repro_sim.Simtime
module Topology = Repro_sim.Topology
module Prng = Repro_util.Prng
module Workload = Repro_harness.Workload
module Plan = Repro_fault.Plan

type workload_shape =
  | Continuous of { per_entity : int; interval : Simtime.t }
  | Bursty of { burst_size : int; burst_gap : Simtime.t; bursts : int }
  | Hotspot of {
      hot : int;
      hot_share : float;
      total : int;
      interval : Simtime.t;
    }
  | Zipf of { exponent : float; total : int; interval : Simtime.t }
  | Diurnal of {
      period : Simtime.t;
      cycles : int;
      peak_interval_ms : float;
      trough_interval_ms : float;
    }

type delay_shape =
  | Uniform_delay of Simtime.t
  | Wan of {
      clusters : int list;
      local_lo : Simtime.t;
      local_hi : Simtime.t;
      cross_lo : Simtime.t;
      cross_hi : Simtime.t;
      asymmetry : float;
    }

type loss_shape =
  | No_loss
  | Iid of { p : float; start : Simtime.t; stop : Simtime.t }
  | Gilbert_elliott of {
      p_good_bad : float;
      p_bad_good : float;
      loss_good : float;
      loss_bad : float;
      step : Simtime.t;
      stop : Simtime.t;
    }

type churn_event = { at : Simtime.t; node : int; kind : [ `Join | `Leave ] }

type t = {
  name : string;
  description : string;
  n : int;
  workload : workload_shape;
  delays : delay_shape;
  loss : loss_shape;
  partitions : (Simtime.t * int list list * Simtime.t) list;
  churn : churn_event list;
  horizon : Simtime.t;
}

type compiled = {
  scenario : t;
  topology : Repro_sim.Topology.t;
  workload : Workload.entry list;
  plan : Plan.t;
  observers : int list;
  initially_down : int list;
}

let fail name fmt = Printf.ksprintf (fun s -> invalid_arg ("Scenario " ^ name ^ ": " ^ s)) fmt

(* ---------------------------------------------------------------- *)
(* Topology compilation.                                             *)

let wan_matrix ~name ~rng ~n ~clusters ~local_lo ~local_hi ~cross_lo ~cross_hi
    ~asymmetry =
  if List.exists (fun c -> c <= 0) clusters then
    fail name "empty WAN cluster";
  if List.fold_left ( + ) 0 clusters <> n then
    fail name "WAN clusters must sum to n=%d" n;
  if local_lo < 0 || local_lo > local_hi || cross_lo < 0 || cross_lo > cross_hi
  then fail name "WAN delay ranges must satisfy 0 <= lo <= hi";
  if asymmetry < 1. then fail name "WAN asymmetry %g < 1" asymmetry;
  let site = Array.make n 0 in
  let node = ref 0 in
  List.iteri
    (fun s size ->
      for _ = 1 to size do
        site.(!node) <- s;
        incr node
      done)
    clusters;
  let m = Array.make_matrix n n Simtime.zero in
  let draw lo hi =
    Simtime.of_us
      (int_of_float
         (Prng.uniform_in rng ~lo:(float_of_int lo) ~hi:(float_of_int hi +. 1.)))
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if site.(i) = site.(j) then begin
        let d = draw local_lo local_hi in
        m.(i).(j) <- d;
        m.(j).(i) <- d
      end
      else begin
        (* Forward delay uniform in the declared range; the reverse path is
           stretched by a ratio in [1, asymmetry] then clamped back into the
           range — clamping can only shrink the realized ratio, so the
           declared asymmetry bound always holds. *)
        let fwd = draw cross_lo cross_hi in
        let ratio = Prng.uniform_in rng ~lo:1. ~hi:asymmetry in
        let rev =
          min cross_hi
            (max cross_lo (int_of_float (float_of_int fwd *. ratio)))
        in
        m.(i).(j) <- fwd;
        m.(j).(i) <- rev
      end
    done
  done;
  Topology.of_matrix m

(* ---------------------------------------------------------------- *)
(* Loss compilation.                                                 *)

let gilbert_elliott_events ~name ~rng ~p_good_bad ~p_bad_good ~loss_good
    ~loss_bad ~step ~stop =
  List.iter
    (fun p ->
      if p < 0. || p > 1. then fail name "GE probability %g outside [0,1]" p)
    [ p_good_bad; p_bad_good; loss_good; loss_bad ];
  if step <= 0 then fail name "GE step must be > 0";
  if stop <= 0 then fail name "GE stop must be > 0";
  (* Walk the chain at [step] granularity, emitting a Loss event only at
     state transitions so plans stay readable; always heal at [stop]. *)
  let events = ref [ { Plan.at = Simtime.zero; action = Plan.Loss loss_good } ] in
  let state = ref `Good in
  let t = ref Simtime.zero in
  while Simtime.( + ) !t step < stop do
    t := Simtime.( + ) !t step;
    let flips =
      match !state with
      | `Good -> Prng.bernoulli rng ~p:p_good_bad
      | `Bad -> Prng.bernoulli rng ~p:p_bad_good
    in
    if flips then begin
      state := (match !state with `Good -> `Bad | `Bad -> `Good);
      let p = match !state with `Good -> loss_good | `Bad -> loss_bad in
      events := { Plan.at = !t; action = Plan.Loss p } :: !events
    end
  done;
  List.rev ({ Plan.at = stop; action = Plan.Loss 0. } :: !events)

let loss_events ~name ~rng = function
  | No_loss -> []
  | Iid { p; start; stop } ->
      if stop <= start then fail name "iid loss window is empty";
      [
        { Plan.at = start; action = Plan.Loss p };
        { Plan.at = stop; action = Plan.Loss 0. };
      ]
  | Gilbert_elliott { p_good_bad; p_bad_good; loss_good; loss_bad; step; stop }
    ->
      gilbert_elliott_events ~name ~rng ~p_good_bad ~p_bad_good ~loss_good
        ~loss_bad ~step ~stop

(* ---------------------------------------------------------------- *)
(* Membership: who observes, who starts outside the group.           *)

(* A node starts outside the group iff its first churn event is a Join;
   the observers are the nodes that never churn. *)
let membership ~name ~n (plan : Plan.t) =
  let first e =
    List.find_map
      (function
        | { Plan.action = (Plan.Join x | Plan.Leave x) as a; _ } when x = e ->
          Some a
        | _ -> None)
      plan.Plan.events
  in
  let nodes = List.init n Fun.id in
  let observers = List.filter (fun e -> Option.is_none (first e)) nodes in
  if observers = [] then fail name "every entity churns; no observers left";
  ( observers,
    List.filter
      (fun e -> match first e with Some (Plan.Join _) -> true | _ -> false)
      nodes )

(* ---------------------------------------------------------------- *)
(* Compile.                                                          *)

let compile ~seed t =
  if t.n <= 0 then fail t.name "n must be > 0";
  if t.horizon <= 0 then fail t.name "horizon must be > 0";
  (* Independent sub-streams so adding draws to one stage never perturbs
     another (workload edits must not reshuffle the topology, etc.). *)
  let root = Prng.create ~seed in
  let topo_rng = Prng.split root in
  let wl_rng = Prng.split root in
  let loss_rng = Prng.split root in
  let topology =
    match t.delays with
    | Uniform_delay d ->
        if d < 0 then fail t.name "negative uniform delay";
        Topology.uniform ~n:t.n ~delay:d
    | Wan { clusters; local_lo; local_hi; cross_lo; cross_hi; asymmetry } ->
        wan_matrix ~name:t.name ~rng:topo_rng ~n:t.n ~clusters ~local_lo
          ~local_hi ~cross_lo ~cross_hi ~asymmetry
  in
  let workload =
    match t.workload with
    | Continuous { per_entity; interval } ->
        Workload.continuous ~n:t.n ~per_entity ~interval ()
    | Bursty { burst_size; burst_gap; bursts } ->
        Workload.bursty ~n:t.n ~rng:wl_rng ~burst_size ~burst_gap ~bursts ()
    | Hotspot { hot; hot_share; total; interval } ->
        Workload.hotspot ~n:t.n ~rng:wl_rng ~hot ~hot_share ~total ~interval ()
    | Zipf { exponent; total; interval } ->
        Workload.zipf ~n:t.n ~exponent ~total ~interval ()
    | Diurnal { period; cycles; peak_interval_ms; trough_interval_ms } ->
        Workload.diurnal ~n:t.n ~rng:wl_rng ~period ~cycles ~peak_interval_ms
          ~trough_interval_ms ()
  in
  let partition_events =
    List.concat_map
      (fun (start, groups, stop) ->
        if stop <= start then fail t.name "partition window is empty";
        [
          { Plan.at = start; action = Plan.Partition groups };
          { Plan.at = stop; action = Plan.Heal };
        ])
      t.partitions
  in
  (let sorted =
     List.sort
       (fun (s1, e1) (s2, e2) ->
         match Simtime.compare s1 s2 with
         | 0 -> Simtime.compare e1 e2
         | c -> c)
       (List.map (fun (s, _, e) -> (s, e)) t.partitions)
   in
   ignore
     (List.fold_left
        (fun prev_end (s, e) ->
          if s < prev_end then fail t.name "partition windows overlap";
          e)
        Simtime.zero sorted));
  let sorted_churn =
    List.sort
      (fun a b ->
        match Simtime.compare a.at b.at with
        | 0 -> Int.compare a.node b.node
        | c -> c)
      t.churn
  in
  let churn_events =
    List.map
      (fun { at; node; kind } ->
        if node = 0 then fail t.name "node 0 must not churn (sequencer anchor)";
        {
          Plan.at;
          action = (match kind with `Join -> Plan.Join node | `Leave -> Plan.Leave node);
        })
      sorted_churn
  in
  let events =
    List.stable_sort
      (fun a b -> Simtime.compare a.Plan.at b.Plan.at)
      (loss_events ~name:t.name ~rng:loss_rng t.loss
      @ partition_events @ churn_events)
  in
  let plan =
    {
      Plan.name = t.name;
      description = t.description;
      events;
      horizon = t.horizon;
    }
  in
  Plan.validate ~n:t.n plan;
  let observers, initially_down = membership ~name:t.name ~n:t.n plan in
  { scenario = t; topology; workload; plan; observers; initially_down }

(* ---------------------------------------------------------------- *)
(* Fixed fault plans as scenarios.                                   *)

let of_plan ~n ~per_entity (plan : Plan.t) =
  Plan.validate ~n plan;
  let observers, initially_down = membership ~name:plan.Plan.name ~n plan in
  let delay = Simtime.of_ms 1 in
  (* Submissions staggered per entity so no two share an instant: every
     8ms under a fixed plan, spread over the first 60% of the horizon
     under a churning one, so traffic overlaps its membership changes. *)
  let span =
    if Plan.churning plan then plan.Plan.horizon * 3 / 5
    else Simtime.of_ms (8 * per_entity)
  in
  let workload =
    List.concat
      (List.init per_entity (fun k ->
           List.init n (fun src ->
               {
                 Workload.at =
                   Simtime.(
                     of_ms 2 + (span * k / per_entity) + of_us ((137 * src) + 11));
                 src;
                 payload = Printf.sprintf "m%d.%d" src k;
               })))
  in
  {
    scenario =
      {
        name = plan.Plan.name;
        description = plan.Plan.description;
        n;
        workload = Continuous { per_entity; interval = span / per_entity };
        delays = Uniform_delay delay;
        loss = No_loss;
        partitions = [];
        churn = [];
        horizon = plan.Plan.horizon;
      };
    topology = Topology.uniform ~n ~delay;
    workload;
    plan;
    observers;
    initially_down;
  }

(* ---------------------------------------------------------------- *)
(* Named scenarios.                                                  *)

let ms = Simtime.of_ms
let us = Simtime.of_us

let burst_storm =
  {
    name = "burst_storm";
    description =
      "Back-to-back bursts on a uniform LAN with a mid-run 2/3 partition; \
       loss-free once healed.";
    n = 5;
    workload = Bursty { burst_size = 8; burst_gap = ms 3; bursts = 10 };
    delays = Uniform_delay (ms 1);
    loss = No_loss;
    partitions = [ (ms 12, [ [ 0; 1; 2 ]; [ 3; 4 ] ], ms 30) ];
    churn = [];
    horizon = ms 100;
  }

let wan_hotspot =
  {
    name = "wan_hotspot";
    description =
      "Two 3-entity sites over an asymmetric WAN; entity 1 originates 60% \
       of the traffic.";
    n = 6;
    workload =
      Hotspot { hot = 1; hot_share = 0.6; total = 40; interval = ms 2 };
    delays =
      Wan
        {
          clusters = [ 3; 3 ];
          local_lo = us 200;
          local_hi = us 500;
          cross_lo = ms 5;
          cross_hi = ms 12;
          asymmetry = 3.;
        };
    loss = No_loss;
    partitions = [];
    churn = [];
    horizon = ms 150;
  }

let flaky_wan =
  {
    name = "flaky_wan";
    description =
      "Two-site WAN under Gilbert-Elliott correlated loss (bursty bad \
       states, healed before the horizon).";
    n = 5;
    workload = Continuous { per_entity = 8; interval = ms 4 };
    delays =
      Wan
        {
          clusters = [ 3; 2 ];
          local_lo = us 200;
          local_hi = us 500;
          cross_lo = ms 2;
          cross_hi = ms 6;
          asymmetry = 2.;
        };
    loss =
      Gilbert_elliott
        {
          p_good_bad = 0.08;
          p_bad_good = 0.3;
          loss_good = 0.01;
          loss_bad = 0.4;
          step = ms 5;
          stop = ms 90;
        };
    partitions = [];
    churn = [];
    horizon = ms 150;
  }

let zipf_spray =
  {
    name = "zipf_spray";
    description =
      "Zipf-skewed senders on a LAN with an iid loss window mid-workload.";
    n = 6;
    workload = Zipf { exponent = 1.2; total = 36; interval = ms 2 };
    delays = Uniform_delay (ms 1);
    loss = Iid { p = 0.1; start = ms 10; stop = ms 45 };
    partitions = [];
    churn = [];
    horizon = ms 120;
  }

let churn_wave =
  {
    name = "churn_wave";
    description =
      "Diurnal load while node 3 leaves mid-run and rejoins later.";
    n = 5;
    workload =
      Diurnal
        {
          period = ms 30;
          cycles = 2;
          peak_interval_ms = 2.;
          trough_interval_ms = 8.;
        };
    delays = Uniform_delay (ms 1);
    loss = No_loss;
    partitions = [];
    churn =
      [
        { at = ms 40; node = 3; kind = `Leave };
        { at = ms 110; node = 3; kind = `Join };
      ];
    horizon = ms 160;
  }

let isolate_wave =
  {
    churn_wave with
    name = "isolate_wave";
    description =
      "churn_wave without membership: node 3 is cut off by a partition \
       while the others keep their diurnal load.";
    partitions = [ (ms 40, [ [ 0; 1; 2; 4 ]; [ 3 ] ], ms 110) ];
    churn = [];
  }

let builtins =
  [ burst_storm; wan_hotspot; flaky_wan; zipf_spray; churn_wave; isolate_wave ]
let names = List.map (fun s -> s.name) builtins
let find name = List.find_opt (fun s -> s.name = name) builtins
