module Simtime = Repro_sim.Simtime

type action =
  | Crash of int
  | Restart of int
  | Partition of int list list
  | Heal
  | Loss of float
  | Corrupt of float
  | Duplicate of float
  | Stall of { entity : int; factor : int }
  | Unstall of int
  | Join of int
  | Leave of int

type event = { at : Simtime.t; action : action }

type t = {
  name : string;
  description : string;
  events : event list;
  horizon : Simtime.t;
}

let check_entity ~n ~name e =
  if e < 0 || e >= n then
    invalid_arg (Printf.sprintf "Plan %s: entity %d out of range [0,%d)" name e n)

let check_prob ~name p =
  if p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Plan %s: probability %g outside [0,1]" name p)

let validate ~n t =
  let seen = Hashtbl.create 8 in
  let last = ref Simtime.zero in
  List.iter
    (fun { at; action } ->
      if Simtime.compare at !last < 0 then
        invalid_arg (Printf.sprintf "Plan %s: events out of order" t.name);
      last := at;
      if Simtime.compare at t.horizon >= 0 then
        invalid_arg
          (Printf.sprintf "Plan %s: event at %s not before horizon %s" t.name
             (Simtime.to_string at)
             (Simtime.to_string t.horizon));
      match action with
      | Crash e | Restart e | Unstall e | Join e | Leave e ->
        check_entity ~n ~name:t.name e
      | Stall { entity; factor } ->
        check_entity ~n ~name:t.name entity;
        if factor < 1 then
          invalid_arg (Printf.sprintf "Plan %s: stall factor %d < 1" t.name factor)
      | Partition groups ->
        List.iter
          (List.iter (fun e ->
               check_entity ~n ~name:t.name e;
               if Hashtbl.mem seen e then
                 invalid_arg
                   (Printf.sprintf "Plan %s: entity %d in two partition groups"
                      t.name e);
               Hashtbl.add seen e ()))
          groups;
        Hashtbl.reset seen
      | Heal -> ()
      | Loss p | Corrupt p | Duplicate p -> check_prob ~name:t.name p)
    t.events

let pp_action ppf = function
  | Crash e -> Format.fprintf ppf "crash %d" e
  | Restart e -> Format.fprintf ppf "restart %d" e
  | Partition groups ->
    Format.fprintf ppf "partition %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "|")
         (fun ppf g ->
           Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
             Format.pp_print_int ppf g))
      groups
  | Heal -> Format.pp_print_string ppf "heal"
  | Loss p -> Format.fprintf ppf "loss %.2f" p
  | Corrupt p -> Format.fprintf ppf "corrupt %.2f" p
  | Duplicate p -> Format.fprintf ppf "duplicate %.2f" p
  | Stall { entity; factor } -> Format.fprintf ppf "stall %d x%d" entity factor
  | Unstall e -> Format.fprintf ppf "unstall %d" e
  | Join e -> Format.fprintf ppf "join %d" e
  | Leave e -> Format.fprintf ppf "leave %d" e

let ms = Simtime.of_ms

(* Built-in plans target n = 4 and a workload submitted over the first
   ~60ms; every fault heals by 120ms, leaving the rest of the horizon for
   catch-up before the convergence check. *)

let crash_restart =
  {
    name = "crash_restart";
    description = "entity 1 crash-stops at 30ms, rejoins from checkpoint at 120ms";
    events =
      [
        { at = ms 30; action = Crash 1 }; { at = ms 120; action = Restart 1 };
      ];
    horizon = ms 400;
  }

let partition_heal =
  {
    name = "partition_heal";
    description = "cluster splits {0,1}/{2,3} at 20ms, heals at 120ms";
    events =
      [
        { at = ms 20; action = Partition [ [ 0; 1 ]; [ 2; 3 ] ] };
        { at = ms 120; action = Heal };
      ];
    horizon = ms 400;
  }

let loss_burst =
  {
    name = "loss_burst";
    description = "30% iid copy loss between 20ms and 120ms";
    events =
      [ { at = ms 20; action = Loss 0.30 }; { at = ms 120; action = Loss 0. } ];
    horizon = ms 400;
  }

let slow_stall =
  {
    name = "slow_stall";
    description = "entity 2 serves messages 50x slower between 20ms and 120ms";
    events =
      [
        { at = ms 20; action = Stall { entity = 2; factor = 50 } };
        { at = ms 120; action = Unstall 2 };
      ];
    horizon = ms 400;
  }

let corruption =
  {
    name = "corruption";
    description = "25% of copies take a bit flip in transit between 20ms and 120ms";
    events =
      [
        { at = ms 20; action = Corrupt 0.25 };
        { at = ms 120; action = Corrupt 0. };
      ];
    horizon = ms 400;
  }

let duplication =
  {
    name = "duplication";
    description = "30% of copies arrive twice between 20ms and 120ms";
    events =
      [
        { at = ms 20; action = Duplicate 0.30 };
        { at = ms 120; action = Duplicate 0. };
      ];
    horizon = ms 400;
  }

let mayhem =
  {
    name = "mayhem";
    description =
      "overlapping 15% loss, a crash-restart of entity 3 and a {0,3}/{1,2} \
       partition";
    events =
      [
        { at = ms 10; action = Loss 0.15 };
        { at = ms 25; action = Crash 3 };
        { at = ms 40; action = Partition [ [ 0; 3 ]; [ 1; 2 ] ] };
        { at = ms 90; action = Heal };
        { at = ms 110; action = Restart 3 };
        { at = ms 130; action = Loss 0. };
      ];
    horizon = ms 500;
  }

let all =
  [
    crash_restart;
    partition_heal;
    loss_burst;
    slow_stall;
    corruption;
    duplication;
    mayhem;
  ]

(* Churn plans run on the membership group: 5 endpoints whose epoch-0
   members are every node whose first churn event is not a Join (the
   scenario derives this), so a scripted joiner starts outside the group
   and bootstraps in mid-run. *)

let churn_join_leave =
  {
    name = "churn_join_leave";
    description =
      "node 4 joins at 30ms (checkpoint bootstrap), node 1 leaves at 150ms";
    events =
      [ { at = ms 30; action = Join 4 }; { at = ms 150; action = Leave 1 } ];
    horizon = ms 500;
  }

let churn_evict =
  {
    name = "churn_evict";
    description =
      "10% loss from 10ms; node 3 crash-stops at 40ms and is evicted by \
       suspicion; loss heals at 130ms";
    events =
      [
        { at = ms 10; action = Loss 0.10 };
        { at = ms 40; action = Crash 3 };
        { at = ms 130; action = Loss 0. };
      ];
    horizon = ms 600;
  }

let churn_mayhem =
  {
    name = "churn_mayhem";
    description =
      "join and voluntary leave while 10% loss rides along and node 3 \
       crash-stops into an eviction";
    events =
      [
        { at = ms 10; action = Loss 0.10 };
        { at = ms 30; action = Join 4 };
        { at = ms 120; action = Loss 0. };
        { at = ms 150; action = Leave 1 };
        { at = ms 250; action = Crash 3 };
      ];
    horizon = ms 900;
  }

let churn_all = [ churn_join_leave; churn_evict; churn_mayhem ]

let churning t =
  let restarted e = function { action = Restart r; _ } -> r = e | _ -> false in
  List.exists
    (fun { action; _ } ->
      match action with
      | Join _ | Leave _ -> true
      | Crash e -> not (List.exists (restarted e) t.events)
      | _ -> false)
    t.events

let names = List.map (fun p -> p.name) all
let find name = List.find_opt (fun p -> p.name = name) (all @ churn_all)
