module Config = Repro_core.Config
module Entity = Repro_core.Entity
module Failure = Repro_core.Failure
module Cluster = Repro_core.Cluster
module Pdu = Repro_pdu.Pdu
module Codec = Repro_pdu.Codec
module Simtime = Repro_sim.Simtime
module Trace = Repro_sim.Trace
module Trace_lint = Repro_check.Trace_lint
module Plan = Repro_fault.Plan
module Injector = Repro_fault.Injector
module Scenario = Repro_scenario.Scenario
module Runner = Repro_scenario.Runner
module Watchdog = Repro_fault.Watchdog
module Suspicion = Repro_member.Suspicion
module Engine = Repro_sim.Engine
module Network = Repro_sim.Network

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* --- Failure-condition edge cases (selective repeat bookkeeping) --- *)

let retry_after = Simtime.of_ms 10

let test_retry_due_rearms () =
  let f = Failure.create ~n:3 in
  (match Failure.observe f ~now:0 ~retry_after ~lsrc:1 ~req:0 ~bound:4 with
  | Failure.Request { lo = 0; hi = 4 } -> ()
  | _ -> Alcotest.fail "expected Request 0..4");
  (* Not yet due. *)
  check bool_t "quiet before timeout" true
    (Failure.retry_due f ~now:(Simtime.of_ms 5) ~retry_after ~lsrc:1 ~req:0
    = None);
  (* Due: returns the range and refreshes the stamp... *)
  (match Failure.retry_due f ~now:(Simtime.of_ms 10) ~retry_after ~lsrc:1 ~req:0 with
  | Some (0, 4) -> ()
  | _ -> Alcotest.fail "expected re-request 0..4");
  (* ...so it is quiet again until another full timeout elapses. *)
  check bool_t "re-armed" true
    (Failure.retry_due f ~now:(Simtime.of_ms 15) ~retry_after ~lsrc:1 ~req:0
    = None);
  match Failure.retry_due f ~now:(Simtime.of_ms 20) ~retry_after ~lsrc:1 ~req:0 with
  | Some (0, 4) -> ()
  | _ -> Alcotest.fail "expected second re-request"

let test_overlapping_gaps () =
  let f = Failure.create ~n:3 in
  (* F(1): a PDU with SEQ 4 arrives while REQ = 0. *)
  (match Failure.observe f ~now:0 ~retry_after ~lsrc:2 ~req:0 ~bound:4 with
  | Failure.Request { lo = 0; hi = 4 } -> ()
  | _ -> Alcotest.fail "expected Request 0..4");
  (* F(2) evidence inside the already-requested range: one RET covers it. *)
  check bool_t "subsumed" true
    (Failure.observe f ~now:1 ~retry_after ~lsrc:2 ~req:0 ~bound:3
    = Failure.Already_requested);
  (* F(2) evidence extending the gap: re-request the widened range. *)
  (match Failure.observe f ~now:2 ~retry_after ~lsrc:2 ~req:0 ~bound:7 with
  | Failure.Request { lo = 0; hi = 7 } -> ()
  | _ -> Alcotest.fail "expected widened Request 0..7");
  (* Evidence below REQ is no gap at all. *)
  check bool_t "no gap" true
    (Failure.observe f ~now:3 ~retry_after ~lsrc:2 ~req:5 ~bound:5
    = Failure.No_gap)

let test_satisfied_shrinks_outstanding () =
  let f = Failure.create ~n:3 in
  (match Failure.observe f ~now:0 ~retry_after ~lsrc:0 ~req:0 ~bound:6 with
  | Failure.Request _ -> ()
  | _ -> Alcotest.fail "expected Request");
  (* Repairs land for 0..2: the outstanding bound stays, but a retry only
     re-requests the remaining tail. *)
  Failure.satisfied_up_to f ~lsrc:0 ~req:3;
  (match Failure.outstanding f ~lsrc:0 with
  | Some (6, _) -> ()
  | _ -> Alcotest.fail "tail still outstanding");
  (match Failure.retry_due f ~now:(Simtime.of_ms 10) ~retry_after ~lsrc:0 ~req:3 with
  | Some (3, 6) -> ()
  | _ -> Alcotest.fail "expected shrunk re-request 3..6");
  (* Full repair clears the record (via either entry point). *)
  Failure.satisfied_up_to f ~lsrc:0 ~req:6;
  check bool_t "cleared" true (Failure.outstanding f ~lsrc:0 = None);
  check bool_t "no retry" true
    (Failure.retry_due f ~now:(Simtime.of_ms 30) ~retry_after ~lsrc:0 ~req:6
    = None)

(* --- Checkpoint / restore --- *)

type harness = {
  mutable sent : Pdu.t list;
  mutable delivered : Pdu.data list;
  mutable clock : Simtime.t;
}

let make_entity ?(config = { Config.default with Config.defer = Config.Never })
    ?(id = 0) ~n () =
  let h = { sent = []; delivered = []; clock = 0 } in
  let actions =
    {
      Entity.broadcast = (fun p -> h.sent <- h.sent @ [ p ]);
      unicast = (fun ~dst:_ p -> h.sent <- h.sent @ [ p ]);
      deliver = (fun d -> h.delivered <- h.delivered @ [ d ]);
      now = (fun () -> h.clock);
      set_timer = (fun ~delay:_ _ -> ());
      available_buffer = (fun () -> 64);
    }
  in
  (h, actions, Entity.create ~config ~id ~n ~actions)

let dt ~src ~seq ~ack = Pdu.data ~cid:0 ~src ~seq ~ack ~buf:64 ~payload:"x"

(* Deterministic regression for the RET re-arm liveness fix: a retry timer
   that fires early (before [retry_due] considers the request due) must stay
   armed while the gap is outstanding. Before the fix the callback dropped
   the timer on [retry_due = None], so a lost RET was never re-requested and
   the missing PDU stalled forever. *)
let test_ret_timer_rearms_on_early_fire () =
  let config =
    {
      Config.default with
      Config.defer = Config.Never;
      ret_retry_timeout = Simtime.of_ms 10;
      ret_jitter_pct = 0;
    }
  in
  let sent = ref [] in
  let timers = ref [] in
  let clock = ref 0 in
  let actions =
    {
      Entity.broadcast = (fun p -> sent := !sent @ [ p ]);
      unicast = (fun ~dst:_ p -> sent := !sent @ [ p ]);
      deliver = (fun _ -> ());
      now = (fun () -> !clock);
      set_timer = (fun ~delay cb -> timers := !timers @ [ (delay, cb) ]);
      available_buffer = (fun () -> 64);
    }
  in
  let e = Entity.create ~config ~id:0 ~n:3 ~actions in
  let rets () =
    List.length
      (List.filter (function Pdu.Ret _ -> true | _ -> false) !sent)
  in
  let fire () =
    match !timers with
    | [] -> Alcotest.fail "expected an armed RET timer"
    | (delay, cb) :: rest ->
      timers := rest;
      cb ();
      delay
  in
  (* seq 2 arrives while seq 1 is expected: gap -> RET + timer at the base
     timeout. *)
  Entity.receive e (dt ~src:1 ~seq:2 ~ack:[| 1; 1; 1 |]);
  check int_t "RET sent on gap" 1 (rets ());
  check int_t "one timer armed" 1 (List.length !timers);
  (* Early firing (clock still inside the timeout): not due, but the gap is
     outstanding -> the callback must re-arm, not drop the timer. *)
  clock := Simtime.of_ms 5;
  let d1 = fire () in
  check int_t "initial delay is base timeout" (Simtime.of_ms 10) d1;
  check int_t "no RET on early fire" 1 (rets ());
  check int_t "timer re-armed while gap outstanding" 1 (List.length !timers);
  (* Due firing: the RET is re-sent, backoff doubles, timer stays armed. *)
  clock := Simtime.of_ms 12;
  let d2 = fire () in
  check int_t "re-arm kept base delay" (Simtime.of_ms 10) d2;
  check int_t "RET re-sent once due" 2 (rets ());
  check int_t "timer re-armed after retry" 1 (List.length !timers);
  (* The gap closes: seq 1 lands, seq 2 un-parks, nothing outstanding. *)
  Entity.receive e (dt ~src:1 ~seq:1 ~ack:[| 1; 1; 1 |]);
  check bool_t "gap closed" true (Entity.pending_seqs e ~src:1 = []);
  let d3 = fire () in
  check int_t "retry delay backed off" (Simtime.of_ms 20) d3;
  check int_t "no RET after repair" 2 (rets ());
  check int_t "timer dropped once gap closed" 0 (List.length !timers)

let test_checkpoint_roundtrip () =
  let config = { Config.default with Config.defer = Config.Never } in
  let _h, actions, e = make_entity ~config ~n:3 () in
  (* Give the entity rich state: own sends, accepted peer data, and an
     out-of-sequence PDU parked behind a gap. *)
  ignore (Entity.submit e "a");
  ignore (Entity.submit e "b");
  Entity.receive e (dt ~src:1 ~seq:1 ~ack:[| 1; 1; 1 |]);
  Entity.receive e (dt ~src:1 ~seq:3 ~ack:[| 1; 1; 1 |]);
  (* seq 2 missing: 3 parks as pending *)
  let blob = Entity.checkpoint e in
  let e' =
    match Entity.restore ~config ~actions blob with
    | Ok e' -> e'
    | Error err ->
      Alcotest.fail
        (Format.asprintf "restore failed: %a" Entity.pp_restore_error err)
  in
  check int_t "id" (Entity.id e) (Entity.id e');
  check int_t "n" (Entity.cluster_size e) (Entity.cluster_size e');
  check int_t "seq" (Entity.seq_next e) (Entity.seq_next e');
  check bool_t "req" true (Entity.req e = Entity.req e');
  check bool_t "AL" true (Entity.al_matrix e = Entity.al_matrix e');
  check bool_t "PAL" true (Entity.pal_matrix e = Entity.pal_matrix e');
  check int_t "rrl1" (Entity.rrl_length e ~src:1) (Entity.rrl_length e' ~src:1);
  check bool_t "pending" true
    (Entity.pending_seqs e ~src:1 = Entity.pending_seqs e' ~src:1);
  check int_t "undelivered" (Entity.undelivered_data e)
    (Entity.undelivered_data e');
  check int_t "buffered" (Entity.buffered e) (Entity.buffered e');
  check bool_t "prl" true (Entity.prl_list e = Entity.prl_list e');
  check bool_t "arl" true (Entity.arl_list e = Entity.arl_list e');
  (* The restored entity must never reuse a sequence number. *)
  ignore (Entity.submit e' "c");
  check int_t "seq advances" (Entity.seq_next e + 1) (Entity.seq_next e')

let test_restore_rejects_garbage () =
  let config = Config.default in
  let _h, actions, e = make_entity ~config ~n:3 () in
  let blob = Entity.checkpoint e in
  (match Entity.restore ~config ~actions "not a checkpoint" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (match
     Entity.restore ~config ~actions (String.sub blob 0 (String.length blob / 2))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated checkpoint accepted");
  match Entity.restore ~config ~actions (blob ^ "tail") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

let test_cluster_crash_restart_converges () =
  let cfg = Cluster.default_config ~n:4 in
  let cluster = Cluster.create cfg in
  for k = 0 to 3 do
    for src = 0 to 3 do
      Cluster.submit_at cluster
        ~at:Simtime.(of_ms (2 + (6 * k)) + of_us (100 * src))
        ~src
        (Printf.sprintf "p%d.%d" src k)
    done
  done;
  Repro_sim.Engine.schedule (Cluster.engine cluster) ~at:(Simtime.of_ms 10)
    (fun () -> Cluster.crash cluster ~id:2);
  Repro_sim.Engine.schedule (Cluster.engine cluster) ~at:(Simtime.of_ms 60)
    (fun () -> Cluster.restart cluster ~id:2);
  Cluster.run ~max_events:2_000_000 cluster;
  check bool_t "entity 2 back up" false (Cluster.is_down cluster 2);
  let keys id = List.sort compare (Cluster.delivery_keys cluster ~entity:id) in
  let expected =
    List.sort compare (List.map Cluster.key_of_tag (Cluster.data_tags cluster))
  in
  for id = 0 to 3 do
    check bool_t (Printf.sprintf "entity %d delivered all" id) true
      (keys id = expected)
  done;
  check int_t "lint clean" 0
    (List.length (Trace_lint.lint_trace ~n:4 (Cluster.trace cluster)))

(* --- Trace-lint crash windows --- *)

let test_lint_flags_delivery_in_crash_window () =
  let events =
    [
      Trace.Submitted { time = 0; src = 0; tag = 7 };
      Trace.Crashed { time = 10; entity = 1 };
      Trace.Delivered { time = 20; entity = 1; tag = 7 };
      Trace.Restarted { time = 30; entity = 1 };
    ]
  in
  match Trace_lint.lint events with
  | [ issue ] -> check int_t "at the delivery" 2 issue.Trace_lint.index
  | issues ->
    Alcotest.fail (Printf.sprintf "expected 1 issue, got %d" (List.length issues))

let test_lint_accepts_delivery_after_restart () =
  let events =
    [
      Trace.Submitted { time = 0; src = 0; tag = 7 };
      Trace.Crashed { time = 10; entity = 1 };
      Trace.Restarted { time = 30; entity = 1 };
      Trace.Delivered { time = 40; entity = 1; tag = 7 };
      Trace.Delivered { time = 41; entity = 0; tag = 7 };
    ]
  in
  check int_t "clean" 0 (List.length (Trace_lint.lint events))

let test_lint_flags_unpaired_crash_events () =
  (match Trace_lint.lint [ Trace.Restarted { time = 1; entity = 0 } ] with
  | [ _ ] -> ()
  | _ -> Alcotest.fail "restart without crash not flagged");
  match
    Trace_lint.lint
      [
        Trace.Crashed { time = 1; entity = 0 };
        Trace.Crashed { time = 2; entity = 0 };
      ]
  with
  | [ _ ] -> ()
  | _ -> Alcotest.fail "double crash not flagged"

(* --- Injector unit behavior --- *)

let test_injector_partition_and_heal () =
  let inj = Injector.create ~n:4 ~seed:3 () in
  let pdu = dt ~src:0 ~seq:1 ~ack:[| 1; 1; 1; 1 |] in
  Injector.apply inj (Plan.Partition [ [ 0; 1 ]; [ 2; 3 ] ]);
  check int_t "same side passes" 1
    (List.length (Injector.on_pdu inj ~dst:1 ~src:0 pdu));
  check int_t "cross side dropped" 0
    (List.length (Injector.on_pdu inj ~dst:2 ~src:0 pdu));
  check bool_t "active" true (Injector.faults_active inj);
  Injector.apply inj Plan.Heal;
  check int_t "healed" 1 (List.length (Injector.on_pdu inj ~dst:2 ~src:0 pdu));
  check bool_t "inactive" false (Injector.faults_active inj);
  check int_t "partition drops counted" 1 (Injector.stats inj).partition_drops

let test_injector_corruption_is_caught_by_codec () =
  let inj = Injector.create ~n:4 ~seed:5 () in
  Injector.apply inj (Plan.Corrupt 1.0);
  let pdu = dt ~src:0 ~seq:1 ~ack:[| 1; 1; 1; 1 |] in
  for _ = 1 to 200 do
    ignore (Injector.on_pdu inj ~dst:1 ~src:0 pdu)
  done;
  let s = Injector.stats inj in
  check int_t "all flips rejected" 200 s.corrupt_dropped;
  check int_t "none survived" 0 s.corrupt_passed

let test_injector_down_silences_both_directions () =
  let inj = Injector.create ~n:4 ~seed:7 () in
  let pdu = dt ~src:0 ~seq:1 ~ack:[| 1; 1; 1; 1 |] in
  Injector.apply inj (Plan.Crash 2);
  check bool_t "down" true (Injector.is_down inj 2);
  check int_t "to the dead" 0
    (List.length (Injector.on_pdu inj ~dst:2 ~src:0 pdu));
  check int_t "from the dead" 0
    (List.length (Injector.on_pdu inj ~dst:0 ~src:2 pdu));
  Injector.apply inj (Plan.Restart 2);
  check int_t "back" 1 (List.length (Injector.on_pdu inj ~dst:2 ~src:0 pdu))

let test_injector_membership_is_silence () =
  let inj = Injector.create ~n:4 ~seed:9 () in
  let pdu = dt ~src:0 ~seq:1 ~ack:[| 1; 1; 1; 1 |] in
  let carried ~src ~dst = List.length (Injector.on_pdu inj ~dst ~src pdu) in
  Injector.apply inj (Plan.Leave 3);
  check bool_t "left node is down" true (Injector.is_down inj 3);
  for e = 0 to 2 do
    check int_t "nothing to the left node" 0 (carried ~src:e ~dst:3);
    check int_t "nothing from the left node" 0 (carried ~src:3 ~dst:e)
  done;
  check int_t "others unaffected" 1 (carried ~src:0 ~dst:1);
  Injector.apply inj (Plan.Join 3);
  check bool_t "joined node is up" false (Injector.is_down inj 3);
  for e = 0 to 2 do
    check int_t "to the joined node" 1 (carried ~src:e ~dst:3);
    check int_t "from the joined node" 1 (carried ~src:3 ~dst:e)
  done;
  check int_t "six silenced copies" 6 (Injector.stats inj).crash_drops

(* One verdict, three renderers: injectors with equal seeds fed the same
   actions and hook calls end with equal stats whichever renderer carries
   the copies — the codec round-trip, raw datagram bytes or an opaque
   frame. *)
type injector_op = Act of Plan.action | Copy of { src : int; dst : int }

let gen_injector_ops =
  let open QCheck.Gen in
  let entity = int_bound 3 in
  let prob = map (fun k -> float_of_int k /. 10.) (int_bound 10) in
  let action =
    frequency
      [
        (2, map (fun p -> Plan.Loss p) prob);
        (2, map (fun p -> Plan.Corrupt p) prob);
        (2, map (fun p -> Plan.Duplicate p) prob);
        ( 1,
          map
            (fun k ->
              Plan.Partition [ [ 0; k ]; List.filter (( <> ) k) [ 1; 2; 3 ] ])
            (int_range 1 3) );
        (1, return Plan.Heal);
        (1, map (fun e -> Plan.Crash e) entity);
        (1, map (fun e -> Plan.Restart e) entity);
      ]
  in
  let copy = map2 (fun src dst -> Copy { src; dst }) entity entity in
  list_size (int_range 1 120)
    (frequency [ (1, map (fun a -> Act a) action); (6, copy) ])

let print_injector_op = function
  | Act a -> Format.asprintf "%a" Plan.pp_action a
  | Copy { src; dst } -> Printf.sprintf "copy %d->%d" src dst

let prop_one_verdict_three_renderers =
  let ops =
    QCheck.make ~print:(QCheck.Print.list print_injector_op)
      ~shrink:QCheck.Shrink.list gen_injector_ops
  in
  QCheck.Test.make ~name:"one verdict: equal stats through every renderer"
    ~count:200 (QCheck.pair QCheck.small_nat ops) (fun (seed, ops) ->
      let pdu = dt ~src:0 ~seq:1 ~ack:[| 1; 1; 1; 1 |] in
      let datagram = Codec.encode_v2 pdu in
      let make () = Injector.create ~wire:Config.V2 ~n:4 ~seed () in
      let via_pdu = make () and via_datagram = make () in
      let via_frame = make () in
      List.iter
        (function
          | Act a ->
            List.iter
              (fun i -> Injector.apply i a)
              [ via_pdu; via_datagram; via_frame ]
          | Copy { src; dst } ->
            ignore (Injector.on_pdu via_pdu ~dst ~src pdu);
            ignore (Injector.on_datagram via_datagram ~dst ~src datagram);
            ignore (Injector.on_frame via_frame ~dst ~src ()))
        ops;
      let s = Injector.stats via_pdu in
      s = Injector.stats via_datagram && s = Injector.stats via_frame)

(* --- Chaos plans (the acceptance gate) --- *)

(* Each fixed plan runs as a scenario through the one CO runner. *)
let run_plan plan =
  let r =
    Runner.run ~compiled:(Scenario.of_plan ~n:4 ~per_entity:6 plan) ~seed:1
      Runner.Co
  in
  if not (Runner.ok r) then
    Alcotest.failf "plan %s failed:@.%a" plan.Plan.name Runner.pp r;
  match r.Runner.co with
  | Some co -> (r, co)
  | None -> Alcotest.fail "CO run must carry its verdict details"

let test_chaos_crash_restart () =
  let _, co = run_plan Plan.crash_restart in
  check int_t "all four live" 4 (List.length co.Runner.live)

let test_chaos_partition_heal () =
  let r, _ = run_plan Plan.partition_heal in
  (* A symmetric partition drops the gap evidence along with the data, so
     the RET ladder only engages after heal (and the first RET usually
     lands) — backoff-specific assertions live in the loss plan. *)
  check bool_t "partition actually bit" true
    (r.Runner.stats.Injector.partition_drops > 0)

let test_chaos_loss_burst () =
  let r, co = run_plan Plan.loss_burst in
  check bool_t "losses injected" true (r.Runner.stats.Injector.loss_drops > 0);
  check bool_t "retries happened" true (co.Runner.ret_retries > 0);
  check bool_t "backoff visible in registry" true (co.Runner.backoff_samples > 0)

let test_chaos_slow_stall () = ignore (run_plan Plan.slow_stall)

let test_chaos_corruption () =
  let r, _ = run_plan Plan.corruption in
  let s = r.Runner.stats in
  check bool_t "corruption injected" true (s.Injector.corrupt_dropped > 0);
  check int_t "checksum caught every flip" 0 s.Injector.corrupt_passed

let test_chaos_duplication () =
  let r, co = run_plan Plan.duplication in
  check bool_t "duplicates injected" true (r.Runner.stats.Injector.duplicated > 0);
  check int_t "no duplicate deliveries" 0
    (List.length co.Runner.report.Repro_harness.Oracle.dups)

let test_chaos_mayhem () = ignore (run_plan Plan.mayhem)

let test_plans_validate () =
  List.iter (fun p -> Plan.validate ~n:4 p) Plan.all;
  List.iter (fun p -> Plan.validate ~n:5 p) Plan.churn_all;
  check bool_t "find" true (Plan.find "loss_burst" = Some Plan.loss_burst);
  check bool_t "find churn" true
    (Plan.find "churn_evict" = Some Plan.churn_evict);
  check bool_t "find unknown" true (Plan.find "nope" = None);
  check bool_t "churning" true (Plan.churning Plan.churn_join_leave);
  check bool_t "not churning" false (Plan.churning Plan.mayhem)

(* --- Watchdog suspicion callback --- *)

(* A peer that crash-stops while the survivors still have gaps to close
   (a loss window keeps their backlog non-empty) must be reported as
   Departed — once per down spell, after the consecutive-miss threshold —
   and never a live peer. *)
let test_watchdog_departure_callback () =
  let cfg = Cluster.default_config ~n:4 in
  let cluster = Cluster.create { cfg with seed = 5 } in
  let inj = Injector.create ~n:4 ~seed:5 () in
  Network.set_fault_hook (Cluster.network cluster) (Injector.on_pdu inj);
  for k = 0 to 5 do
    for src = 0 to 3 do
      Cluster.submit_at cluster
        ~at:Simtime.(of_ms (2 + (6 * k)) + of_us (131 * src))
        ~src
        (Printf.sprintf "m%d.%d" src k)
    done
  done;
  Injector.apply inj (Plan.Loss 0.3);
  let engine = Cluster.engine cluster in
  Engine.schedule engine ~at:(Simtime.of_ms 20) (fun () ->
      Injector.apply inj (Plan.Crash 3);
      Cluster.crash cluster ~id:3);
  Engine.schedule engine ~at:(Simtime.of_ms 80) (fun () ->
      Injector.apply inj (Plan.Loss 0.));
  let events = ref [] in
  let dog =
    Watchdog.install ~cluster ~period:(Simtime.of_ms 5) ~stall_intervals:2
      ~departure_intervals:4
      ~on_suspect:(fun id v -> events := (id, v) :: !events)
      ~until:(Simtime.of_ms 300) ()
  in
  Cluster.run ~until:(Simtime.of_ms 300) cluster;
  Cluster.run ~max_events:500_000 cluster;
  check int_t "one departure verdict" 1 (Watchdog.departures dog);
  check int_t "reported exactly once for the dead peer" 1
    (List.length
       (List.filter (fun ev -> ev = (3, Suspicion.Departed)) !events));
  check bool_t "no live peer reported departed" true
    (List.for_all
       (fun (id, v) -> v <> Suspicion.Departed || id = 3)
       !events);
  (* Survivors converge without the dead peer wedging them. *)
  check bool_t "survivors live" true
    (List.sort compare (Cluster.live_ids cluster) = [ 0; 1; 2 ])

(* --- Churn plans (dynamic membership under the fault injector) --- *)

(* Each churn plan runs as a scenario through the one CO runner, which
   hosts CO on the membership group. *)
let run_on_group plan =
  let r =
    Runner.run ~compiled:(Scenario.of_plan ~n:5 ~per_entity:6 plan) ~seed:1
      Runner.Co
  in
  if not (Runner.ok r) then
    Alcotest.failf "churn plan %s failed:@.%a" plan.Plan.name Runner.pp r;
  match r.Runner.co with
  | Some { Runner.membership = Some m; _ } -> (r, m)
  | Some _ | None -> Alcotest.fail "a churning CO run must carry its membership"

let test_churn_join_leave () =
  let _, m = run_on_group Plan.churn_join_leave in
  check int_t "two view changes" 2 m.Runner.final_epoch;
  check bool_t "joiner bootstrapped by state transfer" true
    (m.Runner.state_transfer_bytes > 0);
  check bool_t "joiner is a member" true (List.mem 4 m.Runner.members);
  check bool_t "leaver is gone" true (not (List.mem 1 m.Runner.members))

let test_churn_evict () =
  let r, m = run_on_group Plan.churn_evict in
  check bool_t "suspicion evicted" true (m.Runner.evictions >= 1);
  check bool_t "evictee out of the view" true
    (not (List.mem 3 m.Runner.members));
  check bool_t "loss actually bit" true
    (r.Runner.stats.Injector.loss_drops > 0)

let test_churn_mayhem () =
  let _, m = run_on_group Plan.churn_mayhem in
  check bool_t "join+leave+evict all landed" true (m.Runner.final_epoch >= 3);
  check bool_t "eviction" true (m.Runner.evictions >= 1);
  check bool_t "state transfer" true (m.Runner.state_transfer_bytes > 0)

(* A node starts outside the group iff its first churn event is a Join:
   churn_join_leave's joiner does, churn_wave's leave-then-rejoin node 3
   does not. *)
let test_of_plan_derives_membership () =
  let c = Scenario.of_plan ~n:5 ~per_entity:6 Plan.churn_join_leave in
  check (Alcotest.list int_t) "joiner starts down" [ 4 ]
    c.Scenario.initially_down;
  check (Alcotest.list int_t) "observers never churn" [ 0; 2; 3 ]
    c.Scenario.observers;
  let wave = (Scenario.compile ~seed:11 Scenario.churn_wave).Scenario.plan in
  let c = Scenario.of_plan ~n:5 ~per_entity:6 wave in
  check bool_t "churn_wave's node 3 starts as a member" false
    (List.mem 3 c.Scenario.initially_down)

let () =
  Alcotest.run "fault"
    [
      ( "failure-edges",
        [
          Alcotest.test_case "retry_due re-arms after timeout" `Quick
            test_retry_due_rearms;
          Alcotest.test_case "RET timer re-arms on early fire (PR-7 fix)"
            `Quick test_ret_timer_rearms_on_early_fire;
          Alcotest.test_case "overlapping F1/F2 gaps" `Quick
            test_overlapping_gaps;
          Alcotest.test_case "satisfied_up_to shrinks outstanding" `Quick
            test_satisfied_shrinks_outstanding;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip preserves state" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "restore rejects garbage" `Quick
            test_restore_rejects_garbage;
          Alcotest.test_case "cluster crash-restart converges" `Quick
            test_cluster_crash_restart_converges;
        ] );
      ( "lint-crash-windows",
        [
          Alcotest.test_case "delivery inside window flagged" `Quick
            test_lint_flags_delivery_in_crash_window;
          Alcotest.test_case "delivery after restart ok" `Quick
            test_lint_accepts_delivery_after_restart;
          Alcotest.test_case "unpaired crash events flagged" `Quick
            test_lint_flags_unpaired_crash_events;
        ] );
      ( "injector",
        [
          Alcotest.test_case "partition and heal" `Quick
            test_injector_partition_and_heal;
          Alcotest.test_case "corruption caught by codec" `Quick
            test_injector_corruption_is_caught_by_codec;
          Alcotest.test_case "crash silences both directions" `Quick
            test_injector_down_silences_both_directions;
          Alcotest.test_case "leave silences, join restores" `Quick
            test_injector_membership_is_silence;
        ]
        @ Qutil.qsuite [ prop_one_verdict_three_renderers ] );
      ( "chaos-plans",
        [
          Alcotest.test_case "plans validate" `Quick test_plans_validate;
          Alcotest.test_case "crash_restart" `Quick test_chaos_crash_restart;
          Alcotest.test_case "partition_heal" `Quick test_chaos_partition_heal;
          Alcotest.test_case "loss_burst" `Quick test_chaos_loss_burst;
          Alcotest.test_case "slow_stall" `Quick test_chaos_slow_stall;
          Alcotest.test_case "corruption" `Quick test_chaos_corruption;
          Alcotest.test_case "duplication" `Quick test_chaos_duplication;
          Alcotest.test_case "mayhem" `Quick test_chaos_mayhem;
          Alcotest.test_case "derives churn membership" `Quick
            test_of_plan_derives_membership;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "departure callback" `Quick
            test_watchdog_departure_callback;
        ] );
      ( "churn",
        [
          Alcotest.test_case "join_leave" `Quick test_churn_join_leave;
          Alcotest.test_case "evict" `Quick test_churn_evict;
          Alcotest.test_case "mayhem" `Quick test_churn_mayhem;
        ] );
    ]
