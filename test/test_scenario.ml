(* Scenario DSL compilation and PAC-oracle properties (acceptance suite
   for the seeded scenario generator). *)

module Simtime = Repro_sim.Simtime
module Topology = Repro_sim.Topology
module Plan = Repro_fault.Plan
module Workload = Repro_harness.Workload
module Pac = Repro_harness.Pac
module Oracle = Repro_harness.Oracle
module Scenario = Repro_scenario.Scenario
module Runner = Repro_scenario.Runner

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let ms = Simtime.of_ms

(* ------------------------------------------------------------------ *)
(* Registry / builtins                                                 *)

let test_builtins_findable () =
  check int_t "six named scenarios" 6 (List.length Scenario.builtins);
  List.iter
    (fun name ->
      match Scenario.find name with
      | Some s -> check Alcotest.string "name matches" name s.Scenario.name
      | None -> Alcotest.fail ("builtin not findable: " ^ name))
    Scenario.names;
  check bool_t "unknown name" true (Scenario.find "no-such-scenario" = None)

let test_builtin_shapes_cover_acceptance () =
  (* The acceptance criteria demand at least one bursty/hotspot, one
     asymmetric-delay WAN, one correlated-loss and one churn scenario. *)
  let has pred = List.exists pred Scenario.builtins in
  check bool_t "bursty or hotspot" true
    (has (fun s ->
         match s.Scenario.workload with
         | Scenario.Bursty _ | Scenario.Hotspot _ -> true
         | _ -> false));
  check bool_t "asymmetric WAN" true
    (has (fun s ->
         match s.Scenario.delays with
         | Scenario.Wan { asymmetry; _ } -> asymmetry > 1.0
         | _ -> false));
  check bool_t "correlated loss" true
    (has (fun s ->
         match s.Scenario.loss with
         | Scenario.Gilbert_elliott _ -> true
         | _ -> false));
  check bool_t "churn" true (has (fun s -> s.Scenario.churn <> []))

(* ------------------------------------------------------------------ *)
(* Compilation: validity, observers, malformed scenarios               *)

let test_compile_observers_and_down () =
  let c = Scenario.compile ~seed:11 Scenario.burst_storm in
  check (Alcotest.list int_t) "no churn: all observe" [ 0; 1; 2; 3; 4 ]
    c.Scenario.observers;
  check (Alcotest.list int_t) "nobody starts down" [] c.Scenario.initially_down;
  let cw = Scenario.compile ~seed:11 Scenario.churn_wave in
  check bool_t "churned node not an observer" false
    (List.mem 3 cw.Scenario.observers);
  check bool_t "leave-first node starts up" false
    (List.mem 3 cw.Scenario.initially_down)

let test_compile_rejects_malformed () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let base = Scenario.burst_storm in
  check bool_t "churn on node 0 refused" true
    (raises (fun () ->
         Scenario.compile ~seed:1
           {
             base with
             Scenario.churn =
               [ { Scenario.at = ms 10; node = 0; kind = `Leave } ];
           }));
  check bool_t "overlapping partitions refused" true
    (raises (fun () ->
         Scenario.compile ~seed:1
           {
             base with
             Scenario.partitions =
               [
                 (ms 10, [ [ 0; 1 ]; [ 2; 3; 4 ] ], ms 40);
                 (ms 30, [ [ 0; 1; 2 ]; [ 3; 4 ] ], ms 60);
               ];
           }));
  check bool_t "WAN cluster sizes must sum to n" true
    (raises (fun () ->
         Scenario.compile ~seed:1
           {
             base with
             Scenario.delays =
               Scenario.Wan
                 {
                   clusters = [ 2; 2 ];
                   local_lo = ms 1;
                   local_hi = ms 1;
                   cross_lo = ms 2;
                   cross_hi = ms 3;
                   asymmetry = 2.0;
                 };
           }))

(* Every compiled plan is valid, time-sorted, and heals before the
   horizon — across builtins and seeds. *)
let prop_compile_plans_valid =
  QCheck.Test.make ~name:"compiled plans validate, sorted, pre-horizon"
    ~count:60
    QCheck.(pair (0 -- 4) small_nat)
    (fun (which, seed) ->
      let s = List.nth Scenario.builtins which in
      let c = Scenario.compile ~seed s in
      Plan.validate ~n:s.Scenario.n c.Scenario.plan;
      let sorted =
        let rec go = function
          | a :: (b :: _ as rest) -> a.Plan.at <= b.Plan.at && go rest
          | _ -> true
        in
        go c.Scenario.plan.Plan.events
      in
      sorted
      && List.for_all
           (fun e -> e.Plan.at < s.Scenario.horizon)
           c.Scenario.plan.Plan.events
      && List.for_all
           (fun { Workload.at; src; _ } -> at >= 0 && src >= 0 && src < s.Scenario.n)
           c.Scenario.workload)

(* The fixed fault plans as scenarios: valid plans, every entity an
   observer, the full submission schedule. *)
let test_of_plan_validates () =
  List.iter
    (fun p ->
      let c = Scenario.of_plan ~n:4 ~per_entity:6 p in
      Plan.validate ~n:4 c.Scenario.plan;
      check bool_t (p.Plan.name ^ ": plan kept") true (c.Scenario.plan = p);
      check (Alcotest.list Alcotest.int)
        (p.Plan.name ^ ": every entity observes")
        [ 0; 1; 2; 3 ] c.Scenario.observers;
      check Alcotest.int (p.Plan.name ^ ": submissions") 24
        (List.length c.Scenario.workload))
    Plan.all

(* ------------------------------------------------------------------ *)
(* WAN delay matrices respect the declared bounds                      *)

let site_of clusters i =
  let rec go site lo = function
    | [] -> invalid_arg "site_of"
    | sz :: rest -> if i < lo + sz then site else go (site + 1) (lo + sz) rest
  in
  go 0 0 clusters

let wan_bounds_hold ~seed s =
  match s.Scenario.delays with
  | Scenario.Uniform_delay _ -> true
  | Scenario.Wan { clusters; local_lo; local_hi; cross_lo; cross_hi; asymmetry }
    ->
    let c = Scenario.compile ~seed s in
    let topo = c.Scenario.topology in
    let n = Topology.n topo in
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          let d = Topology.delay topo ~src:i ~dst:j in
          let d' = Topology.delay topo ~src:j ~dst:i in
          if site_of clusters i = site_of clusters j then begin
            (* intra-site: symmetric, within the local range *)
            if d < local_lo || d > local_hi || d <> d' then ok := false
          end
          else begin
            (* inter-site: both directions within the cross range, and the
               directional ratio within the declared asymmetry bound *)
            if d < cross_lo || d > cross_hi then ok := false;
            let hi = float_of_int (max d d') and lo = float_of_int (min d d') in
            if hi /. lo > asymmetry +. 1e-9 then ok := false
          end
        end
      done
    done;
    !ok

let prop_wan_asymmetry_bounds =
  QCheck.Test.make ~name:"WAN matrices respect declared delay/asymmetry bounds"
    ~count:80 QCheck.small_nat (fun seed ->
      wan_bounds_hold ~seed Scenario.wan_hotspot
      && wan_bounds_hold ~seed Scenario.flaky_wan)

(* ------------------------------------------------------------------ *)
(* Zipf: realized frequencies match the declared skew                  *)

let prop_zipf_matches_skew =
  QCheck.Test.make ~name:"zipf quotas sum, rank-monotone, track ideal shares"
    ~count:80
    QCheck.(triple (2 -- 8) (0 -- 25) (10 -- 200))
    (fun (n, e10, total) ->
      let exponent = float_of_int e10 /. 10. in
      let q = Workload.zipf_quotas ~n ~exponent ~total in
      let sum = Array.fold_left ( + ) 0 q in
      (* With exponent 0 every weight ties and the remainder tie-break may
         hand the spare message to any rank; monotonicity in rank is only
         guaranteed under actual skew. *)
      let monotone = ref true in
      if exponent > 0. then
        for r = 0 to n - 2 do
          if q.(r) < q.(r + 1) then monotone := false
        done;
      let weights =
        Array.init n (fun r -> 1. /. Float.pow (float_of_int (r + 1)) exponent)
      in
      let wsum = Array.fold_left ( +. ) 0. weights in
      let close = ref true in
      Array.iteri
        (fun r w ->
          let ideal = float_of_int total *. w /. wsum in
          (* largest-remainder apportionment is within one message *)
          if Float.abs (float_of_int q.(r) -. ideal) > 1. then close := false)
        weights;
      sum = total && !monotone && !close)

let test_zipf_workload_counts_match_quotas () =
  let c = Scenario.compile ~seed:5 Scenario.zipf_spray in
  match c.Scenario.scenario.Scenario.workload with
  | Scenario.Zipf { exponent; total; _ } ->
    let n = c.Scenario.scenario.Scenario.n in
    let quotas = Workload.zipf_quotas ~n ~exponent ~total in
    let counts = Array.make n 0 in
    List.iter
      (fun { Workload.src; _ } -> counts.(src) <- counts.(src) + 1)
      c.Scenario.workload;
    for r = 0 to n - 1 do
      check int_t (Printf.sprintf "sender %d count" r) quotas.(r) counts.(r)
    done
  | _ -> Alcotest.fail "zipf_spray is not Zipf?"

(* ------------------------------------------------------------------ *)
(* PAC oracle properties                                               *)

let prop_pac_curve_monotone =
  QCheck.Test.make
    ~name:"PAC curves are monotone; terminal = delivered/expected" ~count:150
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 30) (0 -- 500))
        (list_of_size Gen.(1 -- 10) (0 -- 600)))
    (fun (lats, deads) ->
      let latencies_ms = List.map float_of_int lats in
      let deadlines_ms = List.map float_of_int deads in
      let expected = List.length latencies_ms + 3 in
      let c = Pac.curve ~protocol:"co" ~expected ~deadlines_ms ~latencies_ms in
      Pac.monotone c
      && Float.abs
           (Pac.terminal c
           -. (float_of_int c.Pac.delivered /. float_of_int expected))
         < 1e-12
      && List.for_all
           (fun { Pac.deadline_ms; probability } ->
             Float.abs (Pac.probability_at c ~deadline_ms -. probability)
             < 1e-12)
           c.Pac.points)

let test_pac_rejects_bad_inputs () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check bool_t "negative expected" true
    (raises (fun () ->
         Pac.curve ~protocol:"co" ~expected:(-1) ~deadlines_ms:[ 1. ]
           ~latencies_ms:[]));
  check bool_t "negative latency" true
    (raises (fun () ->
         Pac.curve ~protocol:"co" ~expected:2 ~deadlines_ms:[ 1. ]
           ~latencies_ms:[ -0.5 ]));
  check bool_t "more latencies than obligations" true
    (raises (fun () ->
         Pac.curve ~protocol:"co" ~expected:1 ~deadlines_ms:[ 1. ]
           ~latencies_ms:[ 1.; 2. ]))

(* ------------------------------------------------------------------ *)
(* End-to-end: loss-free terminal 1.0, oracle agreement, determinism   *)

let run_all ~seed scenario =
  let compiled = Scenario.compile ~seed scenario in
  ( compiled,
    List.map (Runner.run ~compiled ~seed) Runner.all_protocols )

let test_loss_free_run_terminates_at_one () =
  (* wan_hotspot has no loss, no partitions and no churn: every protocol
     must meet every obligation, and CO must satisfy the exact oracle. *)
  let _, results = run_all ~seed:3 Scenario.wan_hotspot in
  List.iter
    (fun r ->
      check bool_t
        (Runner.protocol_name r.Runner.protocol ^ " terminal = 1.0")
        true
        (Pac.terminal r.Runner.curve = 1.0))
    results;
  let co = List.find (fun r -> r.Runner.protocol = Runner.Co) results in
  check bool_t "CO causal order clean" true co.Runner.causal_ok;
  check bool_t "CO verdict" true (Runner.ok co);
  match co.Runner.co with
  | Some c -> check bool_t "CO oracle ok" true (Oracle.ok c.Runner.report)
  | None -> Alcotest.fail "CO run must carry an oracle report"

let test_pac_one_implies_oracle_ok () =
  (* The acceptance property: whenever PAC reports terminal probability
     1.0 for CO, the exact causal-order oracle must also pass. *)
  List.iter
    (fun s ->
      let compiled = Scenario.compile ~seed:9 s in
      let r = Runner.run ~compiled ~seed:9 Runner.Co in
      if Pac.terminal r.Runner.curve = 1.0 then begin
        check bool_t
          (s.Scenario.name ^ ": PAC 1.0 implies causal order")
          true r.Runner.causal_ok;
        match r.Runner.co with
        | Some c ->
          check bool_t (s.Scenario.name ^ ": oracle agrees") true
            (Oracle.ok c.Runner.report)
        | None -> Alcotest.fail "missing oracle report"
      end)
    Scenario.builtins

let test_same_seed_byte_identical_artifact () =
  let artifact ~seed s =
    let compiled, results = run_all ~seed s in
    let deadlines_ms = Runner.deadline_grid compiled results in
    ignore deadlines_ms;
    Runner.artifact_json ~compiled ~seed results
  in
  let a = artifact ~seed:21 Scenario.burst_storm in
  let b = artifact ~seed:21 Scenario.burst_storm in
  check bool_t "same seed, byte-identical artifact" true (String.equal a b);
  let c = artifact ~seed:22 Scenario.burst_storm in
  check bool_t "different seed, different runs" false (String.equal a c)

(* ------------------------------------------------------------------ *)
(* Faults: the full plan vocabulary reaches every protocol             *)

(* The committed [BENCH_pac_<name>.json] goldens at seed 42: rebuilding
   them must reproduce every byte. Resolved next to the built executable
   ([dune runtest] copies the fixtures there), else from the source tree. *)
let pac_golden name =
  let file = Printf.sprintf "fixtures/pac/BENCH_pac_%s.json" name in
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) file;
      Filename.concat "test" file;
    ]
  in
  let path =
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> List.hd candidates
  in
  In_channel.with_open_bin path In_channel.input_all

(* Corrupt, duplicate and stall windows — actions no scenario compiles
   to — layered over a compiled plan, all healed mid-horizon. *)
let with_full_fault_set (c : Scenario.compiled) =
  let sc = c.Scenario.scenario in
  let h = sc.Scenario.horizon in
  let window from until on off =
    [
      { Plan.at = h * from / 10; action = on };
      { Plan.at = h * until / 10; action = off };
    ]
  in
  let extra =
    window 1 3 (Plan.Corrupt 0.2) (Plan.Corrupt 0.)
    @ window 2 4 (Plan.Duplicate 0.3) (Plan.Duplicate 0.)
    @ window 3 5 (Plan.Stall { entity = 1; factor = 20 }) (Plan.Unstall 1)
  in
  let plan = c.Scenario.plan in
  let events =
    List.stable_sort
      (fun a b -> Simtime.compare a.Plan.at b.Plan.at)
      (plan.Plan.events @ extra)
  in
  let plan = { plan with Plan.events } in
  Plan.validate ~n:sc.Scenario.n plan;
  { c with Scenario.plan }

let test_full_fault_set_every_protocol () =
  List.iter
    (fun s ->
      let compiled = with_full_fault_set (Scenario.compile ~seed:42 s) in
      let run () =
        List.map (Runner.run ~compiled ~seed:42) Runner.all_protocols
      in
      let results = run () in
      List.iter
        (fun r ->
          let c = r.Runner.curve in
          let label =
            s.Scenario.name ^ "/" ^ Runner.protocol_name r.Runner.protocol
          in
          let every_obligation () =
            check int_t (label ^ ": every obligation") c.Pac.expected
              c.Pac.delivered
          in
          match r.Runner.protocol with
          | Runner.Co ->
            (match r.Runner.co with
            | Some c ->
              check bool_t (label ^ ": oracle ok") true
                (Oracle.ok c.Runner.report)
            | None -> Alcotest.fail "CO run must carry an oracle report");
            every_obligation ()
          | Runner.Tobcast -> every_obligation ()
          | Runner.Cbcast ->
            (* No loss recovery: stalls are expected, overdelivery is not. *)
            check bool_t (label ^ ": delivered <= expected") true
              (c.Pac.delivered <= c.Pac.expected))
        results;
      let artifact = Runner.artifact_json ~compiled ~seed:42 results in
      check Alcotest.string
        (s.Scenario.name ^ ": same seed, byte-identical artifact")
        artifact
        (Runner.artifact_json ~compiled ~seed:42 (run ()));
      check bool_t (s.Scenario.name ^ ": the added faults bite") false
        (String.equal artifact (pac_golden s.Scenario.name)))
    Scenario.builtins

(* A partition that never heals leaves each side without the other's
   messages: order stays exact, but the one verdict must fail. *)
let test_unhealed_partition_fails_verdict () =
  let plan =
    {
      Plan.name = "split_forever";
      description = "{0,1}/{2,3} from 20ms, never healed";
      events =
        [ { Plan.at = Simtime.of_ms 20; action = Plan.Partition [ [ 0; 1 ]; [ 2; 3 ] ] } ];
      horizon = Simtime.of_ms 200;
    }
  in
  let compiled = Scenario.of_plan ~n:4 ~per_entity:6 plan in
  let r = Runner.run ~compiled ~seed:1 Runner.Co in
  check bool_t "causal order still exact" true r.Runner.causal_ok;
  check bool_t "verdict fails on the shortfall" false (Runner.ok r)

(* One down-schedule serves every protocol: each fixed plan fires the same
   submissions under the baselines as under CO. *)
let test_plans_same_submissions_every_protocol () =
  List.iter
    (fun p ->
      let compiled = Scenario.of_plan ~n:4 ~per_entity:6 p in
      match
        List.map
          (fun proto -> (Runner.run ~compiled ~seed:1 proto).Runner.submitted)
          Runner.all_protocols
      with
      | co :: baselines ->
        List.iter
          (fun b -> check Alcotest.int (p.Plan.name ^ ": submitted") co b)
          baselines
      | [] -> Alcotest.fail "no protocols")
    Plan.all

(* CO runs churn_wave on the membership group: its Join/Leave commit as
   view changes and never silence the medium. *)
let test_churn_wave_on_group () =
  let compiled = Scenario.compile ~seed:42 Scenario.churn_wave in
  let r = Runner.run ~compiled ~seed:42 Runner.Co in
  if not (Runner.ok r) then Alcotest.failf "churn_wave:@.%a" Runner.pp r;
  (match r.Runner.co with
  | Some { Runner.membership = Some m; _ } ->
    check int_t "two view changes" 2 m.Runner.view_changes
  | Some _ | None -> Alcotest.fail "CO must run churn_wave on a group");
  check int_t "no crash drops" 0 r.Runner.stats.Repro_fault.Injector.crash_drops

let test_pac_goldens () =
  List.iter
    (fun s ->
      let compiled, results = run_all ~seed:42 s in
      check Alcotest.string
        (s.Scenario.name ^ ": golden byte-identical")
        (pac_golden s.Scenario.name)
        (Runner.artifact_json ~compiled ~seed:42 results))
    Scenario.builtins

(* ------------------------------------------------------------------ *)

let qsuite tests = Qutil.qsuite ~long:false tests

let () =
  Alcotest.run "scenario"
    [
      ( "dsl",
        [
          Alcotest.test_case "builtins findable" `Quick test_builtins_findable;
          Alcotest.test_case "builtins cover acceptance shapes" `Quick
            test_builtin_shapes_cover_acceptance;
          Alcotest.test_case "observers and initially-down" `Quick
            test_compile_observers_and_down;
          Alcotest.test_case "malformed scenarios rejected" `Quick
            test_compile_rejects_malformed;
          Alcotest.test_case "zipf workload matches quotas" `Quick
            test_zipf_workload_counts_match_quotas;
          Alcotest.test_case "fault plans as scenarios validate" `Quick
            test_of_plan_validates;
        ]
        @ qsuite
            [
              prop_compile_plans_valid;
              prop_wan_asymmetry_bounds;
              prop_zipf_matches_skew;
            ] );
      ( "pac",
        [
          Alcotest.test_case "rejects bad inputs" `Quick
            test_pac_rejects_bad_inputs;
          Alcotest.test_case "loss-free terminal 1.0" `Slow
            test_loss_free_run_terminates_at_one;
          Alcotest.test_case "PAC 1.0 implies exact order" `Slow
            test_pac_one_implies_oracle_ok;
          Alcotest.test_case "same-seed artifacts byte-identical" `Slow
            test_same_seed_byte_identical_artifact;
          Alcotest.test_case "full plan on every protocol" `Slow
            test_full_fault_set_every_protocol;
          Alcotest.test_case "golden PAC artifacts" `Slow test_pac_goldens;
          Alcotest.test_case "churn_wave on the group" `Quick
            test_churn_wave_on_group;
          Alcotest.test_case "unhealed partition fails the verdict" `Quick
            test_unhealed_partition_fails_verdict;
          Alcotest.test_case "fault plans fire alike on every protocol" `Slow
            test_plans_same_submissions_every_protocol;
        ]
        @ qsuite [ prop_pac_curve_monotone ] );
    ]
