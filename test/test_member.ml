(* Dynamic membership: views, suspicion policy, and the Group layer's
   epoch-stamped view changes with barrier + state transfer. *)

module View = Repro_member.View
module Suspicion = Repro_member.Suspicion
module Group = Repro_member.Group
module Memberwire = Repro_pdu.Memberwire
module Config = Repro_core.Config
module Entity = Repro_core.Entity
module Engine = Repro_sim.Engine
module Simtime = Repro_sim.Simtime
module Pdu = Repro_pdu.Pdu

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let strings_t = Alcotest.(list string)

(* ------------------------------------------------------------------ *)
(* View units                                                          *)

let test_view_basics () =
  let v = View.initial [| 2; 5; 9 |] in
  check int_t "epoch" 0 v.View.epoch;
  check int_t "size" 3 (View.size v);
  check bool_t "mem" true (View.mem v 5);
  check bool_t "not mem" false (View.mem v 3);
  check (Alcotest.option int_t) "rank of 9" (Some 2) (View.rank v ~node:9);
  check int_t "node at rank 1" 5 (View.node v ~rank:1);
  check int_t "coordinator" 2 (View.coordinator v);
  check int_t "coordinator excluding" 5 (View.coordinator ~excluding:2 v)

let test_view_validate () =
  List.iter
    (fun members ->
      Alcotest.match_raises "invalid view"
        (function Invalid_argument _ -> true | _ -> false)
        (fun () -> ignore (View.initial members)))
    [ [||]; [| 3 |]; [| 1; 1 |]; [| 5; 2 |]; [| -1; 2 |] ]

let test_view_apply () =
  let v = View.initial [| 0; 2; 4 |] in
  (match View.apply v (Memberwire.Join 3) with
  | Ok v' ->
    check int_t "epoch bumped" 1 v'.View.epoch;
    check (Alcotest.array int_t) "sorted insert" [| 0; 2; 3; 4 |]
      v'.View.members
  | Error e -> Alcotest.fail e);
  (match View.apply v (Memberwire.Leave 2) with
  | Ok v' -> check (Alcotest.array int_t) "removed" [| 0; 4 |] v'.View.members
  | Error e -> Alcotest.fail e);
  check bool_t "join existing refused" true
    (Result.is_error (View.apply v (Memberwire.Join 2)));
  check bool_t "evict non-member refused" true
    (Result.is_error (View.apply v (Memberwire.Evict 7)));
  let small = View.initial [| 0; 1 |] in
  check bool_t "cannot shrink below 2" true
    (Result.is_error (View.apply small (Memberwire.Leave 1)))

let test_rank_map () =
  let closing = View.initial [| 0; 2; 4 |] in
  let next =
    match View.apply closing (Memberwire.Join 3) with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  (* next members: 0 2 3 4 -> ranks 0 1 2 3; rank 2 (node 3) is fresh *)
  let map = View.rank_map ~closing ~next in
  check (Alcotest.option int_t) "survivor 0" (Some 0) (map 0);
  check (Alcotest.option int_t) "survivor 2" (Some 1) (map 1);
  check (Alcotest.option int_t) "joiner" None (map 2);
  check (Alcotest.option int_t) "survivor 4" (Some 2) (map 3);
  check (Alcotest.option int_t) "out of range" None (map 7)

(* ------------------------------------------------------------------ *)
(* Suspicion units                                                     *)

let test_suspicion_idle_is_not_death () =
  let s = Suspicion.create ~departure_threshold:2 ~n:1 () in
  for _ = 1 to 10 do
    check bool_t "idle silence is healthy" true
      (Suspicion.observe s ~subject:0 ~alive:false ~progressed:false
         ~backlog:0
      = Suspicion.Healthy)
  done;
  check int_t "no misses accumulated" 0 (Suspicion.misses s ~subject:0)

let test_suspicion_departure_latches () =
  let s = Suspicion.create ~departure_threshold:3 ~n:2 () in
  let obs ~alive =
    Suspicion.observe s ~subject:0 ~alive ~progressed:false ~backlog:5
  in
  check bool_t "1st miss healthy" true (obs ~alive:false = Suspicion.Healthy);
  check bool_t "2nd miss healthy" true (obs ~alive:false = Suspicion.Healthy);
  check bool_t "3rd miss departs" true (obs ~alive:false = Suspicion.Departed);
  (* Latched: even a revival observation keeps answering Departed. *)
  check bool_t "latched" true (obs ~alive:true = Suspicion.Departed);
  Suspicion.reset s ~subject:0;
  check bool_t "reset clears" true (obs ~alive:true = Suspicion.Healthy)

let test_suspicion_alive_resets_silence () =
  let s = Suspicion.create ~departure_threshold:2 ~n:1 () in
  let silent () =
    Suspicion.observe s ~subject:0 ~alive:false ~progressed:false ~backlog:3
  in
  check bool_t "miss 1" true (silent () = Suspicion.Healthy);
  check bool_t "sign of life" true
    (Suspicion.observe s ~subject:0 ~alive:true ~progressed:true ~backlog:3
    = Suspicion.Healthy);
  check bool_t "count restarted" true (silent () = Suspicion.Healthy);
  check bool_t "now departs" true (silent () = Suspicion.Departed)

let test_suspicion_stall_vs_departure () =
  let s = Suspicion.create ~stall_threshold:2 ~departure_threshold:3 ~n:1 () in
  let stuck () =
    Suspicion.observe s ~subject:0 ~alive:true ~progressed:false ~backlog:4
  in
  check bool_t "stuck 1" true (stuck () = Suspicion.Healthy);
  check bool_t "stalled at threshold" true (stuck () = Suspicion.Stalled);
  (* Progress un-latches the stall. *)
  check bool_t "progress heals" true
    (Suspicion.observe s ~subject:0 ~alive:true ~progressed:true ~backlog:4
    = Suspicion.Healthy);
  check bool_t "stuck again 1" true (stuck () = Suspicion.Healthy)

let test_suspicion_departure_boundary_exact () =
  (* Off-by-one guard on the departure boundary, at the default thresholds:
     the verdict must stay Healthy through departure_intervals - 1 silent
     observations and flip to Departed on exactly the departure_intervals-th
     — not one early, not one late. *)
  let s = Suspicion.create ~n:2 () in
  let silent subject =
    Suspicion.observe s ~subject ~alive:false ~progressed:false ~backlog:1
  in
  let threshold = 3 (* Suspicion.create's default departure_threshold *) in
  for i = 1 to threshold - 1 do
    check bool_t
      (Printf.sprintf "healthy after %d of %d misses" i threshold)
      true
      (silent 0 = Suspicion.Healthy);
    check int_t (Printf.sprintf "misses = %d" i) i (Suspicion.misses s ~subject:0)
  done;
  check bool_t "departs exactly at the threshold" true
    (silent 0 = Suspicion.Departed);
  check int_t "misses = threshold" threshold (Suspicion.misses s ~subject:0);
  (* A subject that is alive but not progressing for the same number of
     intervals stalls — it must never cross into Departed while alive. *)
  let stuck () =
    Suspicion.observe s ~subject:1 ~alive:true ~progressed:false ~backlog:1
  in
  for _ = 1 to threshold - 1 do ignore (stuck ()) done;
  check bool_t "alive subject stalls, never departs" true
    (stuck () = Suspicion.Stalled);
  check bool_t "stays stalled past the boundary" true
    (stuck () = Suspicion.Stalled)

(* ------------------------------------------------------------------ *)
(* epoch_cid                                                           *)

let test_epoch_cid_injective () =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun cid ->
      List.iter
        (fun epoch ->
          let c = Group.epoch_cid ~cid ~epoch in
          check bool_t "distinct" false (Hashtbl.mem seen c);
          Hashtbl.replace seen c ())
        [ 0; 1; 2; 3; 17; 1000 ])
    [ 0; 1; 7 ]

(* ------------------------------------------------------------------ *)
(* Group scenarios                                                     *)

let group_config ?(max_nodes = 6) ?(loss = 0.0) ?(seed = 11) ?(jitter = true)
    () =
  let base = Group.default_config ~max_nodes in
  let protocol =
    if jitter then base.Group.protocol
    else { base.Group.protocol with Config.ret_jitter_pct = 0 }
  in
  { base with Group.loss_prob = loss; seed; protocol }

let submit_at g ~at ~node payload =
  Engine.schedule (Group.engine g) ~at (fun () ->
      ignore (Group.submit g ~node payload))

let payloads l = List.map (fun (d : Pdu.data) -> d.Pdu.payload) l

let epoch_payloads g ~node ~epoch =
  payloads
    (List.filter_map
       (fun (e, d) -> if e = epoch then Some d else None)
       (Group.deliveries g ~node))

(* All live witnesses of [epoch] must deliver the same set of payloads in
   that epoch (the protocol totally agrees on membership of an epoch, and
   causally — not totally — orders deliveries within it, so cross-node
   comparison is on sets; order is checked per-rank by the differential
   suite and pairwise-causally by the checker). *)
let check_epoch_agreement ?(skip = []) g ~epoch ~members =
  let witnesses = List.filter (fun m -> not (List.mem m skip)) members in
  match witnesses with
  | [] -> ()
  | w0 :: rest ->
    let sorted node = List.sort compare (epoch_payloads g ~node ~epoch) in
    let reference = sorted w0 in
    List.iter
      (fun w ->
        check strings_t
          (Printf.sprintf "epoch %d: node %d agrees with node %d" epoch w w0)
          reference (sorted w))
      rest

let test_group_static_smoke () =
  let g = Group.create (group_config ()) ~initial:[| 0; 1; 2 |] in
  submit_at g ~at:(Simtime.of_ms 1) ~node:0 "a";
  submit_at g ~at:(Simtime.of_ms 2) ~node:1 "b";
  submit_at g ~at:(Simtime.of_ms 2) ~node:2 "c";
  check bool_t "settles" true (Group.settle g);
  check int_t "no view change" 0 (Group.view_changes g);
  check_epoch_agreement g ~epoch:0 ~members:[ 0; 1; 2 ];
  check int_t "three delivered" 3
    (List.length (epoch_payloads g ~node:0 ~epoch:0))

let test_group_join_midrun () =
  let g = Group.create (group_config ()) ~initial:[| 0; 1; 2 |] in
  (* Epoch-0 traffic still in flight when the join proposal lands. *)
  submit_at g ~at:(Simtime.of_ms 1) ~node:0 "e0-a";
  submit_at g ~at:(Simtime.of_ms 2) ~node:1 "e0-b";
  Engine.schedule (Group.engine g) ~at:(Simtime.of_ms 3) (fun () ->
      Group.propose g ~origin:3 (Memberwire.Join 3));
  check bool_t "join settles" true (Group.settle g);
  check int_t "epoch advanced" 1 (Group.epoch g);
  check (Alcotest.array int_t) "members" [| 0; 1; 2; 3 |] (Group.members g);
  check int_t "one view change" 1 (Group.view_changes g);
  check bool_t "state transfer happened" true (Group.state_transfer_bytes g > 0);
  check bool_t "joiner has an entity" true (Group.entity g ~node:3 <> None);
  (* Epoch-1 traffic, including from the joiner. *)
  let t1 = Engine.now (Group.engine g) in
  submit_at g ~at:Simtime.(t1 + Simtime.of_ms 1) ~node:3 "e1-joiner";
  submit_at g ~at:Simtime.(t1 + Simtime.of_ms 2) ~node:0 "e1-a";
  submit_at g ~at:Simtime.(t1 + Simtime.of_ms 2) ~node:2 "e1-c";
  check bool_t "epoch-1 settles" true (Group.settle g);
  check_epoch_agreement g ~epoch:0 ~members:[ 0; 1; 2 ];
  check_epoch_agreement g ~epoch:1 ~members:[ 0; 1; 2; 3 ];
  check int_t "joiner delivered epoch-1 traffic" 3
    (List.length (epoch_payloads g ~node:3 ~epoch:1));
  (* The joiner was never a member of epoch 0. *)
  check strings_t "no cross-epoch delivery at joiner" []
    (epoch_payloads g ~node:3 ~epoch:0)

let test_group_leave () =
  let g = Group.create (group_config ()) ~initial:[| 0; 1; 2 |] in
  submit_at g ~at:(Simtime.of_ms 1) ~node:2 "pre-leave";
  Engine.schedule (Group.engine g) ~at:(Simtime.of_ms 2) (fun () ->
      Group.propose g ~origin:2 (Memberwire.Leave 2));
  check bool_t "leave settles" true (Group.settle g);
  check (Alcotest.array int_t) "members" [| 0; 1 |] (Group.members g);
  check bool_t "leaver has no entity" true (Group.entity g ~node:2 = None);
  (* The leaver's last PDU crossed the barrier before the cut. *)
  check_epoch_agreement g ~epoch:0 ~members:[ 0; 1; 2 ];
  check bool_t "pre-leave delivered" true
    (List.mem "pre-leave" (epoch_payloads g ~node:0 ~epoch:0));
  let t1 = Engine.now (Group.engine g) in
  submit_at g ~at:Simtime.(t1 + Simtime.of_ms 1) ~node:0 "post-leave";
  check bool_t "epoch-1 settles" true (Group.settle g);
  check_epoch_agreement g ~epoch:1 ~members:[ 0; 1 ];
  check bool_t "leaver refused" false (Group.submit g ~node:2 "nope");
  check strings_t "leaver saw nothing of epoch 1" []
    (epoch_payloads g ~node:2 ~epoch:1)

let test_group_eviction_under_loss () =
  let g =
    Group.create
      (group_config ~loss:0.02 ~seed:3 ())
      ~initial:[| 0; 1; 2; 3 |]
  in
  (* Steady traffic from the healthy members keeps a backlog visible while
     node 3 is dark, so suspicion can tell death from idleness. *)
  let e = Group.engine g in
  let until = Simtime.of_ms 400 in
  Array.iter
    (fun node ->
      let count = ref 0 in
      Engine.every e ~period:(Simtime.of_ms 7) ~until (fun () ->
          incr count;
          ignore (Group.submit g ~node (Printf.sprintf "n%d-%d" node !count)))
    )
    [| 0; 1; 2 |];
  Engine.schedule e ~at:(Simtime.of_ms 20) (fun () -> Group.crash g ~node:3);
  Group.install_suspicion g ~period:(Simtime.of_ms 10) ~departure_threshold:3
    ~until ();
  Group.run g ~until;
  check bool_t "soak settles" true (Group.settle g);
  check bool_t "evicted" false (Group.is_member g 3);
  check bool_t "eviction proposed" true (Group.evictions g >= 1);
  check bool_t "view changed" true (Group.view_changes g >= 1);
  (* Every epoch's surviving witnesses agree; node 3 is no witness after
     it crashed. *)
  for epoch = 0 to Group.epoch g do
    check_epoch_agreement g ~skip:[ 3 ] ~epoch ~members:[ 0; 1; 2; 3 ]
  done;
  (* Traffic kept flowing after the eviction. *)
  check bool_t "post-eviction deliveries" true
    (List.length (epoch_payloads g ~node:0 ~epoch:(Group.epoch g)) > 0)

let test_group_churn_soak () =
  (* The acceptance soak: a join, a voluntary leave and a watchdog eviction
     in one lossy run, with traffic throughout. *)
  let g =
    Group.create
      (group_config ~max_nodes:6 ~loss:0.05 ~seed:42 ())
      ~initial:[| 0; 1; 2; 3 |]
  in
  let e = Group.engine g in
  let until = Simtime.of_ms 900 in
  Array.iter
    (fun node ->
      let count = ref 0 in
      Engine.every e ~period:(Simtime.of_ms 9) ~until (fun () ->
          incr count;
          ignore (Group.submit g ~node (Printf.sprintf "n%d-%d" node !count)))
    )
    [| 0; 1; 2 |];
  Engine.schedule e ~at:(Simtime.of_ms 40) (fun () ->
      Group.propose g ~origin:4 (Memberwire.Join 4));
  Engine.schedule e ~at:(Simtime.of_ms 200) (fun () ->
      Group.propose g ~origin:2 (Memberwire.Leave 2));
  Engine.schedule e ~at:(Simtime.of_ms 350) (fun () -> Group.crash g ~node:3);
  Group.install_suspicion g ~period:(Simtime.of_ms 12) ~departure_threshold:3
    ~until ();
  Group.run g ~until;
  check bool_t "churn soak settles" true (Group.settle g);
  check bool_t "join took" true (Group.is_member g 4);
  check bool_t "leave took" false (Group.is_member g 2);
  check bool_t "eviction took" false (Group.is_member g 3);
  check bool_t "three view changes" true (Group.view_changes g >= 3);
  check bool_t "eviction was watchdog-driven" true (Group.evictions g >= 1);
  check bool_t "joiner was bootstrapped" true (Group.state_transfer_bytes g > 0);
  (* Convergence oracle: per epoch, all un-crashed witnesses of that epoch
     agree on the exact delivery order. *)
  let members_of_epoch =
    (* Reconstruct witness sets from the membership story above. *)
    fun epoch ->
      let base = [ 0; 1; 2; 3 ] in
      let with_join = [ 0; 1; 2; 3; 4 ] in
      let after_leave = [ 0; 1; 3; 4 ] in
      let after_evict = [ 0; 1; 4 ] in
      match epoch with
      | 0 -> base
      | 1 -> with_join
      | 2 -> after_leave
      | _ -> after_evict
  in
  for epoch = 0 to Group.epoch g do
    check_epoch_agreement g ~skip:[ 3 ] ~epoch ~members:(members_of_epoch epoch)
  done;
  (* Nothing ever crossed an epoch boundary. *)
  check bool_t "epoch guard exercised or clean" true
    (Group.stale_epoch_drops g >= 0)

let test_group_submit_fenced_during_barrier () =
  let g = Group.create (group_config ()) ~initial:[| 0; 1 |] in
  let refused = ref false in
  let e = Group.engine g in
  Engine.schedule e ~at:(Simtime.of_ms 1) (fun () ->
      Group.propose g ~origin:2 (Memberwire.Join 2));
  (* While the barrier is quiescing, submits bounce. *)
  let rec probe () =
    if Group.epoch g = 0 then begin
      if not (Group.submit g ~node:0 "probe") then refused := true;
      Engine.schedule_after e ~delay:(Simtime.of_us 500) probe
    end
  in
  Engine.schedule e ~at:(Simtime.of_ms 1) probe;
  check bool_t "settles" true (Group.settle g);
  check bool_t "some submit was fenced" true !refused;
  check int_t "joined" 1 (Group.epoch g);
  (* And the fence lifted afterwards. *)
  check bool_t "accepts again" true (Group.submit g ~node:0 "after");
  check bool_t "resettles" true (Group.settle g)

(* ------------------------------------------------------------------ *)
(* Differential property: each epoch of a churning group is
   delivery-equivalent to a fixed-membership run of the same workload —
   the same multiset of payloads reaches every rank, and every source's
   payloads arrive in submission order (the causal guarantee; concurrent
   PDUs may interleave differently because carried sequence numbers and
   residual control traffic shift tie-breaks, which CO permits).       *)

type op = { rank : int; at_ms : int; payload : string }

let run_reference ~size ~(ops : op list) =
  let g =
    Group.create
      (group_config ~max_nodes:size ~jitter:false ~seed:1 ())
      ~initial:(Array.init size (fun i -> i))
  in
  List.iter
    (fun op -> submit_at g ~at:(Simtime.of_ms op.at_ms) ~node:op.rank op.payload)
    ops;
  if not (Group.settle g) then Alcotest.fail "reference run did not settle";
  List.map (fun rank -> epoch_payloads g ~node:rank ~epoch:0)
    (List.init size (fun i -> i))

let differential_case seed =
  let rng = Random.State.make [| 0x5e17; seed |] in
  let gen_ops ~size ~epoch =
    let count = 2 + Random.State.int rng 4 in
    List.init count (fun i ->
        {
          rank = Random.State.int rng size;
          at_ms = 1 + Random.State.int rng 8;
          payload = Printf.sprintf "e%d-%d-%d" epoch seed i;
        })
  in
  (* Churning group: 3 members, node 3 joins, then one member leaves. *)
  let g =
    Group.create (group_config ~max_nodes:4 ~jitter:false ~seed:1 ())
      ~initial:[| 0; 1; 2 |]
  in
  let run_epoch ~view_members ops =
    let epoch = Group.epoch g in
    let base = Engine.now (Group.engine g) in
    List.iter
      (fun op ->
        submit_at g
          ~at:Simtime.(base + Simtime.of_ms op.at_ms)
          ~node:view_members.(op.rank) op.payload)
      ops;
    if not (Group.settle g) then
      Alcotest.failf "churn run did not settle (seed %d epoch %d)" seed epoch
  in
  let change_view change origin =
    Group.propose g ~origin change;
    if not (Group.settle g) then
      Alcotest.failf "view change did not settle (seed %d)" seed
  in
  let e0_members = [| 0; 1; 2 |] in
  let e0_ops = gen_ops ~size:3 ~epoch:0 in
  run_epoch ~view_members:e0_members e0_ops;
  change_view (Memberwire.Join 3) 3;
  let e1_members = Group.members g in
  let e1_ops = gen_ops ~size:4 ~epoch:1 in
  run_epoch ~view_members:e1_members e1_ops;
  let leaver = e1_members.(Random.State.int rng 4) in
  change_view (Memberwire.Leave leaver) leaver;
  let e2_members = Group.members g in
  let e2_ops = gen_ops ~size:3 ~epoch:2 in
  run_epoch ~view_members:e2_members e2_ops;
  (* Compare every epoch, rank by rank, against a fresh fixed-membership
     run of the same ops: identical delivery multisets, and identical
     per-source (causal) subsequences. *)
  let submission_order ~ops ~src =
    (* Stable by at_ms: same-instant submits run in list order. *)
    List.stable_sort
      (fun a b -> compare a.at_ms b.at_ms)
      (List.filter (fun op -> op.rank = src) ops)
    |> List.map (fun op -> op.payload)
  in
  let project ~delivered ~of_payloads =
    List.filter (fun p -> List.mem p of_payloads) delivered
  in
  List.iter
    (fun (epoch, members, ops) ->
      let size = Array.length members in
      let reference = run_reference ~size ~ops in
      List.iteri
        (fun rank expected ->
          let got = epoch_payloads g ~node:members.(rank) ~epoch in
          if List.sort compare got <> List.sort compare expected then
            Alcotest.failf
              "seed %d epoch %d rank %d: churn delivered {%s}, reference {%s}"
              seed epoch rank
              (String.concat "," got)
              (String.concat "," expected);
          List.iter
            (fun src ->
              let fifo = submission_order ~ops ~src in
              List.iter
                (fun (who, delivered) ->
                  let sub = project ~delivered ~of_payloads:fifo in
                  if sub <> fifo then
                    Alcotest.failf
                      "seed %d epoch %d rank %d: %s delivers source %d as \
                       %s, submitted %s"
                      seed epoch rank who src (String.concat "," sub)
                      (String.concat "," fifo))
                [ ("churn", got); ("reference", expected) ])
            (List.init size (fun i -> i)))
        reference)
    [
      (0, e0_members, e0_ops);
      (1, e1_members, e1_ops);
      (2, e2_members, e2_ops);
    ];
  (* No payload ever escapes its epoch. *)
  Array.iter
    (fun node ->
      List.iter
        (fun (epoch, (d : Pdu.data)) ->
          let prefix = Printf.sprintf "e%d-" epoch in
          if
            String.length d.Pdu.payload < String.length prefix
            || String.sub d.Pdu.payload 0 (String.length prefix) <> prefix
          then
            Alcotest.failf "seed %d: node %d delivered %S in epoch %d" seed
              node d.Pdu.payload epoch)
        (Group.deliveries g ~node))
    [| 0; 1; 2; 3 |];
  true

let differential_count =
  (* 1000 seeded cases as specified; override for quick local iteration. *)
  match Sys.getenv_opt "MEMBER_DIFF_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1000)
  | None -> 1000

let test_differential_churn =
  QCheck.Test.make ~name:"churn vs fixed-membership (per-epoch orders)"
    ~count:differential_count
    QCheck.(int_bound 1_000_000)
    differential_case

(* ------------------------------------------------------------------ *)
(* Bootstrap checkpoints and restore validation                        *)

let null_actions =
  {
    Entity.broadcast = (fun _ -> ());
    unicast = (fun ~dst:_ _ -> ());
    deliver = (fun _ -> ());
    now = (fun () -> Simtime.zero);
    set_timer = (fun ~delay:_ _ -> ());
    available_buffer = (fun () -> 64);
  }

let test_bootstrap_checkpoint_restores () =
  let config =
    { Config.default with Config.cid = Group.epoch_cid ~cid:0 ~epoch:2; epoch = 2 }
  in
  let req = [| 5; 3; 1; 7 |] in
  let headers = [ (0, 2, [| 2; 1; 1; 1 |]); (3, 4, [| 4; 2; 1; 5 |]) ] in
  let blob = Entity.bootstrap_checkpoint ~config ~id:1 ~n:4 ~req ~headers in
  match Entity.restore ~expect_id:1 ~expect_n:4 ~config ~actions:null_actions blob with
  | Ok e ->
    check (Alcotest.array int_t) "req carried" req (Entity.req e);
    check int_t "seq continues" 3 (Entity.seq_next e);
    check int_t "epoch" 2 (Entity.epoch e)
  | Error err ->
    Alcotest.failf "restore refused: %s"
      (Format.asprintf "%a" Entity.pp_restore_error err)

let test_restore_rejects () =
  let config = Config.default in
  let actions = null_actions in
  let blob =
    Entity.bootstrap_checkpoint ~config ~id:0 ~n:3 ~req:[| 2; 2; 2 |]
      ~headers:[]
  in
  (match Entity.restore ~expect_id:1 ~config ~actions blob with
  | Error (Entity.Mismatch { field = "entity id"; _ }) -> ()
  | Ok _ -> Alcotest.fail "accepted wrong rank"
  | Error e ->
    Alcotest.failf "wrong error: %s"
      (Format.asprintf "%a" Entity.pp_restore_error e));
  (match Entity.restore ~expect_n:5 ~config ~actions blob with
  | Error (Entity.Mismatch { field = "cluster size"; _ }) -> ()
  | Ok _ -> Alcotest.fail "accepted wrong view size"
  | Error e ->
    Alcotest.failf "wrong error: %s"
      (Format.asprintf "%a" Entity.pp_restore_error e));
  (match Entity.restore ~config ~actions "not a checkpoint" with
  | Error Entity.Bad_magic -> ()
  | _ -> Alcotest.fail "accepted garbage magic");
  let truncated = String.sub blob 0 (String.length blob / 2) in
  (match Entity.restore ~config ~actions truncated with
  | Error (Entity.Truncated _ | Entity.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "accepted truncated blob"
  | Error e ->
    Alcotest.failf "wrong error: %s"
      (Format.asprintf "%a" Entity.pp_restore_error e))

let test_bootstrap_checkpoint_validates () =
  let config = Config.default in
  let bad f = Alcotest.match_raises "rejected"
      (function Invalid_argument _ -> true | _ -> false) f in
  bad (fun () ->
      ignore (Entity.bootstrap_checkpoint ~config ~id:3 ~n:3 ~req:[| 1; 1; 1 |] ~headers:[]));
  bad (fun () ->
      ignore (Entity.bootstrap_checkpoint ~config ~id:0 ~n:3 ~req:[| 1; 0; 1 |] ~headers:[]));
  bad (fun () ->
      (* header seq must be below the carried REQ for its source *)
      ignore
        (Entity.bootstrap_checkpoint ~config ~id:0 ~n:3 ~req:[| 2; 2; 2 |]
           ~headers:[ (1, 2, [| 1; 1; 1 |]) ]))

(* ------------------------------------------------------------------ *)
(* The epoch cut: Group.bootstrap, the one translation every host uses  *)

let entries_t = Alcotest.(list (triple int int (array int)))

let restore_exn ~config ~id ~n blob =
  match
    Entity.restore ~expect_id:id ~expect_n:n ~config ~actions:null_actions blob
  with
  | Ok e -> e
  | Error err ->
    Alcotest.failf "restore refused: %s"
      (Format.asprintf "%a" Entity.pp_restore_error err)

let test_cut_translation () =
  let base = { Config.default with Config.cid = 7 } in
  let closing = View.initial [| 0; 2; 4 |] in
  (* The closing epoch's accepted headers at rank 0, past the reconciled
     cut [3; 3; 2]: sub-cut entries of every source, plus (0,3) and (2,2) —
     sequenced empties sent while quiescing, at or above the cut. *)
  let basis =
    restore_exn ~config:base ~id:0 ~n:3
      (Entity.bootstrap_checkpoint ~config:base ~id:0 ~n:3 ~req:[| 4; 3; 3 |]
         ~headers:
           [
             (0, 1, [| 1; 1; 1 |]);
             (0, 2, [| 2; 2; 1 |]);
             (0, 3, [| 3; 2; 2 |]);
             (1, 1, [| 2; 1; 1 |]);
             (1, 2, [| 2; 2; 1 |]);
             (2, 1, [| 2; 2; 1 |]);
             (2, 2, [| 2; 2; 2 |]);
           ])
  in
  let req = [| 3; 3; 2 |] in
  let open_next change ~rank =
    let next = Result.get_ok (View.apply closing change) in
    let config = Group.epoch_config base ~epoch:1 in
    let e =
      restore_exn ~config ~id:rank ~n:(View.size next)
        (Group.bootstrap base ~closing ~next ~req ~rank basis)
    in
    check int_t "epoch" 1 (Entity.epoch e);
    check int_t "epoch cid" (Group.epoch_cid ~cid:7 ~epoch:1)
      (Entity.config e).Config.cid;
    e
  in
  (* Node 2 (rank 1) leaves: its column and its entries go, rank 2 becomes
     rank 1, and only the survivors' sub-cut entries cross. *)
  let e = open_next (Memberwire.Leave 2) ~rank:0 in
  check (Alcotest.array int_t) "leave: req carried" [| 3; 2 |] (Entity.req e);
  check entries_t "leave: sub-cut survivor entries, re-homed"
    [ (0, 1, [| 1; 1 |]); (0, 2, [| 2; 1 |]); (1, 1, [| 2; 1 |]) ]
    (Entity.header_entries e);
  (* Node 3 joins at rank 2, bootstrapped from its sponsor's table: every
     source survives, the joiner's REQ column and ACK components start at 1. *)
  let j = open_next (Memberwire.Join 3) ~rank:2 in
  check (Alcotest.array int_t) "join: joiner REQ column is 1" [| 3; 3; 1; 2 |]
    (Entity.req j);
  check int_t "join: joiner starts at seq 1" 1 (Entity.seq_next j);
  check entries_t "join: sub-cut entries, ACK vectors remapped"
    [
      (0, 1, [| 1; 1; 1; 1 |]);
      (0, 2, [| 2; 2; 1; 1 |]);
      (1, 1, [| 2; 1; 1; 1 |]);
      (1, 2, [| 2; 2; 1; 1 |]);
      (3, 1, [| 2; 2; 1; 1 |]);
    ]
    (Entity.header_entries j)

let test_reconciled () =
  let config = Config.default in
  let at req =
    restore_exn ~config ~id:0 ~n:2
      (Entity.bootstrap_checkpoint ~config ~id:0 ~n:2 ~req ~headers:[])
  in
  check bool_t "equal REQ, drained" true
    (Group.reconciled [| at [| 2; 3 |]; at [| 2; 3 |] |]);
  check bool_t "REQ vectors differ" false
    (Group.reconciled [| at [| 2; 3 |]; at [| 2; 2 |] |]);
  let busy = at [| 2; 3 |] in
  (* Nobody confirms, so the flow window fills and the last request queues. *)
  for _ = 0 to config.Config.window do
    ignore (Entity.submit busy "m")
  done;
  check bool_t "backlog outstanding" true (Entity.backlog busy > 0);
  check bool_t "not drained" false
    (Group.reconciled [| busy; at [| 2; 3 |] |])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "member"
    [
      ( "view",
        [
          Alcotest.test_case "basics" `Quick test_view_basics;
          Alcotest.test_case "validate" `Quick test_view_validate;
          Alcotest.test_case "apply" `Quick test_view_apply;
          Alcotest.test_case "rank_map" `Quick test_rank_map;
        ] );
      ( "cut",
        [
          Alcotest.test_case "leave and join translation" `Quick
            test_cut_translation;
          Alcotest.test_case "reconciled precondition" `Quick test_reconciled;
        ] );
      ( "suspicion",
        [
          Alcotest.test_case "idle is not death" `Quick
            test_suspicion_idle_is_not_death;
          Alcotest.test_case "departure latches" `Quick
            test_suspicion_departure_latches;
          Alcotest.test_case "alive resets silence" `Quick
            test_suspicion_alive_resets_silence;
          Alcotest.test_case "stall vs departure" `Quick
            test_suspicion_stall_vs_departure;
          Alcotest.test_case "departure boundary is exact" `Quick
            test_suspicion_departure_boundary_exact;
        ] );
      ( "group",
        [
          Alcotest.test_case "epoch_cid injective" `Quick
            test_epoch_cid_injective;
          Alcotest.test_case "static smoke" `Quick test_group_static_smoke;
          Alcotest.test_case "join mid-run" `Quick test_group_join_midrun;
          Alcotest.test_case "voluntary leave" `Quick test_group_leave;
          Alcotest.test_case "eviction under loss" `Quick
            test_group_eviction_under_loss;
          Alcotest.test_case "churn soak" `Slow test_group_churn_soak;
          Alcotest.test_case "submit fenced during barrier" `Quick
            test_group_submit_fenced_during_barrier;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "bootstrap restores" `Quick
            test_bootstrap_checkpoint_restores;
          Alcotest.test_case "restore rejects" `Quick test_restore_rejects;
          Alcotest.test_case "bootstrap validates" `Quick
            test_bootstrap_checkpoint_validates;
        ] );
      ("differential", Qutil.qsuite ~long:true [ test_differential_churn ]);
    ]
