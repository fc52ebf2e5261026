module Simtime = Repro_sim.Simtime
module Engine = Repro_sim.Engine
module Topology = Repro_sim.Topology
module Network = Repro_sim.Network
module Trace = Repro_sim.Trace

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* --- Simtime --- *)

let test_simtime_conversions () =
  check int_t "ms" 2000 (Simtime.of_ms 2);
  check int_t "us" 7 (Simtime.of_us 7);
  check int_t "ms_f" 1500 (Simtime.of_ms_f 1.5);
  check (Alcotest.float 1e-9) "to_ms" 1.5 (Simtime.to_ms 1500)

let test_simtime_pp () =
  check Alcotest.string "pp" "12.345ms" (Simtime.to_string 12345)

(* --- Engine --- *)

let test_engine_runs_in_time_order () =
  let e = Engine.create () in
  let order = ref [] in
  Engine.schedule e ~at:30 (fun () -> order := 3 :: !order);
  Engine.schedule e ~at:10 (fun () -> order := 1 :: !order);
  Engine.schedule e ~at:20 (fun () -> order := 2 :: !order);
  Engine.run e;
  check (Alcotest.list int_t) "order" [ 1; 2; 3 ] (List.rev !order)

let test_engine_fifo_same_instant () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~at:10 (fun () -> order := i :: !order)
  done;
  Engine.run e;
  check (Alcotest.list int_t) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_now_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule e ~at:5 (fun () -> seen := Engine.now e :: !seen);
  Engine.schedule e ~at:9 (fun () -> seen := Engine.now e :: !seen);
  Engine.run e;
  check (Alcotest.list int_t) "clock" [ 5; 9 ] (List.rev !seen)

let test_engine_schedule_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:10 (fun () ->
      Alcotest.check_raises "past"
        (Invalid_argument "Engine.schedule: time is in the past") (fun () ->
          Engine.schedule e ~at:5 (fun () -> ())));
  Engine.run e

let test_engine_cascading () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule e ~at:1 (fun () ->
      incr hits;
      Engine.schedule_after e ~delay:4 (fun () ->
          incr hits;
          check int_t "time" 5 (Engine.now e)));
  Engine.run e;
  check int_t "both ran" 2 !hits

let test_engine_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule e ~at:5 (fun () -> incr hits);
  Engine.schedule e ~at:15 (fun () -> incr hits);
  Engine.run e ~until:10;
  check int_t "only first" 1 !hits;
  check int_t "pending remains" 1 (Engine.pending e);
  Engine.run e;
  check int_t "resumes" 2 !hits

let test_engine_max_events () =
  let e = Engine.create () in
  let rec loop () = Engine.schedule_after e ~delay:1 loop in
  loop ();
  Engine.run e ~max_events:100;
  check int_t "stopped" 100 (Engine.processed e)

let test_engine_every () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.every e ~period:10 ~until:35 (fun () -> incr hits);
  Engine.run e;
  check int_t "3 ticks (10,20,30)" 3 !hits

let test_engine_every_start () =
  let e = Engine.create () in
  let times = ref [] in
  Engine.every e ~period:10 ~start:5 ~until:26 (fun () ->
      times := Engine.now e :: !times);
  Engine.run e;
  check (Alcotest.list int_t) "start offset" [ 5; 15; 25 ] (List.rev !times)

let test_engine_step () =
  let e = Engine.create () in
  check bool_t "empty step" false (Engine.step e);
  Engine.schedule e ~at:1 (fun () -> ());
  check bool_t "one step" true (Engine.step e);
  check bool_t "drained" false (Engine.step e)

(* --- Topology --- *)

let test_topology_uniform () =
  let t = Topology.uniform ~n:4 ~delay:100 in
  check int_t "n" 4 (Topology.n t);
  check int_t "pair" 100 (Topology.delay t ~src:0 ~dst:3);
  check int_t "loopback" 0 (Topology.delay t ~src:2 ~dst:2);
  check int_t "R" 100 (Topology.max_delay t)

let test_topology_line () =
  let t = Topology.line ~n:4 ~hop:10 in
  check int_t "adjacent" 10 (Topology.delay t ~src:0 ~dst:1);
  check int_t "far" 30 (Topology.delay t ~src:0 ~dst:3);
  check int_t "R" 30 (Topology.max_delay t)

let test_topology_of_matrix () =
  let t = Topology.of_matrix [| [| 0; 5 |]; [| 7; 0 |] |] in
  check int_t "asymmetric" 5 (Topology.delay t ~src:0 ~dst:1);
  check int_t "other way" 7 (Topology.delay t ~src:1 ~dst:0)

let test_topology_of_matrix_validates () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Topology.of_matrix: not square") (fun () ->
      ignore (Topology.of_matrix [| [| 0 |]; [| 1; 2 |] |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Topology.of_matrix: negative delay") (fun () ->
      ignore (Topology.of_matrix [| [| 0; -1 |]; [| 1; 0 |] |]))

let test_topology_random_symmetric () =
  let rng = Repro_util.Prng.create ~seed:4 in
  let t = Topology.random ~n:5 ~rng ~lo:10 ~hi:20 in
  for i = 0 to 4 do
    for j = 0 to 4 do
      let d = Topology.delay t ~src:i ~dst:j in
      if i = j then check int_t "loopback" 0 d
      else begin
        if d < 10 || d > 20 then Alcotest.fail "delay out of range";
        check int_t "symmetric" d (Topology.delay t ~src:j ~dst:i)
      end
    done
  done

(* --- Network --- *)

let make_net ?(n = 3) ?(capacity = 16) ?(service = 10) ?(loss = 0.) ?(delay = 100) () =
  let engine = Engine.create () in
  let topology = Topology.uniform ~n ~delay in
  let config =
    {
      (Network.default_config topology) with
      Network.inbox_capacity = capacity;
      service_time = (fun _ -> service);
      loss_prob = loss;
    }
  in
  (engine, Network.create engine config)

let test_network_broadcast_reaches_all () =
  let engine, net = make_net () in
  let got = Array.make 3 [] in
  for id = 0 to 2 do
    Network.attach net ~id ~handler:(fun ~src m -> got.(id) <- (src, m) :: got.(id))
  done;
  ignore (Network.broadcast net ~src:1 "hello");
  Engine.run engine;
  for id = 0 to 2 do
    check (Alcotest.list (Alcotest.pair int_t Alcotest.string))
      (Printf.sprintf "entity %d" id)
      [ (1, "hello") ]
      got.(id)
  done

let test_network_loopback_immediate () =
  let engine, net = make_net ~delay:500 () in
  let t_loop = ref (-1) and t_far = ref (-1) in
  Network.attach net ~id:0 ~handler:(fun ~src:_ _ -> t_loop := Engine.now engine);
  Network.attach net ~id:1 ~handler:(fun ~src:_ _ -> t_far := Engine.now engine);
  ignore (Network.broadcast net ~src:0 "m");
  Engine.run engine;
  check int_t "loopback at t=0" 0 !t_loop;
  (* Far copy: 500 propagation + 10 service. *)
  check int_t "far delayed" 510 !t_far

let test_network_per_channel_fifo () =
  let engine, net = make_net ~service:1 () in
  let got = ref [] in
  Network.attach net ~id:1 ~handler:(fun ~src:_ m -> got := m :: !got);
  for i = 1 to 10 do
    ignore (Network.broadcast net ~src:0 (string_of_int i))
  done;
  Engine.run engine;
  check
    (Alcotest.list Alcotest.string)
    "fifo order"
    (List.init 10 (fun i -> string_of_int (i + 1)))
    (List.rev !got)

let test_network_overrun_drops () =
  (* Slow receiver (service 1000) with a 2-slot inbox, hit by 10 messages in
     a burst: most are lost to overrun. *)
  let engine, net = make_net ~capacity:2 ~service:1000 () in
  let got = ref 0 in
  Network.attach net ~id:1 ~handler:(fun ~src:_ _ -> incr got);
  Network.attach net ~id:2 ~handler:(fun ~src:_ _ -> ());
  for _ = 1 to 10 do
    ignore (Network.broadcast net ~src:0 "m")
  done;
  Engine.run engine;
  check bool_t "some delivered" true (!got >= 2);
  check bool_t "some dropped" true (!got < 10);
  let overruns =
    Trace.count (Network.trace net) ~f:(function
      | Trace.Dropped { reason = Trace.Overrun; _ } -> true
      | _ -> false)
  in
  check bool_t "overruns recorded" true (overruns > 0);
  check int_t "losses counter" (Network.losses net) overruns

let test_network_injected_loss () =
  let engine, net = make_net ~loss:1.0 () in
  let got = ref 0 in
  for id = 0 to 2 do
    Network.attach net ~id ~handler:(fun ~src:_ _ -> incr got)
  done;
  ignore (Network.broadcast net ~src:0 "m");
  Engine.run engine;
  (* Only the lossless loopback arrives. *)
  check int_t "only loopback" 1 !got

let test_network_fault_hook () =
  let engine, net = make_net () in
  let got = Array.make 3 0 in
  for id = 0 to 2 do
    Network.attach net ~id ~handler:(fun ~src:_ _ -> got.(id) <- got.(id) + 1)
  done;
  let hooked = ref [] in
  Network.set_fault_hook net (fun ~dst ~src m ->
      hooked := (src, dst) :: !hooked;
      match dst with 2 -> [] | 1 -> [ m; m ] | _ -> [ m ]);
  ignore (Network.broadcast net ~src:0 "m");
  Engine.run engine;
  check int_t "e0 loopback delivered" 1 got.(0);
  check bool_t "loopback bypasses the hook" false (List.mem (0, 0) !hooked);
  check int_t "e1 got the copy twice" 2 got.(1);
  check int_t "e2 dropped" 0 got.(2);
  check int_t "drop counted in losses" 1 (Network.losses net);
  check int_t "drop traced as Faulted" 1
    (Trace.count (Network.trace net) ~f:(function
      | Trace.Dropped { dst = 2; reason = Trace.Faulted; _ } -> true
      | _ -> false));
  Network.clear_fault_hook net;
  ignore (Network.broadcast net ~src:0 "m2");
  Engine.run engine;
  check int_t "e1 once after clear" 3 got.(1);
  check int_t "e2 gets after clear" 1 got.(2);
  check int_t "no new losses" 1 (Network.losses net)

let test_network_unicast () =
  let engine, net = make_net () in
  let got = Array.make 3 0 in
  for id = 0 to 2 do
    Network.attach net ~id ~handler:(fun ~src:_ _ -> got.(id) <- got.(id) + 1)
  done;
  ignore (Network.unicast net ~src:0 ~dst:2 "m");
  Engine.run engine;
  check (Alcotest.list int_t) "only dst" [ 0; 0; 1 ] (Array.to_list got)

let test_network_available_buffer () =
  let engine, net = make_net ~capacity:4 ~service:1000 () in
  Network.attach net ~id:1 ~handler:(fun ~src:_ _ -> ());
  Network.attach net ~id:2 ~handler:(fun ~src:_ _ -> ());
  check int_t "initially free" 4 (Network.available_buffer net 1);
  ignore (Network.broadcast net ~src:0 "a");
  ignore (Network.broadcast net ~src:0 "b");
  Engine.run engine ~until:200;
  (* Both arrived at t=110; one is in service (popped at completion), so the
     inbox still holds both until the first service completes at t=1110. *)
  check bool_t "buffer consumed" true (Network.available_buffer net 1 < 4)

let test_network_transmissions_count () =
  let engine, net = make_net () in
  for id = 0 to 2 do
    Network.attach net ~id ~handler:(fun ~src:_ _ -> ())
  done;
  ignore (Network.broadcast net ~src:0 "m");
  ignore (Network.unicast net ~src:0 ~dst:1 "u");
  Engine.run engine;
  check int_t "copies" 4 (Network.transmissions net)

let test_network_service_serializes () =
  (* Two messages arriving together at a service-100 endpoint are handled
     100 apart. *)
  let engine, net = make_net ~service:100 () in
  let times = ref [] in
  Network.attach net ~id:1 ~handler:(fun ~src:_ _ -> times := Engine.now engine :: !times);
  ignore (Network.broadcast net ~src:0 "a");
  ignore (Network.broadcast net ~src:0 "b");
  Engine.run engine;
  match List.rev !times with
  | [ t1; t2 ] ->
    check int_t "first at 200" 200 t1;
    check int_t "second at 300" 300 t2
  | _ -> Alcotest.fail "expected 2 deliveries"

let test_network_transmit_time () =
  (* Serialization delay adds to propagation for every copy. *)
  let engine = Engine.create () in
  let topology = Topology.uniform ~n:2 ~delay:100 in
  let config =
    {
      (Network.default_config topology) with
      Network.service_time = (fun _ -> 0);
      transmit_time = (fun msg -> String.length msg);
    }
  in
  let net = Network.create engine config in
  let at = ref (-1) in
  Network.attach net ~id:1 ~handler:(fun ~src:_ _ -> at := Engine.now engine);
  Network.attach net ~id:0 ~handler:(fun ~src:_ _ -> ());
  ignore (Network.broadcast net ~src:0 "12345");
  Engine.run engine;
  check int_t "prop 100 + 5 bytes" 105 !at

let test_network_double_attach_rejected () =
  let _, net = make_net () in
  Network.attach net ~id:0 ~handler:(fun ~src:_ _ -> ());
  Alcotest.check_raises "double attach"
    (Invalid_argument "Network.attach: handler already set") (fun () ->
      Network.attach net ~id:0 ~handler:(fun ~src:_ _ -> ()))

(* --- Trace --- *)

let test_trace_records_in_order () =
  let t = Trace.create () in
  Trace.record t (Trace.Sent { time = 1; src = 0; uid = 0 });
  Trace.record t (Trace.Arrived { time = 2; dst = 1; uid = 0 });
  check int_t "length" 2 (Trace.length t);
  match Trace.events t with
  | [ Trace.Sent _; Trace.Arrived _ ] -> ()
  | _ -> Alcotest.fail "order"

let test_trace_deliveries () =
  let t = Trace.create () in
  Trace.record t (Trace.Delivered { time = 5; entity = 1; tag = 42 });
  Trace.record t (Trace.Delivered { time = 6; entity = 0; tag = 43 });
  Trace.record t (Trace.Delivered { time = 7; entity = 1; tag = 44 });
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "entity 1" [ (5, 42); (7, 44) ]
    (Trace.deliveries t ~entity:1)

let test_trace_drops () =
  let t = Trace.create () in
  Trace.record t (Trace.Dropped { time = 1; dst = 0; uid = 9; reason = Trace.Overrun });
  Trace.record t (Trace.Dropped { time = 2; dst = 0; uid = 10; reason = Trace.Injected });
  check int_t "two drops" 2 (List.length (Trace.drops t))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_trace_pp () =
  let s =
    Format.asprintf "%a" Trace.pp_event
      (Trace.Dropped { time = 1500; dst = 2; uid = 7; reason = Trace.Overrun })
  in
  check bool_t "mentions overrun" true (contains ~needle:"overrun" s);
  check bool_t "mentions time" true (contains ~needle:"1.500ms" s)

let () =
  Alcotest.run "sim"
    [
      ( "simtime",
        [
          Alcotest.test_case "conversions" `Quick test_simtime_conversions;
          Alcotest.test_case "pp" `Quick test_simtime_pp;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_runs_in_time_order;
          Alcotest.test_case "fifo same instant" `Quick test_engine_fifo_same_instant;
          Alcotest.test_case "now advances" `Quick test_engine_now_advances;
          Alcotest.test_case "past rejected" `Quick test_engine_schedule_past_rejected;
          Alcotest.test_case "cascading" `Quick test_engine_cascading;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "every" `Quick test_engine_every;
          Alcotest.test_case "every start" `Quick test_engine_every_start;
          Alcotest.test_case "step" `Quick test_engine_step;
        ] );
      ( "topology",
        [
          Alcotest.test_case "uniform" `Quick test_topology_uniform;
          Alcotest.test_case "line" `Quick test_topology_line;
          Alcotest.test_case "of_matrix" `Quick test_topology_of_matrix;
          Alcotest.test_case "of_matrix validates" `Quick
            test_topology_of_matrix_validates;
          Alcotest.test_case "random symmetric" `Quick test_topology_random_symmetric;
        ] );
      ( "network",
        [
          Alcotest.test_case "broadcast reaches all" `Quick
            test_network_broadcast_reaches_all;
          Alcotest.test_case "loopback immediate" `Quick test_network_loopback_immediate;
          Alcotest.test_case "per-channel fifo" `Quick test_network_per_channel_fifo;
          Alcotest.test_case "overrun drops" `Quick test_network_overrun_drops;
          Alcotest.test_case "injected loss" `Quick test_network_injected_loss;
          Alcotest.test_case "fault hook" `Quick test_network_fault_hook;
          Alcotest.test_case "unicast" `Quick test_network_unicast;
          Alcotest.test_case "available buffer" `Quick test_network_available_buffer;
          Alcotest.test_case "transmissions count" `Quick
            test_network_transmissions_count;
          Alcotest.test_case "service serializes" `Quick test_network_service_serializes;
          Alcotest.test_case "transmit time" `Quick test_network_transmit_time;
          Alcotest.test_case "double attach" `Quick test_network_double_attach_rejected;
        ] );
      ( "trace",
        [
          Alcotest.test_case "order" `Quick test_trace_records_in_order;
          Alcotest.test_case "deliveries" `Quick test_trace_deliveries;
          Alcotest.test_case "drops" `Quick test_trace_drops;
          Alcotest.test_case "pp" `Quick test_trace_pp;
        ] );
    ]
