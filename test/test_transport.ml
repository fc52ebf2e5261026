(* The CO protocol over real UDP sockets (lib/transport). These tests run in
   real time; timeouts are generous enough for loaded CI machines but the
   happy paths complete in tens of milliseconds. *)

module Udp = Repro_transport.Udp_cluster
module Config = Repro_core.Config
module Entity = Repro_core.Entity
module Pdu = Repro_pdu.Pdu
module Simtime = Repro_sim.Simtime
module Trace_ctx = Repro_obs.Trace_ctx
module Monoclock = Repro_util.Monoclock
module Oracle = Repro_harness.Oracle
module Wirestats = Repro_obs.Wirestats

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let fast_config =
  {
    Config.default with
    Config.defer = Config.Deferred { timeout = Simtime.of_ms 5 };
    ret_retry_timeout = Simtime.of_ms 15;
  }

let payloads t ~entity =
  List.map (fun (d : Pdu.data) -> d.payload) (Udp.deliveries t ~entity)

let test_clean_broadcast () =
  let t = Udp.create ~config:fast_config ~n:3 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  Udp.submit t ~src:0 "hello";
  Udp.submit t ~src:1 "world";
  check bool_t "quiescent" true (Udp.run_until_quiescent t ~max_seconds:5.);
  for e = 0 to 2 do
    check int_t (Printf.sprintf "entity %d delivered 2" e) 2
      (List.length (Udp.deliveries t ~entity:e))
  done;
  check bool_t "datagrams flowed" true (Udp.datagrams_sent t > 0);
  check int_t "no decode errors" 0 (Udp.decode_errors t)

let test_causal_order_over_udp () =
  let t = Udp.create ~config:fast_config ~n:3 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  Udp.submit t ~src:0 "question";
  (* Let the question propagate before the answer is issued: the reply is
     then causally dependent and must never be delivered first. *)
  Udp.run_for t ~seconds:0.05;
  Udp.submit t ~src:1 "answer";
  check bool_t "quiescent" true (Udp.run_until_quiescent t ~max_seconds:5.);
  for e = 0 to 2 do
    check
      (Alcotest.list Alcotest.string)
      (Printf.sprintf "order at %d" e)
      [ "question"; "answer" ] (payloads t ~entity:e)
  done

let test_recovery_under_loss () =
  let t = Udp.create ~config:fast_config ~loss:0.2 ~seed:7 ~n:3 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  for i = 1 to 10 do
    Udp.submit t ~src:(i mod 3) (Printf.sprintf "m%d" i);
    Udp.run_for t ~seconds:0.004
  done;
  check bool_t "quiescent despite loss" true
    (Udp.run_until_quiescent t ~max_seconds:20.);
  for e = 0 to 2 do
    check int_t
      (Printf.sprintf "entity %d complete" e)
      10
      (List.length (Udp.deliveries t ~entity:e))
  done;
  check bool_t "losses actually happened" true (Udp.datagrams_dropped t > 0)

let test_larger_cluster () =
  let t = Udp.create ~config:fast_config ~n:5 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  for src = 0 to 4 do
    Udp.submit t ~src (Printf.sprintf "from-%d" src)
  done;
  check bool_t "quiescent" true (Udp.run_until_quiescent t ~max_seconds:10.);
  for e = 0 to 4 do
    check int_t "all five" 5 (List.length (Udp.deliveries t ~entity:e))
  done

let test_validation () =
  Alcotest.check_raises "n" (Invalid_argument
    "Udp_cluster.create: n must be >= 2") (fun () ->
      ignore (Udp.create ~n:1 ()));
  Alcotest.check_raises "loss" (Invalid_argument "Udp_cluster.create: loss")
    (fun () -> ignore (Udp.create ~loss:2.0 ~n:2 ()))

let test_garbage_datagrams_ignored () =
  (* Hostile/foreign datagrams must be counted and discarded, never crash
     the event loop or corrupt protocol state. *)
  let t = Udp.create ~config:fast_config ~n:2 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  let scratch = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close scratch) @@ fun () ->
  let target =
    Unix.ADDR_INET (Unix.inet_addr_loopback, Udp.port t 1)
  in
  let inject s =
    let b = Bytes.of_string s in
    ignore (Unix.sendto scratch b 0 (Bytes.length b) [] target)
  in
  inject "not a pdu at all";
  inject "\x09\x00\x00\x00\x00";
  (* truncated DT header *)
  inject "\x00\x00\x00";
  Udp.submit t ~src:0 "real";
  check bool_t "quiescent despite junk" true
    (Udp.run_until_quiescent t ~max_seconds:5.);
  check int_t "junk counted" 3 (Udp.decode_errors t);
  check int_t "real message still delivered" 1
    (List.length (Udp.deliveries t ~entity:1))

(* The chaos injector speaks the same hook contract as the simulator: wire
   it into the UDP transport and corrupt datagrams in flight. The codec
   checksum must reject every mangled datagram (counted as decode errors)
   and the RET machinery must still converge once the fault heals. *)
let test_fault_injected_corruption () =
  let t = Udp.create ~config:fast_config ~seed:11 ~n:3 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  let inj = Repro_fault.Injector.create ~n:3 ~seed:11 () in
  Udp.set_fault_hook t (Repro_fault.Injector.on_datagram inj);
  Repro_fault.Injector.apply inj (Repro_fault.Plan.Corrupt 0.4);
  for k = 1 to 3 do
    Udp.submit t ~src:0 (Printf.sprintf "a%d" k);
    Udp.submit t ~src:1 (Printf.sprintf "b%d" k)
  done;
  Udp.run_for t ~seconds:0.3;
  Repro_fault.Injector.apply inj (Repro_fault.Plan.Corrupt 0.);
  check bool_t "quiescent after heal" true
    (Udp.run_until_quiescent t ~max_seconds:20.);
  for e = 0 to 2 do
    check int_t (Printf.sprintf "entity %d delivered all" e) 6
      (List.length (Udp.deliveries t ~entity:e))
  done;
  let s = Repro_fault.Injector.stats inj in
  check bool_t "corruption injected" true (s.corrupt_dropped > 0);
  check bool_t "checksum rejected them" true (Udp.decode_errors t > 0)

(* A full membership cycle over real sockets: broadcast in epoch 0, admit
   a joiner (bootstrapped from the sponsor's checkpoint), broadcast across
   the wider view — the joiner included as a source — then remove a
   member and converge again in the shrunken view. *)
let test_view_change_join_then_remove () =
  let reg = Repro_obs.Registry.create () in
  let t = Udp.create ~registry:reg ~config:fast_config ~n:2 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  Udp.submit t ~src:0 "e0-a";
  Udp.submit t ~src:1 "e0-b";
  check bool_t "epoch 0 quiescent" true
    (Udp.run_until_quiescent t ~max_seconds:5.);
  check bool_t "reconciled before cut" true (Udp.reconciled t);
  (match Udp.commit_view_change t Udp.Add_node with
  | Ok () -> ()
  | Error e -> Alcotest.failf "join refused: %s" e);
  check int_t "epoch advanced" 1 (Udp.epoch t);
  check int_t "view grew" 3 (Udp.size t);
  Udp.submit t ~src:2 "e1-from-joiner";
  Udp.run_for t ~seconds:0.05;
  Udp.submit t ~src:0 "e1-reply";
  check bool_t "epoch 1 quiescent" true
    (Udp.run_until_quiescent t ~max_seconds:10.);
  (* The joiner must hold exactly the new-epoch traffic, in causal order;
     survivors appended it to their epoch-0 history. *)
  check
    (Alcotest.list Alcotest.string)
    "joiner delivered epoch 1"
    [ "e1-from-joiner"; "e1-reply" ]
    (payloads t ~entity:2);
  check
    (Alcotest.list Alcotest.string)
    "survivor history spans epochs"
    [ "e0-a"; "e0-b"; "e1-from-joiner"; "e1-reply" ]
    (payloads t ~entity:0);
  (match Udp.commit_view_change t (Udp.Remove_node 1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "removal refused: %s" e);
  check int_t "second epoch" 2 (Udp.epoch t);
  check int_t "view shrank" 2 (Udp.size t);
  (* Old rank 2 (the joiner) is rank 1 now and must still converge. *)
  Udp.submit t ~src:1 "e2-c";
  check bool_t "epoch 2 quiescent" true
    (Udp.run_until_quiescent t ~max_seconds:10.);
  check
    (Alcotest.list Alcotest.string)
    "post-removal delivery"
    [ "e1-from-joiner"; "e1-reply"; "e2-c" ]
    (payloads t ~entity:1);
  check int_t "two view changes" 2 (Udp.view_changes t);
  (* One series per committed epoch, registered where the commit happens;
     a registry sync adds no unlabelled twin. *)
  Udp.sync_registry t;
  check
    Alcotest.(list (pair (list (pair string string)) int))
    "co_view_changes_total series"
    [ ([ ("epoch", "1") ], 1); ([ ("epoch", "2") ], 1) ]
    (List.filter_map
       (fun (smp : Repro_obs.Registry.sample) ->
         match smp.value with
         | Repro_obs.Registry.Sample_counter v
           when smp.family = "co_view_changes_total" ->
           Some (smp.labels, v)
         | _ -> None)
       (Repro_obs.Registry.samples reg))

let test_view_change_requires_reconciliation () =
  let t = Udp.create ~config:fast_config ~n:2 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  Udp.submit t ~src:0 "in-flight";
  (* The submit's datagrams wait in member 0's egress queue for the next
     step, so the barrier precondition fails. *)
  (match Udp.commit_view_change t Udp.Add_node with
  | Ok () -> Alcotest.fail "cut committed without the barrier"
  | Error _ -> ());
  check int_t "no epoch advance" 0 (Udp.epoch t);
  check bool_t "quiescent" true (Udp.run_until_quiescent t ~max_seconds:5.);
  (match Udp.commit_view_change t Udp.Add_node with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-barrier join refused: %s" e);
  Alcotest.check_raises "shrink below 2"
    (Invalid_argument
       "Udp_cluster.commit_view_change: view would shrink below 2")
    (fun () ->
      let t2 = Udp.create ~config:fast_config ~n:2 () in
      Fun.protect
        ~finally:(fun () -> Udp.close t2)
        (fun () -> ignore (Udp.commit_view_change t2 (Udp.Remove_node 0))))

(* The recorder keys first-send stamps by (rank, seq). Removing rank 1
   remaps old rank 2 to rank 1, whose next sequence numbers old rank 1
   already used in the closed epoch: unless the cut drops those stamps,
   post-cut spans measure from a send half a second in the past. *)
let test_view_change_cuts_recorder () =
  let t =
    Udp.create ~config:{ fast_config with Config.tracing = true } ~n:3 ()
  in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  for k = 1 to 30 do
    Udp.submit t ~src:1 (Printf.sprintf "r1-%d" k)
  done;
  Udp.submit t ~src:2 "r2";
  check bool_t "epoch 0 quiescent" true
    (Udp.run_until_quiescent t ~max_seconds:10.);
  Udp.run_for t ~seconds:0.5;
  let r = Option.get (Udp.recorder t) in
  let before = List.length (Trace_ctx.spans r) in
  let t0 = Monoclock.now_us () in
  (match Udp.commit_view_change t (Udp.Remove_node 1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "removal refused: %s" e);
  for k = 1 to 5 do
    Udp.submit t ~src:1 (Printf.sprintf "post-%d" k)
  done;
  check bool_t "epoch 1 quiescent" true
    (Udp.run_until_quiescent t ~max_seconds:10.);
  let wall_us = Monoclock.now_us () - t0 in
  let post = List.filteri (fun i _ -> i >= before) (Trace_ctx.spans r) in
  check int_t "a span per post-cut delivery" 10 (List.length post);
  List.iter
    (fun (sp : Trace_ctx.span) ->
      if sp.t_deliver - sp.t_send > wall_us then
        Alcotest.failf
          "span (%d, %d) at %d: send->deliver %d us exceeds the post-cut \
           wall time %d us"
          sp.src sp.seq sp.entity (sp.t_deliver - sp.t_send) wall_us)
    post

(* Ingress is batched per step: everything a member's socket holds when
   [step] drains it reaches the entity as one [receive_batch], so the
   confirmation decision sees the whole burst. Timeouts are long enough
   that no timer fires; Paranoid runs the step checker after every
   protocol step, which makes each receive pass observable. *)
let test_one_batch_per_step () =
  let config =
    {
      Config.default with
      Config.defer = Config.Deferred { timeout = Simtime.of_ms 60_000 };
      ret_retry_timeout = Simtime.of_ms 60_000;
      ret_backoff_max = Simtime.of_ms 60_000;
      check_level = Config.Paranoid;
    }
  in
  let t = Udp.create ~config ~n:6 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  let e0 = Udp.entity t 0 in
  let accepted = ref 0 and counted = ref 0 and passes = ref 0 in
  Entity.add_observer e0 (function
    | Entity.Accepted d when d.src <> 0 -> incr accepted
    | _ -> ());
  (* A pass that accepted peer PDUs; member 0's own confirmation coming
     back on the loopback is not ingress. *)
  Entity.set_step_checker e0 (fun () ->
      if !accepted > !counted then begin
        incr passes;
        counted := !accepted
      end);
  (* [submit] only queues: the step's flush sends all five broadcasts,
     and loopback [sendto] has put each datagram on member 0's socket
     before the step selects. *)
  for src = 1 to 5 do
    Udp.submit t ~src (Printf.sprintf "from-%d" src)
  done;
  check int_t "nothing sent before the step" 0 (Udp.datagrams_sent t);
  check int_t "nothing received before the step" 0 !accepted;
  ignore (Udp.step t ~timeout_s:1.);
  check int_t "five broadcasts to five peers" (5 * 5) (Udp.datagrams_sent t);
  check int_t "one receive pass" 1 !passes;
  check int_t "all five PDUs accepted" 5 !accepted

(* Egress leaves once per step: what a drain queues stays queued until
   the next step's flush, so it is framed together with what the caller
   submits in between. With immediate confirmations, member 1 accepts
   member 0's PDU (queueing a sequenced empty for everyone) and then
   submits; the next step sends both in one v2 batch datagram. *)
let test_drain_output_rides_with_next_submit () =
  let config =
    {
      Config.default with
      Config.defer = Config.Immediate;
      ret_retry_timeout = Simtime.of_ms 60_000;
      ret_backoff_max = Simtime.of_ms 60_000;
    }
  in
  let t = Udp.create ~config ~n:3 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  let accepted = ref 0 in
  Entity.add_observer (Udp.entity t 1) (function
    | Entity.Accepted d when d.src = 0 -> incr accepted
    | _ -> ());
  Udp.submit t ~src:0 "question";
  ignore (Udp.step t ~timeout_s:1.);
  check int_t "member 1 accepted the question" 1 !accepted;
  let ws = Udp.wirestats t in
  let datagrams = Wirestats.datagrams ws and pdus = Wirestats.pdus ws in
  Udp.submit t ~src:1 "answer";
  ignore (Udp.step t ~timeout_s:1.);
  let datagrams = Wirestats.datagrams ws - datagrams
  and pdus = Wirestats.pdus ws - pdus in
  if pdus <= datagrams then
    Alcotest.failf "no batch of two: %d PDUs in %d datagrams" pdus datagrams

(* Every member delivers every message exactly once, FIFO per source, and
   in causal order read from each PDU's own ACK vector: [p]'s sender had
   accepted [p.ack.(l)] PDUs of source [l], so each data PDU from [l] with
   a lower SEQ must be delivered before [p]. *)
let check_causal_deliveries t ~n ~per =
  let tag (d : Pdu.data) = (d.src lsl 20) lor d.seq in
  let key_of tag = (tag lsr 20, tag land 0xfffff) in
  let acks = Hashtbl.create 256 in
  let deliveries =
    Array.init n (fun q ->
        List.map
          (fun (d : Pdu.data) ->
            Hashtbl.replace acks (tag d) d.ack;
            tag d)
          (Udp.deliveries t ~entity:q))
  in
  let expected_tags = List.of_seq (Hashtbl.to_seq_keys acks) in
  check int_t "distinct messages" (n * per) (List.length expected_tags);
  let precedes a b =
    let la, sa = key_of a and lb, _ = key_of b in
    la <> lb && sa < (Hashtbl.find acks b).(la)
  in
  let report =
    Oracle.check_deliveries ~expected_tags ~precedes ~key_of ~deliveries
  in
  if not (Oracle.ok report) then Alcotest.failf "%a" Oracle.pp_report report

(* The benchmark's scale in a closed loop: 16 members, each keeping 2 of
   its own messages outstanding until it has delivered them itself. *)
let test_closed_loop_n16 () =
  let n = 16 and per = 8 and outstanding = 2 in
  let t = Udp.create ~n () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  let sent = Array.make n 0 and freed = Array.make n 0 in
  for i = 0 to n - 1 do
    Entity.add_observer (Udp.entity t i) (function
      | Entity.Acknowledged d when d.src = i && d.payload <> "" ->
        freed.(i) <- freed.(i) + 1
      | _ -> ())
  done;
  let refill i =
    while sent.(i) < per && sent.(i) - freed.(i) < outstanding do
      Udp.submit t ~src:i (Printf.sprintf "%d-%d" i sent.(i));
      sent.(i) <- sent.(i) + 1
    done
  in
  let deadline = Monoclock.now_s () +. 30. in
  let all_sent () = Array.for_all (fun k -> k = per) sent in
  while (not (all_sent ())) && Monoclock.now_s () < deadline do
    for i = 0 to n - 1 do
      refill i
    done;
    ignore (Udp.step t ~timeout_s:0.005)
  done;
  check bool_t "every message submitted" true (all_sent ());
  check bool_t "quiescent" true (Udp.run_until_quiescent t ~max_seconds:30.);
  check_causal_deliveries t ~n ~per;
  check int_t "no decode errors" 0 (Udp.decode_errors t)

let test_close_is_idempotent () =
  let t = Udp.create ~n:2 () in
  Udp.close t;
  Udp.close t

let () =
  Alcotest.run "transport"
    [
      ( "udp",
        [
          Alcotest.test_case "clean broadcast" `Quick test_clean_broadcast;
          Alcotest.test_case "causal order" `Quick test_causal_order_over_udp;
          Alcotest.test_case "recovery under loss" `Slow test_recovery_under_loss;
          Alcotest.test_case "larger cluster" `Quick test_larger_cluster;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "garbage datagrams" `Quick test_garbage_datagrams_ignored;
          Alcotest.test_case "injected corruption" `Slow
            test_fault_injected_corruption;
          Alcotest.test_case "view change join then remove" `Quick
            test_view_change_join_then_remove;
          Alcotest.test_case "view change needs the barrier" `Quick
            test_view_change_requires_reconciliation;
          Alcotest.test_case "view change cuts the recorder" `Quick
            test_view_change_cuts_recorder;
          Alcotest.test_case "one receive batch per step" `Quick
            test_one_batch_per_step;
          Alcotest.test_case "drain output rides with the next submit" `Quick
            test_drain_output_rides_with_next_submit;
          Alcotest.test_case "closed loop n=16" `Quick test_closed_loop_n16;
          Alcotest.test_case "close idempotent" `Quick test_close_is_idempotent;
        ] );
    ]
