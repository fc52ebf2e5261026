module Lamport = Repro_clock.Lamport
module VC = Repro_clock.Vector_clock
module MC = Repro_clock.Matrix_clock
module Causality = Repro_clock.Causality

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* --- Lamport --- *)

let test_lamport_tick () =
  let c = Lamport.create () in
  check int_t "start" 0 (Lamport.now c);
  check int_t "tick" 1 (Lamport.tick c);
  check int_t "tick again" 2 (Lamport.tick c)

let test_lamport_observe () =
  let c = Lamport.create () in
  ignore (Lamport.tick c);
  check int_t "observe ahead" 11 (Lamport.observe c 10);
  check int_t "observe behind" 12 (Lamport.observe c 3)

let test_lamport_send_receive_order () =
  (* Receiving a timestamp always lands strictly after it. *)
  let a = Lamport.create () and b = Lamport.create () in
  let ts = Lamport.tick a in
  let rcv = Lamport.observe b ts in
  check bool_t "receive after send" true (rcv > ts)

(* --- Vector_clock --- *)

let vc a = VC.of_array a

let test_vc_zero () =
  let v = VC.zero ~n:3 in
  check int_t "size" 3 (VC.size v);
  check int_t "component" 0 (VC.get v 1)

let test_vc_of_array_validates () =
  Alcotest.check_raises "empty" (Invalid_argument "Vector_clock.of_array: empty")
    (fun () -> ignore (VC.of_array [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Vector_clock.of_array: negative") (fun () ->
      ignore (VC.of_array [| 1; -1 |]))

let test_vc_of_array_copies () =
  let arr = [| 1; 2 |] in
  let v = VC.of_array arr in
  arr.(0) <- 99;
  check int_t "copied in" 1 (VC.get v 0);
  let out = VC.to_array v in
  out.(1) <- 99;
  check int_t "copied out" 2 (VC.get v 1)

let test_vc_incr () =
  let v = vc [| 0; 0 |] in
  let w = VC.incr v 1 in
  check int_t "incremented" 1 (VC.get w 1);
  check int_t "original intact" 0 (VC.get v 1)

let test_vc_merge () =
  let m = VC.merge (vc [| 1; 5; 0 |]) (vc [| 2; 3; 4 |]) in
  check bool_t "pointwise max" true (VC.equal m (vc [| 2; 5; 4 |]))

let test_vc_orders () =
  check bool_t "before" true
    (VC.compare_partial (vc [| 1; 0 |]) (vc [| 1; 1 |]) = VC.Before);
  check bool_t "after" true
    (VC.compare_partial (vc [| 2; 1 |]) (vc [| 1; 1 |]) = VC.After);
  check bool_t "equal" true
    (VC.compare_partial (vc [| 1; 1 |]) (vc [| 1; 1 |]) = VC.Equal);
  check bool_t "concurrent" true
    (VC.compare_partial (vc [| 1; 0 |]) (vc [| 0; 1 |]) = VC.Concurrent)

let test_vc_mismatch () =
  Alcotest.check_raises "merge mismatch"
    (Invalid_argument "Vector_clock.merge: size mismatch") (fun () ->
      ignore (VC.merge (vc [| 1 |]) (vc [| 1; 2 |])))

let test_vc_causally_ready () =
  (* Receiver local = [1;0;0]; message from 1 with vt [1;1;0] is ready. *)
  check bool_t "ready" true
    (VC.causally_ready ~sender:1 ~msg:(vc [| 1; 1; 0 |]) ~local:(vc [| 1; 0; 0 |]));
  (* Missing a message from sender (vt jumps to 2). *)
  check bool_t "gap from sender" false
    (VC.causally_ready ~sender:1 ~msg:(vc [| 1; 2; 0 |]) ~local:(vc [| 1; 0; 0 |]));
  (* Depends on an unseen message from entity 0. *)
  check bool_t "missing dependency" false
    (VC.causally_ready ~sender:1 ~msg:(vc [| 2; 1; 0 |]) ~local:(vc [| 1; 0; 0 |]))

let arb_vc n =
  QCheck.make
    ~print:(fun a -> VC.to_string (VC.of_array a))
    QCheck.Gen.(array_size (return n) (int_bound 5))

let prop_merge_upper_bound =
  QCheck.Test.make ~name:"merge is least upper bound" ~count:200
    (QCheck.pair (arb_vc 4) (arb_vc 4))
    (fun (a, b) ->
      let va = VC.of_array a and vb = VC.of_array b in
      let m = VC.merge va vb in
      VC.leq va m && VC.leq vb m
      && Array.for_all2 (fun x y -> max x y >= min x y) a b
      && VC.leq m (VC.merge m m))

let prop_partial_order_antisym =
  QCheck.Test.make ~name:"compare_partial is consistent with leq" ~count:200
    (QCheck.pair (arb_vc 3) (arb_vc 3))
    (fun (a, b) ->
      let va = VC.of_array a and vb = VC.of_array b in
      match VC.compare_partial va vb with
      | VC.Before -> VC.leq va vb && not (VC.leq vb va)
      | VC.After -> VC.leq vb va && not (VC.leq va vb)
      | VC.Equal -> VC.equal va vb
      | VC.Concurrent -> (not (VC.leq va vb)) && not (VC.leq vb va))

(* --- Matrix_clock --- *)

let test_mc_init () =
  let m = MC.create ~n:3 ~init:1 in
  check int_t "size" 3 (MC.size m);
  check int_t "cell" 1 (MC.get m ~row:2 ~col:1);
  check int_t "col_min" 1 (MC.col_min m 0)

let test_mc_set_row_monotone () =
  let m = MC.create ~n:3 ~init:1 in
  MC.set_row m ~row:0 [| 5; 2; 3 |];
  MC.set_row m ~row:0 [| 4; 9; 1 |];
  check int_t "kept higher" 5 (MC.get m ~row:0 ~col:0);
  check int_t "raised" 9 (MC.get m ~row:0 ~col:1);
  check int_t "not lowered" 3 (MC.get m ~row:0 ~col:2)

let test_mc_col_min () =
  let m = MC.create ~n:3 ~init:1 in
  MC.set_row m ~row:0 [| 4; 2; 2 |];
  MC.set_row m ~row:1 [| 4; 2; 2 |];
  MC.set_row m ~row:2 [| 5; 3; 2 |];
  check int_t "minAL_0" 4 (MC.col_min m 0);
  check int_t "minAL_1" 2 (MC.col_min m 1);
  check int_t "minAL_2" 2 (MC.col_min m 2);
  check bool_t "all mins" true (MC.col_min_all m = [| 4; 2; 2 |])

let test_mc_raise_to () =
  let m = MC.create ~n:2 ~init:0 in
  MC.raise_to m ~row:0 ~col:0 5;
  MC.raise_to m ~row:0 ~col:0 3;
  check int_t "monotone" 5 (MC.get m ~row:0 ~col:0)

let test_mc_copy_independent () =
  let m = MC.create ~n:2 ~init:0 in
  let c = MC.copy m in
  MC.set m ~row:0 ~col:0 9;
  check int_t "copy unaffected" 0 (MC.get c ~row:0 ~col:0)

let test_mc_set_row_mismatch () =
  let m = MC.create ~n:2 ~init:0 in
  Alcotest.check_raises "length"
    (Invalid_argument "Matrix_clock.set_row: length mismatch") (fun () ->
      MC.set_row m ~row:0 [| 1 |])

(* --- Matrix_clock remap (view-change resizes) --- *)

let mc_of_cells n cells =
  let m = MC.create ~n ~init:0 in
  List.iteri (fun idx v -> MC.set m ~row:(idx / n) ~col:(idx mod n) v) cells;
  m

let arb_cells n =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(list_size (return (n * n)) (int_bound 50))

let test_mc_remap_identity () =
  let m = mc_of_cells 3 [ 4; 2; 3; 0; 0; 0; 9; 1; 7 ] in
  let r = MC.remap m ~n:3 ~init:99 ~map:(fun i -> Some i) in
  check int_t "size" 3 (MC.size r);
  for row = 0 to 2 do
    for col = 0 to 2 do
      check int_t
        (Printf.sprintf "identity cell %d,%d" row col)
        (MC.get m ~row ~col) (MC.get r ~row ~col)
    done
  done

let test_mc_remap_shrink_then_regrow () =
  (* Old index 1 departs; the compacted 2x2 view later regrows to 3 with a
     fresh joiner at the last rank. Survivors keep their mutual knowledge,
     every joiner-facing cell starts at init. *)
  let m = mc_of_cells 3 [ 5; 6; 7; 1; 2; 3; 8; 9; 4 ] in
  let shrunk =
    MC.remap m ~n:2 ~init:0 ~map:(function
      | 0 -> Some 0
      | 1 -> Some 2
      | _ -> None)
  in
  check int_t "survivor 0,0" 5 (MC.get shrunk ~row:0 ~col:0);
  check int_t "survivor 0,1" 7 (MC.get shrunk ~row:0 ~col:1);
  check int_t "survivor 1,0" 8 (MC.get shrunk ~row:1 ~col:0);
  check int_t "survivor 1,1" 4 (MC.get shrunk ~row:1 ~col:1);
  let regrown =
    MC.remap shrunk ~n:3 ~init:0 ~map:(fun i -> if i < 2 then Some i else None)
  in
  check int_t "kept across regrow" 5 (MC.get regrown ~row:0 ~col:0);
  check int_t "kept across regrow 2" 4 (MC.get regrown ~row:1 ~col:1);
  for i = 0 to 2 do
    check int_t "joiner row is init" 0 (MC.get regrown ~row:2 ~col:i);
    check int_t "joiner col is init" 0 (MC.get regrown ~row:i ~col:2)
  done;
  (* The col_min cache is rebuilt consistently by the resize. *)
  check bool_t "col_min over joiner col" true (MC.col_min regrown 2 = 0);
  check bool_t "col_min survivor col" true
    (MC.col_min regrown 0 = min 5 (min 8 0))

let naive_col_min m col =
  let rec go row acc =
    if row = MC.size m then acc else go (row + 1) (min acc (MC.get m ~row ~col))
  in
  go 0 max_int

let prop_mc_remap_permutation =
  QCheck.Test.make ~name:"remap by rank permutation relabels cells" ~count:200
    (arb_cells 4) (fun cells ->
      let n = 4 in
      let m = mc_of_cells n cells in
      let perm i = (i + 1) mod n in
      (* new rank -> old rank *)
      let r = MC.remap m ~n ~init:0 ~map:(fun i -> Some (perm i)) in
      let ok = ref true in
      for row = 0 to n - 1 do
        for col = 0 to n - 1 do
          if MC.get r ~row ~col <> MC.get m ~row:(perm row) ~col:(perm col)
          then ok := false
        done
      done;
      for col = 0 to n - 1 do
        if MC.col_min r col <> naive_col_min r col then ok := false
      done;
      !ok)

let prop_mc_shrink_regrow =
  QCheck.Test.make
    ~name:"shrink-then-regrow keeps survivors, resets joiner, identity is \
           a no-op"
    ~count:200
    (QCheck.pair (arb_cells 4) QCheck.(1 -- 3))
    (fun (cells, leaver) ->
      let n = 4 in
      let m = mc_of_cells n cells in
      let survivors =
        Array.of_list (List.filter (fun i -> i <> leaver) (List.init n Fun.id))
      in
      let shrunk =
        MC.remap m ~n:(n - 1) ~init:0 ~map:(fun i -> Some survivors.(i))
      in
      let regrown =
        MC.remap shrunk ~n ~init:0 ~map:(fun i ->
            if i < n - 1 then Some i else None)
      in
      let ok = ref true in
      for row = 0 to n - 2 do
        for col = 0 to n - 2 do
          if
            MC.get regrown ~row ~col
            <> MC.get m ~row:survivors.(row) ~col:survivors.(col)
          then ok := false
        done
      done;
      for i = 0 to n - 1 do
        if MC.get regrown ~row:(n - 1) ~col:i <> 0 then ok := false;
        if MC.get regrown ~row:i ~col:(n - 1) <> 0 then ok := false
      done;
      (* Identity resize must be an exact copy whatever init is passed. *)
      let id = MC.remap m ~n ~init:9 ~map:(fun i -> Some i) in
      for row = 0 to n - 1 do
        for col = 0 to n - 1 do
          if MC.get id ~row ~col <> MC.get m ~row ~col then ok := false
        done
      done;
      !ok)

let prop_mc_set_row_monotone =
  QCheck.Test.make
    ~name:"set_row is raise-only and col_min stays exact after remap"
    ~count:200
    (QCheck.pair (arb_cells 4) (arb_cells 4))
    (fun (init_cells, row_cells) ->
      let n = 4 in
      (* Route the initial state through a remap so the monotonicity and
         cached-col_min checks run against a resized matrix. *)
      let m =
        MC.remap (mc_of_cells n init_cells) ~n ~init:0 ~map:(fun i -> Some i)
      in
      let before = Array.init n (fun r -> MC.row m r) in
      let rows = Array.of_list row_cells in
      for r = 0 to n - 1 do
        MC.set_row m ~row:r (Array.init n (fun c -> rows.((r * n) + c)))
      done;
      let ok = ref true in
      for r = 0 to n - 1 do
        for c = 0 to n - 1 do
          if MC.get m ~row:r ~col:c <> max before.(r).(c) rows.((r * n) + c)
          then ok := false
        done
      done;
      for c = 0 to n - 1 do
        if MC.col_min m c <> naive_col_min m c then ok := false
      done;
      !ok)

(* --- Causality --- *)

let test_causality_chain () =
  (* E0 sends m0; E1 receives it then sends m1: m0 ≺ m1. *)
  let c = Causality.create ~n:3 in
  Causality.send c ~entity:0 ~msg:100;
  Causality.receive c ~entity:1 ~msg:100;
  Causality.send c ~entity:1 ~msg:200;
  check bool_t "m0 precedes m1" true (Causality.msg_precedes c 100 200);
  check bool_t "not reverse" false (Causality.msg_precedes c 200 100)

let test_causality_concurrent () =
  let c = Causality.create ~n:2 in
  Causality.send c ~entity:0 ~msg:1;
  Causality.send c ~entity:1 ~msg:2;
  check bool_t "concurrent" true (Causality.msg_concurrent c 1 2)

let test_causality_same_entity () =
  let c = Causality.create ~n:2 in
  Causality.send c ~entity:0 ~msg:1;
  Causality.send c ~entity:0 ~msg:2;
  check bool_t "program order" true (Causality.msg_precedes c 1 2)

let test_causality_transitive () =
  (* m1 at E0 -> E1 sends m2 -> E2 sends m3: m1 ≺ m3 without direct link. *)
  let c = Causality.create ~n:3 in
  Causality.send c ~entity:0 ~msg:1;
  Causality.receive c ~entity:1 ~msg:1;
  Causality.send c ~entity:1 ~msg:2;
  Causality.receive c ~entity:2 ~msg:2;
  Causality.send c ~entity:2 ~msg:3;
  check bool_t "transitive" true (Causality.msg_precedes c 1 3)

let test_causality_figure2 () =
  (* The paper's Figure 2: E_g sends g then p; E_h receives p then sends q.
     Expect g ≺ p ≺ q. (Using entity ids g=0, h=1, k=2.) *)
  let c = Causality.create ~n:3 in
  Causality.send c ~entity:0 ~msg:10;
  (* g *)
  Causality.send c ~entity:0 ~msg:11;
  (* p *)
  Causality.receive c ~entity:1 ~msg:11;
  Causality.send c ~entity:1 ~msg:12;
  (* q *)
  check bool_t "g ≺ p" true (Causality.msg_precedes c 10 11);
  check bool_t "p ≺ q" true (Causality.msg_precedes c 11 12);
  check bool_t "g ≺ q" true (Causality.msg_precedes c 10 12)

let test_causality_double_send_rejected () =
  let c = Causality.create ~n:2 in
  Causality.send c ~entity:0 ~msg:1;
  Alcotest.check_raises "double send"
    (Invalid_argument "Causality.send: message already sent") (fun () ->
      Causality.send c ~entity:0 ~msg:1)

let test_causality_unknown_receive () =
  let c = Causality.create ~n:2 in
  check bool_t "raises Not_found" true
    (try
       Causality.receive c ~entity:0 ~msg:99;
       false
     with Not_found -> true)

let test_causality_send_stamp () =
  let c = Causality.create ~n:2 in
  Causality.send c ~entity:0 ~msg:1;
  check bool_t "stamp exists" true (Causality.send_stamp c 1 <> None);
  check bool_t "unknown stamp" true (Causality.send_stamp c 2 = None)

(* [set_row] against its definition, one [raise_to] per cell: the two
   matrices take the same random rows, single-cell raises and [col_min]
   queries (which clean the cache between updates), and must agree on
   every cell and every cached minimum throughout. *)
type mc_op = Set_row of int * int array | Raise of int * int * int | Query of int

let prop_mc_set_row_is_raise_to =
  let n = 4 in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          ( 2,
            map2
              (fun r vals -> Set_row (r, vals))
              (int_bound (n - 1))
              (array_size (return n) (int_bound 50)) );
          ( 2,
            map3
              (fun r c v -> Raise (r, c, v))
              (int_bound (n - 1)) (int_bound (n - 1)) (int_bound 50) );
          (3, map (fun c -> Query c) (int_bound (n - 1)));
        ])
  in
  let print_op = function
    | Set_row (r, vals) ->
      Printf.sprintf "set_row %d [%s]" r
        (String.concat ";" (Array.to_list (Array.map string_of_int vals)))
    | Raise (r, c, v) -> Printf.sprintf "raise %d %d %d" r c v
    | Query c -> Printf.sprintf "col_min %d" c
  in
  QCheck.Test.make ~name:"set_row equals cell-wise raise_to" ~count:500
    (QCheck.pair (arb_cells n)
       (QCheck.make ~print:QCheck.Print.(list print_op)
          QCheck.Gen.(list_size (int_range 1 40) gen_op)))
    (fun (cells, ops) ->
      let a = mc_of_cells n cells and b = mc_of_cells n cells in
      let mins_agree c =
        let m = MC.col_min a c in
        m = MC.col_min b c && m = naive_col_min a c
      in
      List.for_all
        (function
          | Set_row (row, vals) ->
            MC.set_row a ~row vals;
            Array.iteri (fun col v -> MC.raise_to b ~row ~col v) vals;
            true
          | Raise (row, col, v) ->
            MC.raise_to a ~row ~col v;
            MC.raise_to b ~row ~col v;
            true
          | Query c -> mins_agree c)
        ops
      && List.for_all
           (fun row ->
             List.for_all
               (fun col -> MC.get a ~row ~col = MC.get b ~row ~col)
               (List.init n Fun.id))
           (List.init n Fun.id)
      && List.for_all mins_agree (List.init n Fun.id))

let qsuite tests = Qutil.qsuite ~long:false tests

let () =
  Alcotest.run "clock"
    [
      ( "lamport",
        [
          Alcotest.test_case "tick" `Quick test_lamport_tick;
          Alcotest.test_case "observe" `Quick test_lamport_observe;
          Alcotest.test_case "send/receive order" `Quick
            test_lamport_send_receive_order;
        ] );
      ( "vector_clock",
        [
          Alcotest.test_case "zero" `Quick test_vc_zero;
          Alcotest.test_case "of_array validates" `Quick test_vc_of_array_validates;
          Alcotest.test_case "of_array copies" `Quick test_vc_of_array_copies;
          Alcotest.test_case "incr" `Quick test_vc_incr;
          Alcotest.test_case "merge" `Quick test_vc_merge;
          Alcotest.test_case "orders" `Quick test_vc_orders;
          Alcotest.test_case "size mismatch" `Quick test_vc_mismatch;
          Alcotest.test_case "causally_ready" `Quick test_vc_causally_ready;
        ]
        @ qsuite [ prop_merge_upper_bound; prop_partial_order_antisym ] );
      ( "matrix_clock",
        [
          Alcotest.test_case "init" `Quick test_mc_init;
          Alcotest.test_case "set_row monotone" `Quick test_mc_set_row_monotone;
          Alcotest.test_case "col_min" `Quick test_mc_col_min;
          Alcotest.test_case "raise_to" `Quick test_mc_raise_to;
          Alcotest.test_case "copy" `Quick test_mc_copy_independent;
          Alcotest.test_case "set_row mismatch" `Quick test_mc_set_row_mismatch;
          Alcotest.test_case "remap identity" `Quick test_mc_remap_identity;
          Alcotest.test_case "remap shrink-then-regrow" `Quick
            test_mc_remap_shrink_then_regrow;
        ]
        @ qsuite
            [
              prop_mc_remap_permutation;
              prop_mc_shrink_regrow;
              prop_mc_set_row_monotone;
              prop_mc_set_row_is_raise_to;
            ] );
      ( "causality",
        [
          Alcotest.test_case "chain" `Quick test_causality_chain;
          Alcotest.test_case "concurrent" `Quick test_causality_concurrent;
          Alcotest.test_case "same entity" `Quick test_causality_same_entity;
          Alcotest.test_case "transitive" `Quick test_causality_transitive;
          Alcotest.test_case "figure 2" `Quick test_causality_figure2;
          Alcotest.test_case "double send" `Quick test_causality_double_send_rejected;
          Alcotest.test_case "unknown receive" `Quick test_causality_unknown_receive;
          Alcotest.test_case "send stamp" `Quick test_causality_send_stamp;
        ] );
    ]
