(* Differential property suite for the receipt-log hot path.

   The paper-literal list structures (Precedence.cpi_insert_*_reference,
   naive column-minimum scans, plain FIFO lists) are the oracle; the indexed
   implementations (Cpi_log with its O(1) tail fast path, Matrix_clock's
   cached column minima, Ring_buffer RRL/ARL) must be observationally
   identical on random schedules with loss and reorder: same log contents
   after every operation, same delivery order, same minAL/minPAL, same
   is_causality_preserved verdicts.

   Schedules come from the same mini-entity trace generator test_precedence
   uses: a small cluster maintaining REQ vectors correctly, so every PDU
   carries a realistic ACK vector (in particular the self-ack convention
   ack.(src) = seq, which Cpi_log's fast path assumes — Entity.transmit
   guarantees it in production). *)

module Pdu = Repro_pdu.Pdu
module Precedence = Repro_core.Precedence
module Cpi_log = Repro_core.Cpi_log
module Logs = Repro_core.Logs
module Entity = Repro_core.Entity
module Config = Repro_core.Config
module Matrix_clock = Repro_clock.Matrix_clock
module Ring = Repro_util.Ring_buffer
module Prng = Repro_util.Prng

let d ~src ~seq ~ack ?(payload = "x") () =
  match Pdu.data ~cid:0 ~src ~seq ~ack ~buf:8 ~payload with
  | Pdu.Data d -> d
  | Pdu.Ret _ | Pdu.Ctl _ -> assert false

(* --- Mini-entity trace generator (as in test_precedence) ---

   Entities [senders..n-1] only receive: an observer there sees a trace it
   took no part in. *)

type mini = { req : int array; mutable next : int }

let gen_trace ?senders n steps seed =
  let senders = Option.value senders ~default:n in
  let rng = Prng.create ~seed in
  let minis = Array.init n (fun _ -> { req = Array.make n 1; next = 1 }) in
  let pdus = Hashtbl.create 64 in
  let causality = Repro_clock.Causality.create ~n in
  let tag (src, seq) = (src * 1000) + seq in
  let all = ref [] in
  for _ = 1 to steps do
    let actor = Prng.int rng n in
    let m = minis.(actor) in
    if actor < senders && Prng.bool rng then begin
      let ack = Array.copy m.req in
      ack.(actor) <- m.next;
      let p = d ~src:actor ~seq:m.next ~ack () in
      Hashtbl.replace pdus (actor, m.next) p;
      Repro_clock.Causality.send causality ~entity:actor ~msg:(tag (actor, m.next));
      all := p :: !all;
      m.next <- m.next + 1;
      m.req.(actor) <- m.next
    end
    else begin
      let src = Prng.int rng n in
      if src <> actor then begin
        let seq = m.req.(src) in
        if Hashtbl.mem pdus (src, seq) then begin
          m.req.(src) <- seq + 1;
          Repro_clock.Causality.receive causality ~entity:actor ~msg:(tag (src, seq))
        end
      end
    end
  done;
  (List.rev !all, causality, tag)

(* Loss + bounded reorder: drop each PDU with probability ~1/5, then let
   each survivor jump up to 3 positions ahead. *)
let lossy_reorder rng pdus =
  let kept = List.filter (fun _ -> Prng.int rng 5 > 0) pdus in
  let arr = Array.of_list kept in
  let len = Array.length arr in
  for i = 0 to len - 1 do
    let j = min (len - 1) (i + Prng.int rng 4) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let keys log = List.map Pdu.key log

let same_keys a b = keys a = keys b

(* Transitive closure of the one-hop ACK relation over a complete trace:
   reach (src, seq) is the vector of highest causally-preceding sequence
   numbers, exactly what Entity computes from stored headers in Transitive
   mode. Total here because the whole trace is known. *)
let reach_closure n pdus =
  let acks = Hashtbl.create 64 in
  List.iter
    (fun (p : Pdu.data) -> Hashtbl.replace acks (p.src, p.seq) p.ack)
    pdus;
  let memo = Hashtbl.create 64 in
  let rec reach src seq =
    match Hashtbl.find_opt memo (src, seq) with
    | Some r -> r
    | None ->
      let ack = Hashtbl.find acks (src, seq) in
      let r = Array.make n 0 in
      for m = 0 to n - 1 do
        let base = ack.(m) - 1 in
        if base > r.(m) then r.(m) <- base;
        if base >= 1 then begin
          let pr = reach m base in
          for l = 0 to n - 1 do
            if pr.(l) > r.(l) then r.(l) <- pr.(l)
          done
        end
      done;
      Hashtbl.add memo (src, seq) r;
      r
  in
  reach

(* --- Cpi_log vs the lenient list reference --- *)

(* Interleave inserts with head dequeues (one after each insert with
   probability 1/[drain_one_in]); after every operation the indexed log must
   hold exactly the reference list. The order relation goes only to the reference fold
   and only witnesses go to Cpi_log, so agreement shows that comparing
   stored witnesses is the relation. Returns the peak occupancy, or [None]
   on the first disagreement. *)
let cpi_differential ?precedes ~witness_of ~transitive ~n ~drain_one_in rng
    schedule =
  let ilog = Cpi_log.create ~n in
  let ref_log = ref [] in
  let ok = ref true in
  let peak = ref 0 in
  List.iter
    (fun p ->
      if !ok then begin
        ignore
          (Cpi_log.insert ~transitive ~witness:(witness_of p) ilog p : bool);
        ref_log := Precedence.cpi_insert_lenient_reference ?precedes !ref_log p;
        peak := max !peak (Cpi_log.length ilog);
        if not (same_keys (Cpi_log.to_list ilog) !ref_log) then ok := false;
        if Prng.int rng drain_one_in = 0 then begin
          let popped = Cpi_log.dequeue ilog in
          (match (!ref_log, popped) with
          | q :: rest, Some q' when Pdu.key q = Pdu.key q' -> ref_log := rest
          | [], None -> ()
          | _ -> ok := false);
          if not (same_keys (Cpi_log.to_list ilog) !ref_log) then ok := false
        end
      end)
    schedule;
  if !ok && Cpi_log.length ilog = List.length !ref_log then Some !peak else None

(* Short schedules drain after a third of the inserts. Long ones drain
   after a sixth, so the log must peak past 128 entries: four capacity
   doublings from 16, each reached with the ring wrapped (a dequeue since
   the last doubling put the head past slot 0). *)
let direct_differential ~steps ~drain_one_in ~min_peak seed =
  let pdus, _, _ = gen_trace 4 steps seed in
  let rng = Prng.create ~seed:(seed + 1) in
  let schedule = lossy_reorder rng pdus in
  match
    cpi_differential
      ~witness_of:(fun (p : Pdu.data) -> p.ack)
      ~transitive:false ~n:4 ~drain_one_in rng schedule
  with
  | Some peak -> peak >= min_peak
  | None -> false

(* Entity.causally_precedes, Transitive mode, and its witness. *)
let transitive_differential ~steps ~drain_one_in ~min_peak seed =
  let n = 4 in
  let pdus, _, _ = gen_trace n steps seed in
  let reach = reach_closure n pdus in
  let precedes (p : Pdu.data) (q : Pdu.data) =
    if p.src = q.src then p.seq < q.seq
    else (reach q.src q.seq).(p.src) >= p.seq
  in
  let witness_of (p : Pdu.data) = Array.map (fun x -> x + 1) (reach p.src p.seq) in
  let rng = Prng.create ~seed:(seed + 1) in
  let schedule = lossy_reorder rng pdus in
  match
    cpi_differential ~precedes ~witness_of ~transitive:true ~n ~drain_one_in
      rng schedule
  with
  | Some peak -> peak >= min_peak
  | None -> false

let prop_cpi_differential_direct =
  QCheck.Test.make
    ~name:"Cpi_log = lenient reference fold (Direct relation, loss+reorder)"
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (direct_differential ~steps:60 ~drain_one_in:3 ~min_peak:0)

let prop_cpi_differential_transitive =
  QCheck.Test.make
    ~name:
      "Cpi_log ~transitive:true ~witness = lenient reference fold (reach \
       closure relation)" ~count:1000
    QCheck.(int_bound 1_000_000)
    (transitive_differential ~steps:60 ~drain_one_in:3 ~min_peak:0)

let prop_cpi_differential_direct_long =
  QCheck.Test.make
    ~name:
      "Cpi_log = lenient reference fold past four capacity doublings \
       (Direct relation)" ~count:1000
    QCheck.(int_bound 1_000_000)
    (direct_differential ~steps:700 ~drain_one_in:6 ~min_peak:129)

let prop_cpi_differential_transitive_long =
  QCheck.Test.make
    ~name:
      "Cpi_log = lenient reference fold past four capacity doublings \
       (reach closure relation)" ~count:1000
    QCheck.(int_bound 1_000_000)
    (transitive_differential ~steps:700 ~drain_one_in:6 ~min_peak:129)

(* Deterministic ring wrap at both ends: reverse-order inserts each land at
   the head, walking it backwards through slot 0 and growing the ring while
   it is wrapped; in-order appends after a partial drain then wrap the
   tail. The reference fold sees the same operations. *)
let test_ring_wraps () =
  let n = 2 in
  let pdu seq = d ~src:0 ~seq ~ack:[| seq; 1 |] () in
  let log = Cpi_log.create ~n in
  let model = ref [] in
  let check what =
    Alcotest.(check (list (pair int int))) what (keys !model)
      (keys (Cpi_log.to_list log))
  in
  for seq = 40 downto 1 do
    let fast = Cpi_log.insert log (pdu seq) in
    model := Precedence.cpi_insert_lenient_reference !model (pdu seq);
    Alcotest.(check bool) "reverse insert is a slow-path head insert"
      (seq = 40) fast;
    check (Printf.sprintf "after inserting seq %d" seq)
  done;
  for _ = 1 to 30 do
    ignore (Cpi_log.dequeue log);
    model := List.tl !model
  done;
  for seq = 41 to 100 do
    Alcotest.(check bool) "in-order insert appends" true
      (Cpi_log.insert log (pdu seq));
    model := !model @ [ pdu seq ];
    check (Printf.sprintf "after appending seq %d" seq)
  done;
  Alcotest.(check int) "length" 70 (Cpi_log.length log)

(* Regression pinned by the differential suite: the raw ACK is not a valid
   fast-path witness for the transitive relation. e2 accepts p then sends r;
   e3 accepts r — but not p — then sends q, so p ≺ r ≺ q while
   q.ack.(p.src) <= p.seq. With q resident, a late p must go BEFORE q; only
   the reach-based witness blocks the tail fast path. *)
let test_transitive_witness_regression () =
  let n = 3 in
  let p = d ~src:0 ~seq:1 ~ack:[| 1; 1; 1 |] () in
  let r = d ~src:1 ~seq:1 ~ack:[| 2; 1; 1 |] () in
  let q = d ~src:2 ~seq:1 ~ack:[| 1; 2; 1 |] () in
  let reach = reach_closure n [ p; r; q ] in
  Alcotest.(check (array int))
    "reach closure sees p through r" [| 1; 1; 0 |] (reach 2 1);
  let witness (x : Pdu.data) = Array.map (fun v -> v + 1) (reach x.src x.seq) in
  let log = Cpi_log.create ~n in
  let fast_q = Cpi_log.insert ~transitive:true ~witness:(witness q) log q in
  Alcotest.(check bool) "q appends fast into an empty log" true fast_q;
  let fast_p = Cpi_log.insert ~transitive:true ~witness:(witness p) log p in
  Alcotest.(check bool) "p must not take the tail fast path" false fast_p;
  Alcotest.(check (list (pair int int)))
    "p lands before its transitive successor"
    [ Pdu.key p; Pdu.key q ]
    (keys (Cpi_log.to_list log))

let prop_cpi_fastpath_consistent =
  QCheck.Test.make
    ~name:"fast-path count + slow-path count = inserts, and tail appends \
           really were tail positions" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let pdus, _, _ = gen_trace 4 60 seed in
      let ilog = Cpi_log.create ~n:4 in
      let inserted = ref 0 in
      List.iter
        (fun p ->
          let before = Cpi_log.to_list ilog in
          let fast = Cpi_log.insert ~transitive:false ilog p in
          incr inserted;
          if fast then
            (* A fast-path insert must be exactly [before @ [p]]. *)
            assert (same_keys (Cpi_log.to_list ilog) (before @ [ p ])))
        pdus;
      Cpi_log.fastpath_count ilog + Cpi_log.slowpath_count ilog = !inserted)

(* --- Entity reach witnesses vs the closure ---

   An observer entity, silent in the trace, is fed a lossy reordered copy
   of it. Where the observer accepted [q] and all of [q]'s causal past, its
   CPI relation must be the closure; elsewhere (headers missing) it
   degrades to the one-hop Theorem 4.1 test. This pins the cheaper witness
   computation (same-source predecessor first, covered predecessors
   skipped) to the full merge [reach_closure] performs. *)
let prop_entity_reach_closure =
  QCheck.Test.make
    ~name:"Entity.causally_precedes (Transitive) = reach closure on lossy traces"
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let n = 4 in
      let observer = n - 1 in
      let pdus, _, _ = gen_trace ~senders:observer n 80 seed in
      let rng = Prng.create ~seed:(seed + 1) in
      let actions =
        {
          Entity.broadcast = ignore;
          unicast = (fun ~dst:_ _ -> ());
          deliver = ignore;
          now = (fun () -> 0);
          set_timer = (fun ~delay:_ _ -> ());
          available_buffer = (fun () -> 64);
        }
      in
      let config =
        {
          Config.default with
          Config.causality_mode = Config.Transitive;
          defer = Config.Never;
          anti_entropy = false;
        }
      in
      let e = Entity.create ~config ~id:observer ~n ~actions in
      List.iter (fun p -> Entity.receive e (Pdu.Data p)) (lossy_reorder rng pdus);
      let reach = reach_closure n pdus in
      let req = Entity.req e in
      let past_accepted (q : Pdu.data) =
        q.seq < req.(q.src)
        && Array.for_all2 (fun r rq -> r < rq) (reach q.src q.seq) req
      in
      List.for_all
        (fun (q : Pdu.data) ->
          List.for_all
            (fun (p : Pdu.data) ->
              let expected =
                if p.src = q.src then p.seq < q.seq
                else if past_accepted q then (reach q.src q.seq).(p.src) >= p.seq
                else Precedence.precedes p q
              in
              Entity.causally_precedes e p q = expected)
            pdus)
        pdus)

(* --- Full receipt-pipeline differential: delivery order, minAL/minPAL,
   causality verdicts --- *)

(* The oracle observer: list RRLs, reference-fold PRL, naive matrices with
   scan-recomputed column minima, per-PDU PAL updates. *)
type old_observer = {
  o_al : int array array;
  o_pal : int array array;
  mutable o_rrl : Pdu.data list array;
  mutable o_prl : Pdu.data list;
  mutable o_delivered : (int * int) list; (* reversed *)
}

let old_create n =
  {
    o_al = Array.make_matrix n n 1;
    o_pal = Array.make_matrix n n 1;
    o_rrl = Array.make n [];
    o_prl = [];
    o_delivered = [];
  }

let naive_set_row m row v =
  Array.iteri (fun k x -> if x > m.(row).(k) then m.(row).(k) <- x) v

let naive_col_min m k =
  Array.fold_left (fun acc row -> min acc row.(k)) max_int m

let old_receive t n (p : Pdu.data) =
  naive_set_row t.o_al p.src p.ack;
  t.o_rrl.(p.src) <- t.o_rrl.(p.src) @ [ p ];
  (* PACK: per-PDU PAL row updates, reference CPI. *)
  for j = 0 to n - 1 do
    let continue = ref true in
    while !continue do
      match t.o_rrl.(j) with
      | q :: rest when q.Pdu.seq < naive_col_min t.o_al j ->
        t.o_rrl.(j) <- rest;
        naive_set_row t.o_pal j q.Pdu.ack;
        t.o_prl <- Precedence.cpi_insert_lenient_reference t.o_prl q
      | _ -> continue := false
    done
  done;
  (* ACK: drain the PRL head under the minPAL gate. *)
  let continue = ref true in
  while !continue do
    match t.o_prl with
    | q :: rest when q.Pdu.seq < naive_col_min t.o_pal q.Pdu.src ->
      t.o_prl <- rest;
      t.o_delivered <- Pdu.key q :: t.o_delivered
    | _ -> continue := false
  done

(* The hot-path observer: Logs.Receipt (rings + Cpi_log), Matrix_clock with
   cached minima, batched PAL updates exactly as Entity.pack_scan batches
   them. *)
type new_observer = {
  n_al : Matrix_clock.t;
  n_pal : Matrix_clock.t;
  n_logs : Logs.Receipt.t;
  mutable n_delivered : (int * int) list; (* reversed *)
}

let new_create n =
  {
    n_al = Matrix_clock.create ~n ~init:1;
    n_pal = Matrix_clock.create ~n ~init:1;
    n_logs = Logs.Receipt.create ~n;
    n_delivered = [];
  }

let new_receive t n (p : Pdu.data) =
  Matrix_clock.set_row t.n_al ~row:p.src p.ack;
  Logs.Receipt.rrl_enqueue t.n_logs ~src:p.src p;
  for j = 0 to n - 1 do
    let bound = Matrix_clock.col_min t.n_al j in
    let last_ack = ref None in
    let continue = ref true in
    while !continue do
      match Logs.Receipt.rrl_top t.n_logs ~src:j with
      | Some q when q.Pdu.seq < bound ->
        ignore (Logs.Receipt.rrl_dequeue t.n_logs ~src:j);
        ignore (Logs.Receipt.prl_insert ~transitive:false t.n_logs q : bool);
        last_ack := Some q.Pdu.ack
      | Some _ | None -> continue := false
    done;
    match !last_ack with
    | Some ack -> Matrix_clock.set_row t.n_pal ~row:j ack
    | None -> ()
  done;
  let continue = ref true in
  while !continue do
    match Logs.Receipt.prl_top t.n_logs with
    | Some q when q.Pdu.seq < Matrix_clock.col_min t.n_pal q.Pdu.src ->
      ignore (Logs.Receipt.prl_dequeue t.n_logs);
      t.n_delivered <- Pdu.key q :: t.n_delivered
    | Some _ | None -> continue := false
  done

(* Per-source in-order receipt schedule with per-source tail loss and random
   interleaving across sources: what selective repeat hands the ladder. *)
let observer_schedule rng n pdus =
  let per_src = Array.make n [] in
  List.iter
    (fun (p : Pdu.data) -> per_src.(p.src) <- p :: per_src.(p.src))
    (List.rev pdus);
  (* per_src now oldest-first; cut a random tail (lost suffix) per source *)
  let per_src =
    Array.map
      (fun l ->
        let l = Array.of_list l in
        let keep = Prng.int rng (Array.length l + 1) in
        ref (Array.to_list (Array.sub l 0 keep)))
      per_src
  in
  let out = ref [] in
  let remaining () =
    Array.exists (fun l -> !l <> []) per_src
  in
  while remaining () do
    let j = Prng.int rng n in
    match !(per_src.(j)) with
    | [] -> ()
    | p :: rest ->
      per_src.(j) := rest;
      out := p :: !out
  done;
  List.rev !out

let prop_pipeline_differential =
  QCheck.Test.make
    ~name:
      "receipt pipeline: delivery order, minAL/minPAL and \
       is_causality_preserved identical to the list oracle" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let n = 4 in
      let pdus, _, _ = gen_trace n 80 seed in
      let rng = Prng.create ~seed:(seed + 1) in
      let schedule = observer_schedule rng n pdus in
      let old_t = old_create n in
      let new_t = new_create n in
      let ok = ref true in
      List.iter
        (fun p ->
          if !ok then begin
            old_receive old_t n p;
            new_receive new_t n p;
            for k = 0 to n - 1 do
              if naive_col_min old_t.o_al k <> Matrix_clock.col_min new_t.n_al k
              then ok := false;
              if
                naive_col_min old_t.o_pal k
                <> Matrix_clock.col_min new_t.n_pal k
              then ok := false
            done;
            if old_t.o_delivered <> new_t.n_delivered then ok := false;
            if
              not
                (same_keys old_t.o_prl (Logs.Receipt.prl_to_list new_t.n_logs))
            then ok := false
          end)
        schedule;
      !ok
      && Precedence.is_causality_preserved old_t.o_prl
         = Precedence.is_causality_preserved
             (Logs.Receipt.prl_to_list new_t.n_logs))

(* --- Matrix_clock cached column minima vs naive rescans --- *)

let prop_colmin_differential =
  QCheck.Test.make
    ~name:"Matrix_clock col_min (cached) = naive scan under random updates"
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = 2 + Prng.int rng 5 in
      let m = Matrix_clock.create ~n ~init:1 in
      let model = Array.make_matrix n n 1 in
      let ok = ref true in
      for _ = 1 to 60 do
        (match Prng.int rng 3 with
        | 0 ->
          let row = Prng.int rng n and col = Prng.int rng n in
          let v = Prng.int rng 20 in
          Matrix_clock.set m ~row ~col v;
          model.(row).(col) <- v
        | 1 ->
          let row = Prng.int rng n and col = Prng.int rng n in
          let v = Prng.int rng 20 in
          Matrix_clock.raise_to m ~row ~col v;
          model.(row).(col) <- max model.(row).(col) v
        | _ ->
          let row = Prng.int rng n in
          let v = Array.init n (fun _ -> Prng.int rng 20) in
          Matrix_clock.set_row m ~row v;
          naive_set_row model row v);
        for k = 0 to n - 1 do
          if Matrix_clock.col_min m k <> naive_col_min model k then ok := false
        done
      done;
      !ok)

(* --- Ring_buffer (the RRL/ARL representation) vs a list queue --- *)

let prop_ring_differential =
  QCheck.Test.make
    ~name:"Ring_buffer push_grow/pop = list FIFO across growth" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let ring = Ring.create ~capacity:2 in
      let model = ref [] in
      let ok = ref true in
      for i = 1 to 100 do
        if Prng.int rng 3 > 0 then begin
          Ring.push_grow ring i;
          model := !model @ [ i ]
        end
        else begin
          match (Ring.pop ring, !model) with
          | Some x, y :: rest when x = y -> model := rest
          | None, [] -> ()
          | _ -> ok := false
        end;
        if Ring.to_list ring <> !model then ok := false;
        if Ring.length ring <> List.length !model then ok := false
      done;
      !ok)

let qsuite tests = Qutil.qsuite ~long:false tests

let () =
  Alcotest.run "logs_prop"
    [
      ( "cpi differential",
        qsuite
          [
            prop_cpi_differential_direct;
            prop_cpi_differential_transitive;
            prop_cpi_differential_direct_long;
            prop_cpi_differential_transitive_long;
            prop_cpi_fastpath_consistent;
          ]
        @ [
            Alcotest.test_case "transitive fast path needs the reach witness"
              `Quick test_transitive_witness_regression;
            Alcotest.test_case "ring wraps at both ends and grows wrapped"
              `Quick test_ring_wraps;
          ] );
      ("pipeline differential", qsuite [ prop_pipeline_differential ]);
      ("entity reach", qsuite [ prop_entity_reach_closure ]);
      ("matrix clock", qsuite [ prop_colmin_differential ]);
      ("ring buffer", qsuite [ prop_ring_differential ]);
    ]
