module Cluster = Repro_core.Cluster
module Causality = Repro_clock.Causality

type violation = {
  entity : int;
  earlier : int;
  later : int;
  reason : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "entity %d: tag %d before tag %d (%s)" v.entity v.earlier
    v.later v.reason

let duplicate_tags ~deliveries =
  let violations = ref [] in
  Array.iteri
    (fun entity tags ->
      let seen = Hashtbl.create 64 in
      List.iter
        (fun tag ->
          if Hashtbl.mem seen tag then
            violations :=
              { entity; earlier = tag; later = tag; reason = "duplicate delivery" }
              :: !violations
          else Hashtbl.add seen tag ())
        tags)
    deliveries;
  List.rev !violations

let missing_tags ~expected ~deliveries =
  let missing = ref [] in
  Array.iteri
    (fun entity tags ->
      let seen = Hashtbl.create 64 in
      List.iter (fun tag -> Hashtbl.replace seen tag ()) tags;
      List.iter
        (fun tag -> if not (Hashtbl.mem seen tag) then missing := (entity, tag) :: !missing)
        expected)
    deliveries;
  List.rev !missing

let causality_violations ~precedes ~deliveries =
  let violations = ref [] in
  Array.iteri
    (fun entity tags ->
      let arr = Array.of_list tags in
      let m = Array.length arr in
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          if precedes arr.(j) arr.(i) then
            violations :=
              {
                entity;
                earlier = arr.(i);
                later = arr.(j);
                reason = "later message causally precedes earlier one";
              }
              :: !violations
        done
      done)
    deliveries;
  List.rev !violations

let fifo_violations ~key_of ~deliveries =
  let violations = ref [] in
  Array.iteri
    (fun entity tags ->
      let last_seq = Hashtbl.create 16 in
      List.iter
        (fun tag ->
          let src, seq = key_of tag in
          (match Hashtbl.find_opt last_seq src with
          | Some (prev_seq, prev_tag) when seq <= prev_seq ->
            violations :=
              {
                entity;
                earlier = prev_tag;
                later = tag;
                reason = "per-source sequence order inverted";
              }
              :: !violations
          | Some _ | None -> ());
          Hashtbl.replace last_seq src (seq, tag))
        tags)
    deliveries;
  List.rev !violations

let total_order_agreement ~deliveries =
  let prefix_agree a b =
    let rec walk = function
      | [], _ | _, [] -> true
      | x :: xs, y :: ys -> x = y && walk (xs, ys)
    in
    walk (a, b)
  in
  let n = Array.length deliveries in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (prefix_agree deliveries.(i) deliveries.(j)) then ok := false
    done
  done;
  !ok

type report = {
  expected : int;
  delivered_per_entity : int array;
  missing : (int * int) list;
  dups : violation list;
  fifo : violation list;
  causal : violation list;
}

let check_deliveries ~expected_tags ~precedes ~key_of ~deliveries =
  {
    expected = List.length expected_tags;
    delivered_per_entity = Array.map List.length deliveries;
    missing = missing_tags ~expected:expected_tags ~deliveries;
    dups = duplicate_tags ~deliveries;
    fifo = fifo_violations ~key_of ~deliveries;
    causal = causality_violations ~precedes ~deliveries;
  }

let check_recording recording ~entities ~expected_tags =
  let deliveries =
    Array.of_list
      (List.map
         (fun slot ->
           List.map
             (fun (_, tag, _) -> tag)
             (Cluster.recorded_deliveries recording ~slot))
         entities)
  in
  let causality = Cluster.happened_before recording in
  let precedes p q =
    try Causality.msg_precedes causality p q with Not_found -> false
  in
  check_deliveries ~expected_tags ~precedes ~key_of:Cluster.key_of_tag
    ~deliveries

let ok r =
  r.missing = [] && r.dups = [] && r.fifo = [] && r.causal = []
  && Array.for_all (fun d -> d = r.expected) r.delivered_per_entity

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>expected=%d delivered=[%s]@,missing=%d dups=%d fifo=%d causal=%d@]"
    r.expected
    (String.concat ";"
       (Array.to_list (Array.map string_of_int r.delivered_per_entity)))
    (List.length r.missing) (List.length r.dups) (List.length r.fifo)
    (List.length r.causal)
