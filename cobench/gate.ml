(* Per-run correctness gate, run outside the timed phase.

   [check ~sent deliveries]: [sent.(l)] is how many messages source [l]
   issued (payload indices 0 .. sent.(l)-1, see {!Common.make_payload});
   [deliveries.(q)] is member [q]'s application deliveries in order.

   Exactly-once and FIFO: at every member, source [l]'s payload indices
   arrive as exactly 0, 1, 2, ... Causal order: a delivered PDU [p]
   carries [p.ack.(l)], the number of [l]'s PDUs its sender had accepted
   when it sent [p]; every data PDU from [l] with SEQ below that must be
   delivered before [p]. Checking this at every delivery implies the full
   transitive order, so no pairwise scan over messages is needed. The
   first pass learns each message's SEQ (from any member that delivered
   it) and checks FIFO; the second checks the ACK condition against the
   first undelivered message of each source. Both are linear in the
   number of deliveries times n. *)

type result = {
  delivered : int;  (** Deliveries that passed FIFO/exactly-once. *)
  expected : int;  (** Members × messages. *)
  violations : string list;  (** At most a few, for the report. *)
  violation_count : int;
}

let check ~sent (deliveries : Repro_pdu.Pdu.data array array) =
  let n_src = Array.length sent in
  let seqs = Array.map (fun k -> Array.make k (-1)) sent in
  let violations = ref [] and count = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr count;
        if !count <= 5 then violations := s :: !violations)
      fmt
  in
  let delivered = ref 0 in
  Array.iteri
    (fun q ds ->
      let next = Array.make n_src 0 in
      Array.iter
        (fun (d : Repro_pdu.Pdu.data) ->
          let src = Common.payload_src d.payload
          and idx = Common.payload_idx d.payload in
          if src <> d.src || src >= n_src || idx < 0 || idx >= sent.(src) then
            fail "member %d: foreign delivery src=%d seq=%d" q d.src d.seq
          else if idx <> next.(src) then
            fail "member %d: src %d message %d delivered when %d was next" q
              src idx next.(src)
          else begin
            next.(src) <- idx + 1;
            incr delivered;
            let known = seqs.(src).(idx) in
            if known = -1 then seqs.(src).(idx) <- d.seq
            else if known <> d.seq then
              fail "member %d: src %d message %d has seq %d, elsewhere %d" q
                src idx d.seq known
          end)
        ds)
    deliveries;
  Array.iteri
    (fun q ds ->
      let next = Array.make n_src 0 in
      Array.iter
        (fun (d : Repro_pdu.Pdu.data) ->
          for l = 0 to min n_src (Array.length d.ack) - 1 do
            let k = next.(l) in
            if l <> d.src && k < sent.(l) then begin
              let s = seqs.(l).(k) in
              if s <> -1 && s < d.ack.(l) then
                fail "member %d: (%d,%d) delivered before its predecessor (%d,%d)"
                  q d.src d.seq l s
            end
          done;
          if d.src < n_src then next.(d.src) <- next.(d.src) + 1)
        ds)
    deliveries;
  let msgs = Array.fold_left ( + ) 0 sent in
  {
    delivered = !delivered;
    expected = msgs * Array.length deliveries;
    violations = List.rev !violations;
    violation_count = !count;
  }
