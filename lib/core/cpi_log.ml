open Repro_pdu

(* The log is a ring of [int] handles in causality-preserved order; each
   handle names a pool slot holding the PDU, its witness vector and an
   unboxed copy of its (src, seq) key. Insertion shifts plain ints (no
   write barrier, no [Some] per slot) and the fallback scans compare array
   cells instead of calling an order relation. The ring and the pool share
   one power-of-two capacity, so positions are masked, not taken [mod].

   [maxack] is the pointwise maximum of every admitted entry's witness. It
   is monotone (never lowered on dequeue): domination over departed
   entries is implied for any PDU that could still legitimately arrive
   after them, and keeping it monotone makes the fast-path test independent
   of drain timing. *)
type t = {
  mutable ring : int array; (* position (masked from [head]) -> handle *)
  mutable head : int;
  mutable len : int;
  mutable pdus : Pdu.data array; (* handle -> PDU; [vacant] when free *)
  mutable wits : int array array; (* handle -> witness; [[||]] when free *)
  mutable keys : int array; (* handle h -> src at 2h, seq at 2h+1 *)
  mutable free : int array; (* stack of free handles, [nfree] deep *)
  mutable nfree : int;
  maxack : int array;
  mutable fastpath : int;
  mutable slowpath : int;
}

(* Placeholder for free pool slots, so the pool never retains a dequeued
   PDU. *)
let vacant : Pdu.data =
  { cid = 0; src = -1; seq = 0; ack = [||]; buf = 0; payload = "" }

let initial_capacity = 16

let create ~n =
  if n <= 0 then invalid_arg "Cpi_log.create: n must be > 0";
  let cap = initial_capacity in
  {
    ring = Array.make cap 0;
    head = 0;
    len = 0;
    pdus = Array.make cap vacant;
    wits = Array.make cap [||];
    keys = Array.make (2 * cap) 0;
    free = Array.init cap (fun i -> cap - 1 - i);
    nfree = cap;
    maxack = Array.make n 0;
    fastpath = 0;
    slowpath = 0;
  }

let length t = t.len
let fastpath_count t = t.fastpath
let slowpath_count t = t.slowpath

let handle_at t i = t.ring.((t.head + i) land (Array.length t.ring - 1))

let top t = if t.len = 0 then None else Some t.pdus.(t.ring.(t.head))

let dequeue t =
  if t.len = 0 then None
  else begin
    let h = t.ring.(t.head) in
    let p = t.pdus.(h) in
    t.pdus.(h) <- vacant;
    t.wits.(h) <- [||];
    t.free.(t.nfree) <- h;
    t.nfree <- t.nfree + 1;
    t.head <- (t.head + 1) land (Array.length t.ring - 1);
    t.len <- t.len - 1;
    Some p
  end

let to_list t = List.init t.len (fun i -> t.pdus.(handle_at t i))

let note_witness t (w : int array) =
  let k = min (Array.length w) (Array.length t.maxack) in
  for i = 0 to k - 1 do
    if w.(i) > t.maxack.(i) then t.maxack.(i) <- w.(i)
  done

(* Tail-append test: no admitted entry's witness admits having seen
   (p.src, p.seq), so nothing in the log can follow [p] and the
   causality-preserved position is the tail. Only the [p.src] component
   matters: the other components trail [maxack] whenever confirmations lag
   (the steady state under deferral), which is exactly why full pointwise
   domination would almost never fire. Same-source residents are covered
   by the self-ack convention (see the interface). *)
let tail_clear t (p : Pdu.data) =
  let n = Array.length t.maxack in
  Array.length p.ack = n && p.src >= 0 && p.src < n && p.seq >= t.maxack.(p.src)

(* Double the ring and the pool together. Only called when full, so every
   old handle is live and the new ones are all free. *)
let grow t =
  let cap = Array.length t.ring in
  let cap' = 2 * cap in
  let ring' = Array.make cap' 0 in
  for i = 0 to t.len - 1 do
    ring'.(i) <- handle_at t i
  done;
  t.ring <- ring';
  t.head <- 0;
  t.pdus <- Array.append t.pdus (Array.make cap vacant);
  t.wits <- Array.append t.wits (Array.make cap [||]);
  t.keys <- Array.append t.keys (Array.make (2 * cap) 0);
  t.free <- Array.init cap' (fun i -> cap' - 1 - i);
  t.nfree <- cap

(* Take a free handle for [p]; the caller then links it into the ring. *)
let alloc t (p : Pdu.data) witness =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  let h = t.free.(t.nfree) in
  t.pdus.(h) <- p;
  t.wits.(h) <- witness;
  t.keys.(2 * h) <- p.src;
  t.keys.((2 * h) + 1) <- p.seq;
  note_witness t witness;
  h

let append ?witness t (p : Pdu.data) =
  let h = alloc t p (match witness with Some w -> w | None -> p.ack) in
  t.ring.((t.head + t.len) land (Array.length t.ring - 1)) <- h;
  t.len <- t.len + 1

(* Link handle [h] at log position [pos]: shift whichever side of the
   split is shorter (near-head insertions — the steady state for lagged
   PDUs, whose successors are already resident — move only the short
   prefix). *)
let insert_at t pos h =
  let ring = t.ring in
  let mask = Array.length ring - 1 in
  if 2 * pos <= t.len then begin
    let head' = (t.head - 1) land mask in
    for i = 0 to pos - 1 do
      ring.((head' + i) land mask) <- ring.((t.head + i) land mask)
    done;
    t.head <- head'
  end
  else
    for i = t.len - 1 downto pos do
      ring.((t.head + i + 1) land mask) <- ring.((t.head + i) land mask)
    done;
  ring.((t.head + pos) land mask) <- h;
  t.len <- t.len + 1

(* The order relation, read off stored witnesses: [p ≺ q] iff same source
   and [p.seq < q.seq], or [witness(q).(p.src) > p.seq]. [follows keys
   wits h ~src ~seq] is [(src, seq) ≺ resident h]; [precedes_new keys h
   ~src ~seq ~w] is [resident h ≺ (src, seq)] for a newcomer with witness
   [w]. *)
let follows keys (wits : int array array) h ~src ~seq =
  let qsrc = keys.(2 * h) in
  if qsrc = src then seq < keys.((2 * h) + 1) else wits.(h).(src) > seq

let precedes_new keys h ~src ~seq ~(w : int array) =
  let qsrc = keys.(2 * h) in
  let qseq = keys.((2 * h) + 1) in
  if qsrc = src then qseq < seq else w.(qsrc) > qseq

(* Slow path: the lenient reference insertion ([cpi_insert_lenient]),
   re-derived position-first on the ring. The reference (a) walks to the
   first resident successor, (b) scans the rest for a predecessor — a
   non-transitive relation (Direct mode) or a corrupt log can put one
   there — and places the newcomer after the last such predecessor instead
   (never raising). A transitive irreflexive relation cannot reach (b) on a
   causality-preserved log: a predecessor at or past the first successor
   position would give [r ≺ p ≺ log[first_succ]], hence by transitivity a
   later-precedes-earlier pair (or [r ≺ r]) already in the log.
   [transitive] asserts that, letting the scan stop at the first
   successor. *)
let slow_position ~transitive t (p : Pdu.data) w =
  let src = p.src and seq = p.seq in
  let ring = t.ring and keys = t.keys and wits = t.wits in
  let head = t.head and mask = Array.length t.ring - 1 in
  if transitive then begin
    (* Backward scan. On a causality-preserved log every predecessor of
       [p] sits strictly before every successor, so walking from the tail
       may stop at the first predecessor met — all successors lie after it
       and have already been examined. The first successor found this way
       is the global first, i.e. the same position the forward reference
       scan yields; the payoff is that a lagged newcomer (the steady state
       under deferred confirmations: its successors cluster at the tail,
       and a same-source predecessor sits just below them) costs O(tail
       distance) instead of O(len). *)
    let first_succ = ref (-1) in
    let i = ref (t.len - 1) in
    while !i >= 0 do
      let h = ring.((head + !i) land mask) in
      if follows keys wits h ~src ~seq then begin
        first_succ := !i;
        decr i
      end
      else if precedes_new keys h ~src ~seq ~w then i := -1
      else decr i
    done;
    if !first_succ >= 0 then !first_succ else t.len
  end
  else begin
    let first_succ = ref (-1) in
    let i = ref 0 in
    while !first_succ < 0 && !i < t.len do
      if follows keys wits ring.((head + !i) land mask) ~src ~seq then
        first_succ := !i;
      incr i
    done;
    if !first_succ < 0 then t.len
    else begin
      let last_pred = ref (-1) in
      let j = ref (t.len - 1) in
      while !last_pred < 0 && !j >= !first_succ do
        if precedes_new keys ring.((head + !j) land mask) ~src ~seq ~w then
          last_pred := !j;
        decr j
      done;
      if !last_pred >= 0 then !last_pred + 1 else !first_succ
    end
  end

let insert ?(transitive = false) ?witness t (p : Pdu.data) =
  let w = match witness with Some w -> w | None -> p.ack in
  if tail_clear t p then begin
    append ~witness:w t p;
    t.fastpath <- t.fastpath + 1;
    true
  end
  else begin
    (* Position first: [alloc] may grow the ring, which re-bases it. *)
    let pos = slow_position ~transitive t p w in
    insert_at t pos (alloc t p w);
    t.slowpath <- t.slowpath + 1;
    false
  end
