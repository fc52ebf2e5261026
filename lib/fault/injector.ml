module Prng = Repro_util.Prng
module Simtime = Repro_sim.Simtime
module Pdu = Repro_pdu.Pdu
module Codec = Repro_pdu.Codec

module Config = Repro_core.Config

type t = {
  n : int;
  wire : Config.wire_version;
  rng : Prng.t;
  down : bool array;
  mutable group : int array option;  (** group id per entity; -1 = isolated *)
  mutable loss : float;
  mutable corrupt : float;
  mutable duplicate : float;
  stall : int array;
  mutable crash_drops : int;
  mutable partition_drops : int;
  mutable loss_drops : int;
  mutable corrupt_dropped : int;
  mutable corrupt_passed : int;
  mutable duplicated : int;
}

type stats = {
  crash_drops : int;
  partition_drops : int;
  loss_drops : int;
  corrupt_dropped : int;
  corrupt_passed : int;
  duplicated : int;
}

let create ?(wire = Config.default.Config.wire) ~n ~seed () =
  if n < 2 then invalid_arg "Injector.create: n must be >= 2";
  {
    n;
    wire;
    rng = Prng.create ~seed;
    down = Array.make n false;
    group = None;
    loss = 0.;
    corrupt = 0.;
    duplicate = 0.;
    stall = Array.make n 1;
    crash_drops = 0;
    partition_drops = 0;
    loss_drops = 0;
    corrupt_dropped = 0;
    corrupt_passed = 0;
    duplicated = 0;
  }

let n t = t.n

let apply t action =
  match (action : Plan.action) with
  (* Membership is silence on the medium: a node that has left (or not
     yet joined) is down. Group changes are the churn runner's job. *)
  | Crash e | Leave e -> t.down.(e) <- true
  | Restart e | Join e -> t.down.(e) <- false
  | Partition groups ->
    let g = Array.make t.n (-1) in
    List.iteri (fun gi members -> List.iter (fun e -> g.(e) <- gi) members) groups;
    t.group <- Some g
  | Heal -> t.group <- None
  | Loss p -> t.loss <- p
  | Corrupt p -> t.corrupt <- p
  | Duplicate p -> t.duplicate <- p
  | Stall { entity; factor } -> t.stall.(entity) <- factor
  | Unstall e -> t.stall.(e) <- 1

let is_down t e = t.down.(e)

let stats (t : t) : stats =
  {
    crash_drops = t.crash_drops;
    partition_drops = t.partition_drops;
    loss_drops = t.loss_drops;
    corrupt_dropped = t.corrupt_dropped;
    corrupt_passed = t.corrupt_passed;
    duplicated = t.duplicated;
  }

let faults_active t =
  Array.exists Fun.id t.down
  || t.group <> None
  || t.loss > 0.
  || t.corrupt > 0.
  || t.duplicate > 0.
  || Array.exists (fun f -> f > 1) t.stall

let separated t src dst =
  match t.group with
  | None -> false
  | Some g -> g.(src) < 0 || g.(dst) < 0 || g.(src) <> g.(dst)

(* The one verdict: which fault, if any, claims this copy. Draws are made
   in a fixed order so a (plan, seed) pair replays identically, and a
   corruption draws the flipped bit's position here too, so every
   renderer consumes the same stream whether or not it has bits to flip. *)
type verdict = Drop | Corrupted of int | Pass | Twice

let verdict t ~dst ~src =
  if t.down.(src) || t.down.(dst) then begin
    t.crash_drops <- t.crash_drops + 1;
    Drop
  end
  else if separated t src dst then begin
    t.partition_drops <- t.partition_drops + 1;
    Drop
  end
  else if t.loss > 0. && Prng.bernoulli t.rng ~p:t.loss then begin
    t.loss_drops <- t.loss_drops + 1;
    Drop
  end
  else if t.corrupt > 0. && Prng.bernoulli t.rng ~p:t.corrupt then
    Corrupted (Prng.int t.rng max_int)
  else if t.duplicate > 0. && Prng.bernoulli t.rng ~p:t.duplicate then begin
    t.duplicated <- t.duplicated + 1;
    Twice
  end
  else Pass

(* The verdict rendered as copies of one payload. [corrupt draw] is the
   only payload-specific part: it returns whether the flip is caught (by
   the codec here or the receiver's decoder) and the copies to offer. *)
let render t ~corrupt ~dst ~src x =
  match verdict t ~dst ~src with
  | Drop -> []
  | Pass -> [ x ]
  | Twice -> [ x; x ]
  | Corrupted draw ->
    let caught, copies = corrupt draw in
    if caught then t.corrupt_dropped <- t.corrupt_dropped + 1
    else t.corrupt_passed <- t.corrupt_passed + 1;
    copies

let flip_bit draw bytes =
  let bytes = Bytes.copy bytes in
  let nbits = 8 * Bytes.length bytes in
  if nbits > 0 then begin
    let bit = draw mod nbits in
    let byte = bit / 8 in
    Bytes.set bytes byte
      (Char.chr (Char.code (Bytes.get bytes byte) lxor (1 lsl (bit mod 8))))
  end;
  bytes

let on_pdu t ~dst ~src pdu =
  render t ~dst ~src pdu ~corrupt:(fun draw ->
      (* Round-trip through the wire format with one bit flipped: the
         codec's checksum is what stands between a flipped bit and the
         protocol, so let it render the verdict. The frame matches the
         configured wire version; decoding dispatches on the version byte
         as the real ingress path does. *)
      let frame =
        match t.wire with
        | Config.V1 -> Codec.encode
        | Config.V2 -> Codec.encode_v2
      in
      match Codec.decode_any (flip_bit draw (frame pdu)) with
      | Error _ -> (true, [])
      | Ok mangled -> (false, mangled))

let on_datagram t ~dst ~src bytes =
  (* Hand the mangled datagram through: the receiver's decode path is
     expected to reject it (counted there as a decode error). *)
  render t ~dst ~src bytes ~corrupt:(fun draw ->
      (true, [ flip_bit draw bytes ]))

let on_frame t ~dst ~src frame =
  (* An opaque frame can't be bit-flipped-and-redecoded here; model the
     receiver's check rejecting the mangled frame. *)
  render t ~dst ~src frame ~corrupt:(fun _ -> (true, []))

let service_delay t ~dst d = d * t.stall.(dst)

let pp_stats ppf s =
  Format.fprintf ppf
    "drops(crash/part/loss)=%d/%d/%d corrupt(rejected/passed)=%d/%d dup=%d"
    s.crash_drops s.partition_drops s.loss_drops s.corrupt_dropped
    s.corrupt_passed s.duplicated
