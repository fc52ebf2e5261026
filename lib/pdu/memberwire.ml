type change = Join of int | Leave of int | Evict of int

type view = { epoch : int; members : int array }

type t =
  | Propose of { cid : int; origin : int; epoch : int; change : change }
  | Commit of { cid : int; view : view; cut : int array array }
  | State of { cid : int; sponsor : int; target : int; view : view;
               checkpoint : string }
  | Repair of { cid : int; src : int; target : int; epoch : int;
                pdus : string list }
  | Report of { cid : int; epoch : int; member : int; req : int array;
                flushed : bool }
  | Reconcile of { cid : int; epoch : int; reqs : int array array }

type error =
  | Truncated
  | Bad_magic of int
  | Bad_kind of int
  | Bad_checksum
  | Trailing of int
  | Invalid of string

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated frame"
  | Bad_magic b -> Format.fprintf ppf "bad magic byte 0x%02X" b
  | Bad_kind k -> Format.fprintf ppf "unknown member-frame kind %d" k
  | Bad_checksum -> Format.pp_print_string ppf "checksum mismatch"
  | Trailing n -> Format.fprintf ppf "%d trailing bytes" n
  | Invalid msg -> Format.fprintf ppf "invalid member frame: %s" msg

let magic = 0xB4

(* Unsigned LEB128 varints; every encoded quantity is >= 0. *)
let buf_varint buf v =
  if v < 0 then invalid_arg "Memberwire: negative field";
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (byte lor 0x80))
  done

let buf_string buf s =
  buf_varint buf (String.length s);
  Buffer.add_string buf s

let buf_arr buf a =
  buf_varint buf (Array.length a);
  Array.iter (buf_varint buf) a

let buf_view buf v =
  buf_varint buf v.epoch;
  buf_arr buf v.members

let kind_of = function
  | Propose _ -> 0
  | Commit _ -> 1
  | State _ -> 2
  | Repair _ -> 3
  | Report _ -> 4
  | Reconcile _ -> 5

let encode t =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr magic);
  Buffer.add_char buf (Char.chr (kind_of t));
  (match t with
  | Propose { cid; origin; epoch; change } ->
    buf_varint buf cid;
    buf_varint buf origin;
    buf_varint buf epoch;
    let tag, node =
      match change with Join n -> (0, n) | Leave n -> (1, n) | Evict n -> (2, n)
    in
    buf_varint buf tag;
    buf_varint buf node
  | Commit { cid; view; cut } ->
    buf_varint buf cid;
    buf_view buf view;
    buf_varint buf (Array.length cut);
    Array.iter (buf_arr buf) cut
  | State { cid; sponsor; target; view; checkpoint } ->
    buf_varint buf cid;
    buf_varint buf sponsor;
    buf_varint buf target;
    buf_view buf view;
    buf_string buf checkpoint
  | Repair { cid; src; target; epoch; pdus } ->
    buf_varint buf cid;
    buf_varint buf src;
    buf_varint buf target;
    buf_varint buf epoch;
    buf_varint buf (List.length pdus);
    List.iter (buf_string buf) pdus
  | Report { cid; epoch; member; req; flushed } ->
    buf_varint buf cid;
    buf_varint buf epoch;
    buf_varint buf member;
    buf_arr buf req;
    buf_varint buf (if flushed then 1 else 0)
  | Reconcile { cid; epoch; reqs } ->
    buf_varint buf cid;
    buf_varint buf epoch;
    buf_varint buf (Array.length reqs);
    Array.iter (buf_arr buf) reqs);
  let body = Buffer.to_bytes buf in
  let sum = Codec.fnv1a body ~pos:0 ~len:(Bytes.length body) in
  let out = Bytes.create (Bytes.length body + 4) in
  Bytes.blit body 0 out 0 (Bytes.length body);
  Bytes.set_uint16_be out (Bytes.length body) (sum lsr 16);
  Bytes.set_uint16_be out (Bytes.length body + 2) (sum land 0xFFFF);
  out

exception Fail of error

let decode b =
  let len = Bytes.length b in
  let pos = ref 0 in
  let fail e = raise (Fail e) in
  let byte () =
    if !pos >= len - 4 then fail Truncated;
    let c = Char.code (Bytes.get b !pos) in
    incr pos;
    c
  in
  let varint () =
    let v = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      let c = byte () in
      if !shift > 56 then fail (Invalid "varint overflow");
      v := !v lor ((c land 0x7f) lsl !shift);
      shift := !shift + 7;
      if c land 0x80 = 0 then begin
        (* Canonical form: no redundant trailing zero groups. *)
        if c = 0 && !shift > 7 then fail (Invalid "non-canonical varint");
        continue := false
      end
    done;
    !v
  in
  let str () =
    let n = varint () in
    if n < 0 || !pos + n > len - 4 then fail Truncated;
    let s = Bytes.sub_string b !pos n in
    pos := !pos + n;
    s
  in
  let arr () = Array.init (varint ()) (fun _ -> varint ()) in
  let view () =
    let epoch = varint () in
    let members = arr () in
    if Array.length members = 0 then fail (Invalid "empty view");
    Array.iteri
      (fun i m -> if i > 0 && m <= members.(i - 1) then
          fail (Invalid "view members not strictly ascending"))
      members;
    { epoch; members }
  in
  match
    if len < 6 then fail Truncated;
    let m = Char.code (Bytes.get b 0) in
    if m <> magic then fail (Bad_magic m);
    let sum = Codec.fnv1a b ~pos:0 ~len:(len - 4) in
    let stored =
      (Bytes.get_uint16_be b (len - 4) lsl 16) lor Bytes.get_uint16_be b (len - 2)
    in
    if sum <> stored then fail Bad_checksum;
    incr pos;
    let kind = byte () in
    let t =
      match kind with
      | 0 ->
        let cid = varint () in
        let origin = varint () in
        let epoch = varint () in
        let tag = varint () in
        let node = varint () in
        let change =
          match tag with
          | 0 -> Join node
          | 1 -> Leave node
          | 2 -> Evict node
          | k -> fail (Invalid (Printf.sprintf "unknown change tag %d" k))
        in
        Propose { cid; origin; epoch; change }
      | 1 ->
        let cid = varint () in
        let view = view () in
        let cut = Array.init (varint ()) (fun _ -> arr ()) in
        Commit { cid; view; cut }
      | 2 ->
        let cid = varint () in
        let sponsor = varint () in
        let target = varint () in
        let view = view () in
        let checkpoint = str () in
        State { cid; sponsor; target; view; checkpoint }
      | 3 ->
        let cid = varint () in
        let src = varint () in
        let target = varint () in
        let epoch = varint () in
        let pdus = List.init (varint ()) (fun _ -> str ()) in
        Repair { cid; src; target; epoch; pdus }
      | 4 ->
        let cid = varint () in
        let epoch = varint () in
        let member = varint () in
        let req = arr () in
        let flushed =
          match varint () with
          | 0 -> false
          | 1 -> true
          | k -> fail (Invalid (Printf.sprintf "bad flushed flag %d" k))
        in
        Report { cid; epoch; member; req; flushed }
      | 5 ->
        let cid = varint () in
        let epoch = varint () in
        let reqs = Array.init (varint ()) (fun _ -> arr ()) in
        Reconcile { cid; epoch; reqs }
      | k -> fail (Bad_kind k)
    in
    if !pos <> len - 4 then fail (Trailing (len - 4 - !pos));
    t
  with
  | t -> Ok t
  | exception Fail e -> Error e

let equal a b =
  match (a, b) with
  | Propose x, Propose y ->
    x.cid = y.cid && x.origin = y.origin && x.epoch = y.epoch
    && x.change = y.change
  | Commit x, Commit y ->
    x.cid = y.cid && x.view.epoch = y.view.epoch
    && x.view.members = y.view.members && x.cut = y.cut
  | State x, State y ->
    x.cid = y.cid && x.sponsor = y.sponsor && x.target = y.target
    && x.view.epoch = y.view.epoch && x.view.members = y.view.members
    && String.equal x.checkpoint y.checkpoint
  | Repair x, Repair y ->
    x.cid = y.cid && x.src = y.src && x.target = y.target
    && x.epoch = y.epoch
    && List.length x.pdus = List.length y.pdus
    && List.for_all2 String.equal x.pdus y.pdus
  | Report x, Report y ->
    x.cid = y.cid && x.epoch = y.epoch && x.member = y.member
    && x.req = y.req && x.flushed = y.flushed
  | Reconcile x, Reconcile y ->
    x.cid = y.cid && x.epoch = y.epoch && x.reqs = y.reqs
  | (Propose _ | Commit _ | State _ | Repair _ | Report _ | Reconcile _), _ ->
    false

let pp_change ppf = function
  | Join n -> Format.fprintf ppf "join %d" n
  | Leave n -> Format.fprintf ppf "leave %d" n
  | Evict n -> Format.fprintf ppf "evict %d" n

let pp_view ppf v =
  Format.fprintf ppf "e%d{%s}" v.epoch
    (String.concat "," (Array.to_list (Array.map string_of_int v.members)))

let pp ppf = function
  | Propose { cid; origin; epoch; change } ->
    Format.fprintf ppf "PROPOSE{cid=%d origin=%d epoch=%d %a}" cid origin
      epoch pp_change change
  | Commit { cid; view; cut } ->
    Format.fprintf ppf "COMMIT{cid=%d view=%a cut=%dx}" cid pp_view view
      (Array.length cut)
  | State { cid; sponsor; target; view; checkpoint } ->
    Format.fprintf ppf "STATE{cid=%d sponsor=%d target=%d view=%a |ckpt|=%d}"
      cid sponsor target pp_view view (String.length checkpoint)
  | Repair { cid; src; target; epoch; pdus } ->
    Format.fprintf ppf "REPAIR{cid=%d src=%d target=%d epoch=%d pdus=%d}" cid
      src target epoch (List.length pdus)
  | Report { cid; epoch; member; req; flushed } ->
    Format.fprintf ppf "REPORT{cid=%d epoch=%d member=%d req=[%s]%s}" cid
      epoch member
      (String.concat "," (Array.to_list (Array.map string_of_int req)))
      (if flushed then " flushed" else "")
  | Reconcile { cid; epoch; reqs } ->
    Format.fprintf ppf "RECONCILE{cid=%d epoch=%d rows=%d}" cid epoch
      (Array.length reqs)
