(* The v1/v2 codec as it stood before the one-pass rewrite, kept as the
   reference the rewritten [Repro_pdu.Codec] is compared against
   byte-for-byte (frames) and result-for-result (decodes, errors
   included) in test_wire_prop.ml. Not used by the library. The checksum
   is folded into every byte put on encode and recomputed in a separate
   pass on decode; DATA records are built through [Pdu.data]. *)

module Pdu = Repro_pdu.Pdu

type error = Repro_pdu.Codec.error =
  | Truncated
  | Bad_kind of int
  | Bad_checksum
  | Trailing of int
  | Invalid of string
  | Bad_version of int
  | Stale_base

let kind_data = 0
let kind_ret = 1
let kind_ctl = 2

(* Every datagram carries a 4-byte FNV-1a trailer over the body, so a
   bit-flipped wire copy is rejected as [Bad_checksum] instead of being
   parsed into a plausible-but-wrong PDU. *)
let checksum_size = 4

let fnv1a buf ~len =
  let h = ref 0x811c9dc5 in
  for i = 0 to len - 1 do
    h := (!h lxor Bytes.get_uint8 buf i) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

let header_size ~kind ~n =
  checksum_size
  +
  match kind with
  | `Data -> 1 + 4 + 2 + 4 + 4 + 2 + (4 * n) + 4
  | `Ret -> 1 + 4 + 2 + 2 + 4 + 4 + 2 + (4 * n)
  | `Ctl -> 1 + 4 + 2 + 4 + 2 + (4 * n)

let encoded_size = function
  | Pdu.Data d ->
    header_size ~kind:`Data ~n:(Array.length d.ack) + String.length d.payload
  | Pdu.Ret r -> header_size ~kind:`Ret ~n:(Array.length r.ack)
  | Pdu.Ctl c -> header_size ~kind:`Ctl ~n:(Array.length c.ack)

(* A little mutable cursor over a Bytes buffer. *)
type writer = { buf : bytes; mutable w : int }

let w8 wr v =
  Bytes.set_uint8 wr.buf wr.w v;
  wr.w <- wr.w + 1

let w16 wr v =
  Bytes.set_uint16_be wr.buf wr.w v;
  wr.w <- wr.w + 2

let w32 wr v =
  Bytes.set_int32_be wr.buf wr.w (Int32.of_int v);
  wr.w <- wr.w + 4

let w_ack wr ack =
  w16 wr (Array.length ack);
  Array.iter (w32 wr) ack

let encode t =
  let wr = { buf = Bytes.create (encoded_size t); w = 0 } in
  (match t with
  | Pdu.Data d ->
    w8 wr kind_data;
    w32 wr d.cid;
    w16 wr d.src;
    w32 wr d.seq;
    w32 wr d.buf;
    w_ack wr d.ack;
    w32 wr (String.length d.payload);
    Bytes.blit_string d.payload 0 wr.buf wr.w (String.length d.payload);
    wr.w <- wr.w + String.length d.payload
  | Pdu.Ret r ->
    w8 wr kind_ret;
    w32 wr r.cid;
    w16 wr r.src;
    w16 wr r.lsrc;
    w32 wr r.lseq;
    w32 wr r.buf;
    w_ack wr r.ack
  | Pdu.Ctl c ->
    w8 wr kind_ctl;
    w32 wr c.cid;
    w16 wr c.src;
    w32 wr c.buf;
    w_ack wr c.ack);
  w32 wr (fnv1a wr.buf ~len:(wr.w));
  assert (wr.w = Bytes.length wr.buf);
  wr.buf

type reader = { rbuf : bytes; mutable r : int }

exception Short

let need rd k = if rd.r + k > Bytes.length rd.rbuf then raise Short

let r8 rd =
  need rd 1;
  let v = Bytes.get_uint8 rd.rbuf rd.r in
  rd.r <- rd.r + 1;
  v

let r16 rd =
  need rd 2;
  let v = Bytes.get_uint16_be rd.rbuf rd.r in
  rd.r <- rd.r + 2;
  v

let r32 rd =
  need rd 4;
  let v = Int32.to_int (Bytes.get_int32_be rd.rbuf rd.r) in
  rd.r <- rd.r + 4;
  v

let r_ack rd =
  let n = r16 rd in
  (* Guard before allocating: a hostile length field must not cost a 256KiB
     transient array when the buffer cannot possibly hold the vector. *)
  need rd (4 * n);
  Array.init n (fun _ -> r32 rd)

let r_payload rd =
  let len = r32 rd in
  if len < 0 then raise Short;
  need rd len;
  let s = Bytes.sub_string rd.rbuf rd.r len in
  rd.r <- rd.r + len;
  s

let decode buf =
  (* Structural errors (truncation, bad kind, trailing bytes) are reported
     before the checksum verdict so fuzzers and tests see the most specific
     failure; the checksum is the last gate before [Ok]. *)
  let body_len = Bytes.length buf - checksum_size in
  let rd = { rbuf = (if body_len >= 1 then Bytes.sub buf 0 body_len else Bytes.empty); r = 0 } in
  match
    let kind = r8 rd in
    let pdu =
      if kind = kind_data then begin
        let cid = r32 rd in
        let src = r16 rd in
        let seq = r32 rd in
        let b = r32 rd in
        let ack = r_ack rd in
        let payload = r_payload rd in
        Pdu.data ~cid ~src ~seq ~ack ~buf:b ~payload
      end
      else if kind = kind_ret then begin
        let cid = r32 rd in
        let src = r16 rd in
        let lsrc = r16 rd in
        let lseq = r32 rd in
        let b = r32 rd in
        let ack = r_ack rd in
        Pdu.ret ~cid ~src ~lsrc ~lseq ~ack ~buf:b
      end
      else if kind = kind_ctl then begin
        let cid = r32 rd in
        let src = r16 rd in
        let b = r32 rd in
        let ack = r_ack rd in
        Pdu.ctl ~cid ~src ~ack ~buf:b
      end
      else raise (Invalid_argument (Printf.sprintf "kind:%d" kind))
    in
    (pdu, rd.r)
  with
  | pdu, consumed ->
    if consumed < body_len then Error (Trailing (body_len - consumed))
    else if
      fnv1a buf ~len:body_len
      <> Int32.to_int (Bytes.get_int32_be buf body_len) land 0xFFFFFFFF
    then Error Bad_checksum
    else Ok pdu
  | exception Short -> Error Truncated
  | exception Invalid_argument msg -> (
    match String.index_opt msg ':' with
    | Some _ when String.length msg > 5 && String.sub msg 0 5 = "kind:" ->
      Error (Bad_kind (int_of_string (String.sub msg 5 (String.length msg - 5))))
    | Some _ | None -> Error (Invalid msg))

(* ------------------------------------------------------------------ *)
(* v2 wire format: versioned, varint-compressed, batch-capable.

   Frame:   0xB2 kind body cksum(4, FNV-1a big-endian over all preceding
   bytes, folded into the single write pass).
   uv:      LEB128 unsigned varint, little-endian groups of 7 bits; the
   encoder emits the canonical (shortest) form and the decoder rejects
   redundant trailing groups and values past 62 bits.
   sv:      zigzag-mapped signed varint ((d lsl 1) lxor (d asr 62)).

   DATA (kind 0) bodies carry a batch: cid:uv n:uv count:uv base:uv^n then
   [count] items, each src:uv seq:uv buf:uv nz:uv (idx:uv delta:sv)^nz
   plen:uv payload. An item's ACK vector is the running base plus its
   sparse deltas (indexes strictly increasing, deltas nonzero); the item's
   reconstructed vector then becomes the base for the next item, so a
   burst of PDUs whose ACK vectors crawl forward costs a handful of bytes
   per PDU regardless of n. A reconstructed component below 1 is reported
   as [Stale_base] — the sender delta-compressed against a vector the
   frame does not substantiate.

   RET (kind 1): cid:uv n:uv src:uv lsrc:uv lseq:uv buf:uv ack:uv^n.
   CTL (kind 2): cid:uv n:uv src:uv buf:uv ack:uv^n. *)

let version_v2 = 0xB2

(* Traced v2 frame (DESIGN.md §15): identical DATA-batch body under its
   own version byte, followed by one 8-byte big-endian trace id per item
   between the last payload and the checksum. The ids are opaque to the
   protocol — decoding surfaces them only through [decode_traced] — so a
   node that does not trace still decodes traced frames, and tracing off
   leaves the 0xB2 byte stream untouched. Only DATA is ever traced:
   RET/CTL PDUs are unsequenced and have no per-PDU trace context. *)
let version_v2t = 0xB3
let kind2_data = 0
let kind2_ret = 1
let kind2_ctl = 2

let zigzag d = (d lsl 1) lxor (d asr 62)

let rec uv_size v = if v land lnot 0x7f = 0 then 1 else 1 + uv_size (v lsr 7)
let sv_size d = uv_size (zigzag d)

(* Sparse delta of [ack] against [prev], ascending indexes. *)
let deltas_against prev (ack : int array) =
  let ds = ref [] in
  for k = Array.length ack - 1 downto 0 do
    if ack.(k) <> prev.(k) then ds := (k, ack.(k) - prev.(k)) :: !ds
  done;
  !ds

(* The shared base is the first item's ACK vector (sent in full, varint
   components); each item's reconstructed vector chains as the next base. *)
let batch_plan (items : Pdu.data list) =
  let first = List.hd items in
  let rec go prev = function
    | [] -> []
    | (d : Pdu.data) :: rest -> (d, deltas_against prev d.ack) :: go d.ack rest
  in
  (first.ack, go first.ack items)

let item_size ((d : Pdu.data), ds) =
  uv_size d.src + uv_size d.seq + uv_size d.buf
  + uv_size (List.length ds)
  + List.fold_left (fun acc (k, dv) -> acc + uv_size k + sv_size dv) 0 ds
  + uv_size (String.length d.payload)
  + String.length d.payload

let uv_sum ack = Array.fold_left (fun acc v -> acc + uv_size v) 0 ack

let batch_size items =
  let base, plan = batch_plan items in
  let first = List.hd items in
  2
  + uv_size first.Pdu.cid
  + uv_size (Array.length base)
  + uv_size (List.length items)
  + uv_sum base
  + List.fold_left (fun acc it -> acc + item_size it) 0 plan
  + checksum_size

let encoded_size_v2 = function
  | Pdu.Data d -> batch_size [ d ]
  | Pdu.Ret r ->
    2 + uv_size r.cid
    + uv_size (Array.length r.ack)
    + uv_size r.src + uv_size r.lsrc + uv_size r.lseq + uv_size r.buf
    + uv_sum r.ack + checksum_size
  | Pdu.Ctl c ->
    2 + uv_size c.cid
    + uv_size (Array.length c.ack)
    + uv_size c.src + uv_size c.buf + uv_sum c.ack + checksum_size

(* Write cursor with the FNV-1a state threaded through every byte, so the
   checksum costs no second pass over the frame. *)
type writer2 = { b : bytes; mutable pos : int; mutable h : int }
[@@coaudit.allow
  "encode-local cursor: allocated, filled and frozen within one encode call; \
   never escapes or crosses domains"]

let fresh_writer2 size = { b = Bytes.create size; pos = 0; h = 0x811c9dc5 }
[@@coaudit.allow
  "fresh per-encode buffer, returned to the caller only after the final \
   trailer write"]

let put wr v =
  Bytes.set_uint8 wr.b wr.pos v;
  wr.pos <- wr.pos + 1;
  wr.h <- (wr.h lxor v) * 0x01000193 land 0xFFFFFFFF

let rec put_uv wr v =
  if v land lnot 0x7f = 0 then put wr v
  else begin
    put wr (0x80 lor (v land 0x7f));
    put_uv wr (v lsr 7)
  end

let put_sv wr d = put_uv wr (zigzag d)
let put_str wr s = String.iter (fun c -> put wr (Char.code c)) s

let put_trailer wr =
  Bytes.set_int32_be wr.b wr.pos (Int32.of_int wr.h);
  wr.pos <- wr.pos + 4

(* One 8-byte trace id per item, folded through [put] so the running
   FNV-1a state covers it like every other body byte. *)
let put_id wr id =
  for k = 7 downto 0 do
    put wr (Int64.to_int (Int64.shift_right_logical id (8 * k)) land 0xff)
  done

let encode_data_batch_gen ~version ~ids (items : Pdu.data list) =
  (match items with
  | [] -> invalid_arg "Codec.encode_data_batch_v2: empty batch"
  | first :: rest ->
    let cid = first.Pdu.cid in
    let n = Array.length first.Pdu.ack in
    List.iter
      (fun (d : Pdu.data) ->
        if d.cid <> cid then
          invalid_arg "Codec.encode_data_batch_v2: mixed cid";
        if Array.length d.ack <> n then
          invalid_arg "Codec.encode_data_batch_v2: mixed cluster size")
      rest);
  (match ids with
  | Some ids when Array.length ids <> List.length items ->
    invalid_arg "Codec.encode_data_batch_traced: one trace id per item"
  | Some _ | None -> ());
  let first = List.hd items in
  let base, plan = batch_plan items in
  let extra = match ids with Some ids -> 8 * Array.length ids | None -> 0 in
  let wr = fresh_writer2 (batch_size items + extra) in
  put wr version;
  put wr kind2_data;
  put_uv wr first.Pdu.cid;
  put_uv wr (Array.length base);
  put_uv wr (List.length items);
  Array.iter (put_uv wr) base;
  List.iter
    (fun ((d : Pdu.data), ds) ->
      put_uv wr d.src;
      put_uv wr d.seq;
      put_uv wr d.buf;
      put_uv wr (List.length ds);
      List.iter
        (fun (k, dv) ->
          put_uv wr k;
          put_sv wr dv)
        ds;
      put_uv wr (String.length d.payload);
      put_str wr d.payload)
    plan;
  (match ids with
  | Some ids -> Array.iter (put_id wr) ids
  | None -> ());
  put_trailer wr;
  assert (wr.pos = Bytes.length wr.b);
  wr.b

let encode_data_batch_v2 items =
  encode_data_batch_gen ~version:version_v2 ~ids:None items

let encode_data_batch_traced ~ids items =
  encode_data_batch_gen ~version:version_v2t ~ids:(Some ids) items

let encode_v2 t =
  match t with
  | Pdu.Data d -> encode_data_batch_v2 [ d ]
  | Pdu.Ret r ->
    let wr = fresh_writer2 (encoded_size_v2 t) in
    put wr version_v2;
    put wr kind2_ret;
    put_uv wr r.cid;
    put_uv wr (Array.length r.ack);
    put_uv wr r.src;
    put_uv wr r.lsrc;
    put_uv wr r.lseq;
    put_uv wr r.buf;
    Array.iter (put_uv wr) r.ack;
    put_trailer wr;
    assert (wr.pos = Bytes.length wr.b);
    wr.b
  | Pdu.Ctl c ->
    let wr = fresh_writer2 (encoded_size_v2 t) in
    put wr version_v2;
    put wr kind2_ctl;
    put_uv wr c.cid;
    put_uv wr (Array.length c.ack);
    put_uv wr c.src;
    put_uv wr c.buf;
    Array.iter (put_uv wr) c.ack;
    put_trailer wr;
    assert (wr.pos = Bytes.length wr.b);
    wr.b

(* Decode reads the datagram in place (no [Bytes.sub] of the body, unlike
   the v1 path): the cursor carries an explicit limit at the checksum
   trailer and payloads are the only extraction. *)
type reader2 = { rb : bytes; limit : int; mutable pos : int }
[@@coaudit.allow
  "decode-local cursor over the caller's datagram: lives for one decode \
   call, never escapes or crosses domains"]

exception Err of error

let need2 rd k = if rd.pos + k > rd.limit then raise Short

let get rd =
  need2 rd 1;
  let v = Bytes.get_uint8 rd.rb rd.pos in
  rd.pos <- rd.pos + 1;
  v

(* Top-level, not a local closure over [rd]: a varint decode allocates
   nothing. *)
let rec get_uv_from rd shift acc =
  let b = get rd in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then
    if b = 0 && shift > 0 then
      (* A redundant zero group would give the same value a second
         spelling; every frame has exactly one valid byte string. *)
      raise (Err (Invalid "v2: non-canonical varint"))
    else acc
  else if shift >= 56 then raise (Err (Invalid "v2: varint overflow"))
  else get_uv_from rd (shift + 7) acc

let get_uv rd =
  let v = get_uv_from rd 0 0 in
  if v < 0 then raise (Err (Invalid "v2: varint overflow")) else v

let get_sv rd =
  let z = get_uv rd in
  (z lsr 1) lxor - (z land 1)

let get_ack rd ~n =
  (* Guard before allocating, as in the v1 reader: each component is at
     least one byte. *)
  need2 rd n;
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- get_uv rd
  done;
  a

let get_data_items rd =
  let cid = get_uv rd in
  let n = get_uv rd in
  let count = get_uv rd in
  if count < 1 then raise (Err (Invalid "v2: empty batch"));
  let running = get_ack rd ~n in
  let items = ref [] in
  for _ = 1 to count do
    let src = get_uv rd in
    let seq = get_uv rd in
    let buf = get_uv rd in
    let nz = get_uv rd in
    need2 rd (2 * nz);
    let prev_idx = ref (-1) in
    for _ = 1 to nz do
      let idx = get_uv rd in
      if idx <= !prev_idx || idx >= n then
        raise (Err (Invalid "v2: delta index"));
      prev_idx := idx;
      let dv = get_sv rd in
      if dv = 0 then raise (Err (Invalid "v2: zero delta"));
      running.(idx) <- running.(idx) + dv
    done;
    (* The reconstructed vector must be a plausible ACK: a component
       below 1 means the deltas were taken against a base this frame
       does not establish. *)
    Array.iter (fun a -> if a < 1 then raise (Err Stale_base)) running;
    let plen = get_uv rd in
    need2 rd plen;
    let payload = Bytes.sub_string rd.rb rd.pos plen in
    rd.pos <- rd.pos + plen;
    items := Pdu.data ~cid ~src ~seq ~ack:running ~buf ~payload :: !items
  done;
  (List.rev !items, count)

let get_id rd =
  need2 rd 8;
  let v = Bytes.get_int64_be rd.rb rd.pos in
  rd.pos <- rd.pos + 8;
  v

let decode_v2_body rd =
  let ver = get rd in
  if ver <> version_v2 then raise (Err (Bad_version ver));
  let kind = get rd in
  if kind = kind2_data then fst (get_data_items rd)
  else if kind = kind2_ret then begin
    let cid = get_uv rd in
    let n = get_uv rd in
    let src = get_uv rd in
    let lsrc = get_uv rd in
    let lseq = get_uv rd in
    let buf = get_uv rd in
    let ack = get_ack rd ~n in
    [ Pdu.ret ~cid ~src ~lsrc ~lseq ~ack ~buf ]
  end
  else if kind = kind2_ctl then begin
    let cid = get_uv rd in
    let n = get_uv rd in
    let src = get_uv rd in
    let buf = get_uv rd in
    let ack = get_ack rd ~n in
    [ Pdu.ctl ~cid ~src ~ack ~buf ]
  end
  else raise (Err (Bad_kind kind))

let finish_v2 buf rd pdus =
  let body = rd.limit in
  if rd.pos < body then Error (Trailing (body - rd.pos))
  else if
    fnv1a buf ~len:body
    <> Int32.to_int (Bytes.get_int32_be buf body) land 0xFFFFFFFF
  then Error Bad_checksum
  else Ok pdus

let decode_v2 buf =
  let body = Bytes.length buf - checksum_size in
  let rd = { rb = buf; limit = max body 0; pos = 0 } in
  match decode_v2_body rd with
  | pdus -> finish_v2 buf rd pdus
  | exception Short -> Error Truncated
  | exception Err e -> Error e
  | exception Invalid_argument msg -> Error (Invalid msg)

(* A 0xB3 frame: DATA batch body, then one trace id per item, then the
   checksum. Any other kind under 0xB3 is rejected — RET/CTL are never
   traced. *)
let decode_v2t_ids buf =
  let body = Bytes.length buf - checksum_size in
  let rd = { rb = buf; limit = max body 0; pos = 0 } in
  match
    let ver = get rd in
    if ver <> version_v2t then raise (Err (Bad_version ver));
    let kind = get rd in
    if kind <> kind2_data then raise (Err (Bad_kind kind));
    let items, count = get_data_items rd in
    need2 rd (8 * count);
    let ids = Array.make count 0L in
    for i = 0 to count - 1 do
      ids.(i) <- get_id rd
    done;
    (items, ids)
  with
  | items, ids ->
    Result.map (fun pdus -> (pdus, ids)) (finish_v2 buf rd items)
  | exception Short -> Error Truncated
  | exception Err e -> Error e
  | exception Invalid_argument msg -> Error (Invalid msg)

(* Version dispatch: v1 kind bytes are 0/1/2, so the 0xB2/0xB3 version
   bytes never collide and a mixed-version cluster can decode whatever
   arrives — traced frames included, ids discarded. *)
let decode_any buf =
  if Bytes.length buf = 0 then Error Truncated
  else
    let v = Bytes.get_uint8 buf 0 in
    if v = version_v2 then decode_v2 buf
    else if v = version_v2t then Result.map fst (decode_v2t_ids buf)
    else Result.map (fun p -> [ p ]) (decode buf)

let decode_traced buf =
  if Bytes.length buf = 0 then Error Truncated
  else if Bytes.get_uint8 buf 0 = version_v2t then decode_v2t_ids buf
  else Result.map (fun pdus -> (pdus, [||])) (decode_any buf)
