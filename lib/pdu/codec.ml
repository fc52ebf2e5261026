type error =
  | Truncated
  | Bad_kind of int
  | Bad_checksum
  | Trailing of int
  | Invalid of string
  | Bad_version of int
  | Stale_base

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated"
  | Bad_kind k -> Format.fprintf ppf "bad kind byte %d" k
  | Bad_checksum -> Format.pp_print_string ppf "bad checksum"
  | Trailing n -> Format.fprintf ppf "%d trailing bytes" n
  | Invalid msg -> Format.fprintf ppf "invalid: %s" msg
  | Bad_version v -> Format.fprintf ppf "bad version byte %d" v
  | Stale_base -> Format.pp_print_string ppf "stale delta base"

let kind_data = 0
let kind_ret = 1
let kind_ctl = 2

(* Every datagram carries a 4-byte FNV-1a trailer over the body, so a
   bit-flipped wire copy is rejected as [Bad_checksum] instead of being
   parsed into a plausible-but-wrong PDU. *)
let checksum_size = 4

(* 32-bit FNV-1a in a separate pass after the frame is written. The low 32
   bits of a 64-bit product depend only on the low 32 bits of its factors,
   so the accumulator is masked once at the end; a local [Int64] ref stays
   unboxed in a register, and the loop body is one xor and one multiply
   per byte. Folding the hash into every byte put instead costs two
   mutable record stores per byte and is slower than this second pass. *)
let fnv1a b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Codec.fnv1a: range out of bounds";
  let h = ref 0x811c9dc5L in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Bytes.get_uint8 b i))) 0x01000193L
  done;
  Int64.to_int !h land 0xFFFFFFFF

(* Every encoder writes into a buffer of exactly its frame's size. *)
let fresh_frame size = Bytes.create size
[@@coaudit.allow
  "fresh per-encode buffer, returned to the caller only after the \
   checksum trailer is sealed"]

(* Appends the checksum of [b.(0 .. p-1)] at [p], which must be the
   frame's last four bytes. *)
let seal b p =
  Bytes.set_int32_be b p (Int32.of_int (fnv1a b ~pos:0 ~len:p));
  assert (p + checksum_size = Bytes.length b);
  b

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

(* Writers take the write position and return the next one, so an encode
   threads one local [int] through the frame and allocates only the
   frame itself. *)
let w8 b p v =
  Bytes.set_uint8 b p v;
  p + 1

let w16 b p v =
  Bytes.set_uint16_be b p v;
  p + 2

let w32 b p v =
  Bytes.set_int32_be b p (Int32.of_int v);
  p + 4

let w_ack b p ack =
  let p = w16 b p (Array.length ack) in
  for k = 0 to Array.length ack - 1 do
    Bytes.set_int32_be b (p + (4 * k)) (Int32.of_int ack.(k))
  done;
  p + (4 * Array.length ack)

let encode t =
  let b = fresh_frame (encoded_size t) in
  let p =
    match t with
    | Pdu.Data d ->
      let p = w8 b 0 kind_data in
      let p = w32 b p d.cid in
      let p = w16 b p d.src in
      let p = w32 b p d.seq in
      let p = w32 b p d.buf in
      let p = w_ack b p d.ack in
      let len = String.length d.payload in
      let p = w32 b p len in
      Bytes.blit_string d.payload 0 b p len;
      p + len
    | Pdu.Ret r ->
      let p = w8 b 0 kind_ret in
      let p = w32 b p r.cid in
      let p = w16 b p r.src in
      let p = w16 b p r.lsrc in
      let p = w32 b p r.lseq in
      let p = w32 b p r.buf in
      w_ack b p r.ack
    | Pdu.Ctl c ->
      let p = w8 b 0 kind_ctl in
      let p = w32 b p c.cid in
      let p = w16 b p c.src in
      let p = w32 b p c.buf in
      w_ack b p c.ack
  in
  seal b p

(* Decode reads the datagram in place: the cursor carries an explicit
   limit at the checksum trailer and payloads are the only extraction.
   Both wire versions share it. *)
type reader = { rb : bytes; limit : int; mutable pos : int }
[@@coaudit.allow
  "decode-local cursor over the caller's datagram: lives for one decode \
   call, never escapes or crosses domains"]

exception Short
exception Err of error

let reader buf =
  { rb = buf; limit = max (Bytes.length buf - checksum_size) 0; pos = 0 }

let[@inline] need rd k = if rd.pos + k > rd.limit then raise Short

let[@inline] get rd =
  need rd 1;
  let v = Bytes.get_uint8 rd.rb rd.pos in
  rd.pos <- rd.pos + 1;
  v

let r16 rd =
  need rd 2;
  let v = Bytes.get_uint16_be rd.rb rd.pos in
  rd.pos <- rd.pos + 2;
  v

let r32 rd =
  need rd 4;
  let v = Int32.to_int (Bytes.get_int32_be rd.rb rd.pos) in
  rd.pos <- rd.pos + 4;
  v

let r_ack rd =
  let n = r16 rd in
  (* Guard before allocating: a hostile length field must not cost a 256KiB
     transient array when the buffer cannot possibly hold the vector. *)
  need rd (4 * n);
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- r32 rd
  done;
  a

let r_payload rd ~len =
  need rd len;
  let s = Bytes.sub_string rd.rb rd.pos len in
  rd.pos <- rd.pos + len;
  s

(* Structural errors (truncation, bad kind, invalid fields, trailing
   bytes) are reported before the checksum verdict so fuzzers and tests
   see the most specific failure; the checksum is the last gate before
   [Ok]. *)
let finish rd v =
  if rd.pos < rd.limit then Error (Trailing (rd.limit - rd.pos))
  else if
    fnv1a rd.rb ~pos:0 ~len:rd.limit
    <> Int32.to_int (Bytes.get_int32_be rd.rb rd.limit) land 0xFFFFFFFF
  then Error Bad_checksum
  else Ok v

let run_reader rd body =
  match body rd with
  | v -> finish rd v
  | exception Short -> Error Truncated
  | exception Err e -> Error e
  | exception Invalid_argument msg -> Error (Invalid msg)

let decode_v1_body rd =
  let kind = get rd in
  if kind = kind_data then begin
    let cid = r32 rd in
    let src = r16 rd in
    let seq = r32 rd in
    let b = r32 rd in
    let ack = r_ack rd in
    let len = r32 rd in
    if len < 0 then raise Short;
    let payload = r_payload rd ~len in
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
  else raise (Err (Bad_kind kind))

let decode buf = run_reader (reader buf) decode_v1_body

(* ------------------------------------------------------------------ *)
(* v2 wire format: versioned, varint-compressed, batch-capable.

   Frame:   0xB2 kind body cksum(4, FNV-1a big-endian over all preceding
   bytes).
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
   CTL (kind 2): cid:uv n:uv src:uv buf:uv ack:uv^n.

   An encode makes one size pass (varint lengths straight from the ACK
   vectors), one write pass into a buffer of exactly that size, and one
   checksum pass. *)

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

(* Any [v] with a bit at 56 or above, negative ones included, takes the
   full nine groups. *)
let[@inline] uv_size v =
  if v land lnot 0x7f = 0 then 1
  else if v land lnot 0x3fff = 0 then 2
  else if v land lnot 0x1fffff = 0 then 3
  else if v land lnot 0xfffffff = 0 then 4
  else if v land lnot 0x7ffffffff = 0 then 5
  else if v land lnot 0x3ffffffffff = 0 then 6
  else if v land lnot 0x1ffffffffffff = 0 then 7
  else if v land lnot 0xffffffffffffff = 0 then 8
  else 9

let sv_size d = uv_size (zigzag d)

let uv_sum ack = Array.fold_left (fun acc v -> acc + uv_size v) 0 ack

(* Bytes of an item's sparse delta section against [prev] (the nz count
   and the (index, delta) pairs), from component [k] on. *)
let rec deltas_size prev ack k nz size =
  if k = Array.length ack then uv_size nz + size
  else
    let dv = ack.(k) - prev.(k) in
    if dv = 0 then deltas_size prev ack (k + 1) nz size
    else deltas_size prev ack (k + 1) (nz + 1) (size + uv_size k + sv_size dv)

(* Each item's ACK vector is delta-coded against the previous item's; the
   first item's against the base, which is its own vector. *)
let rec items_size prev size = function
  | [] -> size
  | (d : Pdu.data) :: rest ->
    let plen = String.length d.payload in
    items_size d.ack
      (size + uv_size d.src + uv_size d.seq + uv_size d.buf
      + deltas_size prev d.ack 0 0 0
      + uv_size plen + plen)
      rest

let batch_size ~count (first : Pdu.data) items =
  2 + uv_size first.cid
  + uv_size (Array.length first.ack)
  + uv_size count + uv_sum first.ack
  + items_size first.ack 0 items
  + checksum_size

let encoded_size_v2 = function
  | Pdu.Data d -> batch_size ~count:1 d [ d ]
  | Pdu.Ret r ->
    2 + uv_size r.cid
    + uv_size (Array.length r.ack)
    + uv_size r.src + uv_size r.lsrc + uv_size r.lseq + uv_size r.buf
    + uv_sum r.ack + checksum_size
  | Pdu.Ctl c ->
    2 + uv_size c.cid
    + uv_size (Array.length c.ack)
    + uv_size c.src + uv_size c.buf + uv_sum c.ack + checksum_size

let rec put_uv b p v =
  if v land lnot 0x7f = 0 then w8 b p v
  else put_uv b (w8 b p (0x80 lor (v land 0x7f))) (v lsr 7)

let rec put_uvs b p a k =
  if k = Array.length a then p else put_uvs b (put_uv b p a.(k)) a (k + 1)

let rec count_deltas (prev : int array) (ack : int array) k nz =
  if k = Array.length ack then nz
  else count_deltas prev ack (k + 1) (if ack.(k) <> prev.(k) then nz + 1 else nz)

let rec put_deltas b p prev ack k =
  if k = Array.length ack then p
  else if ack.(k) = prev.(k) then put_deltas b p prev ack (k + 1)
  else
    let p = put_uv b (put_uv b p k) (zigzag (ack.(k) - prev.(k))) in
    put_deltas b p prev ack (k + 1)

let rec put_items b p prev = function
  | [] -> p
  | (d : Pdu.data) :: rest ->
    let p = put_uv b p d.src in
    let p = put_uv b p d.seq in
    let p = put_uv b p d.buf in
    let p = put_uv b p (count_deltas prev d.ack 0 0) in
    let p = put_deltas b p prev d.ack 0 in
    let plen = String.length d.payload in
    let p = put_uv b p plen in
    Bytes.blit_string d.payload 0 b p plen;
    put_items b (p + plen) d.ack rest

let put_ids b p ids =
  Array.iteri (fun i id -> Bytes.set_int64_be b (p + (8 * i)) id) ids;
  p + (8 * Array.length ids)

let rec check_batch ~cid ~n = function
  | [] -> ()
  | (d : Pdu.data) :: rest ->
    if d.cid <> cid then invalid_arg "Codec.encode_data_batch_v2: mixed cid";
    if Array.length d.ack <> n then
      invalid_arg "Codec.encode_data_batch_v2: mixed cluster size";
    check_batch ~cid ~n rest

let encode_data_batch_gen ~version ~ids (items : Pdu.data list) =
  let first =
    match items with
    | [] -> invalid_arg "Codec.encode_data_batch_v2: empty batch"
    | first :: _ -> first
  in
  let n = Array.length first.ack in
  check_batch ~cid:first.cid ~n items;
  let count = List.length items in
  let extra =
    match ids with
    | Some ids when Array.length ids <> count ->
      invalid_arg "Codec.encode_data_batch_traced: one trace id per item"
    | Some ids -> 8 * Array.length ids
    | None -> 0
  in
  let b = fresh_frame (batch_size ~count first items + extra) in
  let p = w8 b 0 version in
  let p = w8 b p kind2_data in
  let p = put_uv b p first.cid in
  let p = put_uv b p n in
  let p = put_uv b p count in
  let p = put_uvs b p first.ack 0 in
  let p = put_items b p first.ack items in
  let p = match ids with Some ids -> put_ids b p ids | None -> p in
  seal b p

let encode_data_batch_v2 items =
  encode_data_batch_gen ~version:version_v2 ~ids:None items

let encode_data_batch_traced ~ids items =
  encode_data_batch_gen ~version:version_v2t ~ids:(Some ids) items

let encode_v2 t =
  match t with
  | Pdu.Data d -> encode_data_batch_v2 [ d ]
  | Pdu.Ret r ->
    let b = fresh_frame (encoded_size_v2 t) in
    let p = w8 b 0 version_v2 in
    let p = w8 b p kind2_ret in
    let p = put_uv b p r.cid in
    let p = put_uv b p (Array.length r.ack) in
    let p = put_uv b p r.src in
    let p = put_uv b p r.lsrc in
    let p = put_uv b p r.lseq in
    let p = put_uv b p r.buf in
    seal b (put_uvs b p r.ack 0)
  | Pdu.Ctl c ->
    let b = fresh_frame (encoded_size_v2 t) in
    let p = w8 b 0 version_v2 in
    let p = w8 b p kind2_ctl in
    let p = put_uv b p c.cid in
    let p = put_uv b p (Array.length c.ack) in
    let p = put_uv b p c.src in
    let p = put_uv b p c.buf in
    seal b (put_uvs b p c.ack 0)

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

(* Most fields fit one group, which is canonical and in range as read. *)
let[@inline] get_uv rd =
  let b = get rd in
  if b < 0x80 then b
  else
    let v = get_uv_from rd 7 (b land 0x7f) in
    if v < 0 then raise (Err (Invalid "v2: varint overflow")) else v

let get_sv rd =
  let z = get_uv rd in
  (z lsr 1) lxor - (z land 1)

let get_ack rd ~n =
  (* Guard before allocating, as in the v1 reader: each component is at
     least one byte. *)
  need rd n;
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- get_uv rd
  done;
  a

(* Applies [k] sparse deltas to [running]; indexes must ascend past
   [prev_idx]. *)
let rec get_deltas rd running ~prev_idx k =
  if k > 0 then begin
    let idx = get_uv rd in
    if idx <= prev_idx || idx >= Array.length running then
      raise (Err (Invalid "v2: delta index"));
    let dv = get_sv rd in
    if dv = 0 then raise (Err (Invalid "v2: zero delta"));
    running.(idx) <- running.(idx) + dv;
    get_deltas rd running ~prev_idx:idx (k - 1)
  end

(* One batch item, its ACK vector copied once out of [running]. The
   record is built here rather than through [Pdu.data], which would scan
   the vector a second time: [Stale_base] has already checked every
   component's lower bound, cid and buf are varints and so never
   negative, and the remaining [Pdu.data] checks, the v1 bounds
   included, follow in its order and with its messages. *)
let get_item rd ~cid running =
  let src = get_uv rd in
  let seq = get_uv rd in
  let buf = get_uv rd in
  let nz = get_uv rd in
  need rd (2 * nz);
  get_deltas rd running ~prev_idx:(-1) nz;
  (* The reconstructed vector must be a plausible ACK: a component
     below 1 means the deltas were taken against a base this frame
     does not establish. *)
  let n = Array.length running in
  for i = 0 to n - 1 do
    if running.(i) < 1 then raise (Err Stale_base)
  done;
  let payload = r_payload rd ~len:(get_uv rd) in
  let invalid msg = raise (Err (Invalid ("Pdu.data: " ^ msg))) in
  if n = 0 then invalid "empty ack vector";
  if n >= 1 lsl 16 then invalid "ack vector too long";
  if cid >= Pdu.word_bound then invalid "cid exceeds 31 bits";
  if src >= n then invalid "src out of range";
  if buf >= Pdu.word_bound then invalid "buf exceeds 31 bits";
  for i = 0 to n - 1 do
    if running.(i) >= Pdu.word_bound then invalid "ack exceeds 31 bits"
  done;
  if seq < 1 then invalid "seq must be >= 1";
  if seq >= Pdu.word_bound then invalid "seq exceeds 31 bits";
  Pdu.Data { cid; src; seq; ack = Array.copy running; buf; payload }

let[@tail_mod_cons] rec get_items rd ~cid running k =
  if k = 0 then []
  else
    let pdu = get_item rd ~cid running in
    pdu :: get_items rd ~cid running (k - 1)

let get_data_items rd =
  let cid = get_uv rd in
  let n = get_uv rd in
  let count = get_uv rd in
  if count < 1 then raise (Err (Invalid "v2: empty batch"));
  let running = get_ack rd ~n in
  (get_items rd ~cid running count, count)

let get_id rd =
  need rd 8;
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

let decode_v2 buf = run_reader (reader buf) decode_v2_body

(* A 0xB3 frame: DATA batch body, then one trace id per item, then the
   checksum. Any other kind under 0xB3 is rejected — RET/CTL are never
   traced. *)
let decode_v2t_body rd =
  let ver = get rd in
  if ver <> version_v2t then raise (Err (Bad_version ver));
  let kind = get rd in
  if kind <> kind2_data then raise (Err (Bad_kind kind));
  let items, count = get_data_items rd in
  need rd (8 * count);
  let ids = Array.make count 0L in
  for i = 0 to count - 1 do
    ids.(i) <- get_id rd
  done;
  (items, ids)

let decode_v2t_ids buf = run_reader (reader buf) decode_v2t_body

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

let encode_traced ~ids pdu =
  match pdu with
  | Pdu.Data d -> encode_data_batch_traced ~ids [ d ]
  | Pdu.Ret _ | Pdu.Ctl _ -> encode_v2 pdu

let encoded_size_traced pdu =
  match pdu with
  | Pdu.Data _ -> encoded_size_v2 pdu + 8
  | Pdu.Ret _ | Pdu.Ctl _ -> encoded_size_v2 pdu
