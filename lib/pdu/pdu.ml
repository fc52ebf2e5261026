type data = {
  cid : int;
  src : int;
  seq : int;
  ack : int array;
  buf : int;
  payload : string;
}

type ret = {
  cid : int;
  src : int;
  lsrc : int;
  lseq : int;
  ack : int array;
  buf : int;
}

type ctl = { cid : int; src : int; ack : int array; buf : int }

type t = Data of data | Ret of ret | Ctl of ctl

(* Every field must fit the v1 layout, which truncates rather than
   refuses: integers in 31 bits, the vector length (so src and lsrc) in
   16. *)
let word_bound = 0x8000_0000

let check_word ~name field v =
  if v >= word_bound then invalid_arg (name ^ ": " ^ field ^ " exceeds 31 bits")

let check_common ~name ~cid ~src ~ack ~buf =
  let n = Array.length ack in
  if n = 0 then invalid_arg (name ^ ": empty ack vector");
  if n >= 1 lsl 16 then invalid_arg (name ^ ": ack vector too long");
  if cid < 0 then invalid_arg (name ^ ": negative cid");
  check_word ~name "cid" cid;
  if src < 0 || src >= n then invalid_arg (name ^ ": src out of range");
  if buf < 0 then invalid_arg (name ^ ": negative buf");
  check_word ~name "buf" buf;
  Array.iter
    (fun a ->
      if a < 1 then invalid_arg (name ^ ": ack below 1")
      else if a >= word_bound then invalid_arg (name ^ ": ack exceeds 31 bits"))
    ack

let data ~cid ~src ~seq ~ack ~buf ~payload =
  check_common ~name:"Pdu.data" ~cid ~src ~ack ~buf;
  if seq < 1 then invalid_arg "Pdu.data: seq must be >= 1";
  check_word ~name:"Pdu.data" "seq" seq;
  Data { cid; src; seq; ack = Array.copy ack; buf; payload }

let ret ~cid ~src ~lsrc ~lseq ~ack ~buf =
  check_common ~name:"Pdu.ret" ~cid ~src ~ack ~buf;
  let n = Array.length ack in
  if lsrc < 0 || lsrc >= n then invalid_arg "Pdu.ret: lsrc out of range";
  if lseq < 1 then invalid_arg "Pdu.ret: lseq must be >= 1";
  check_word ~name:"Pdu.ret" "lseq" lseq;
  Ret { cid; src; lsrc; lseq; ack = Array.copy ack; buf }

let ctl ~cid ~src ~ack ~buf =
  check_common ~name:"Pdu.ctl" ~cid ~src ~ack ~buf;
  Ctl { cid; src; ack = Array.copy ack; buf }

let key (d : data) = (d.src, d.seq)

let is_confirmation (d : data) = String.length d.payload = 0

let cluster_size = function
  | Data d -> Array.length d.ack
  | Ret r -> Array.length r.ack
  | Ctl c -> Array.length c.ack

let src = function Data d -> d.src | Ret r -> r.src | Ctl c -> c.src

let equal a b =
  match (a, b) with
  | Data x, Data y ->
    x.cid = y.cid && x.src = y.src && x.seq = y.seq && x.ack = y.ack
    && x.buf = y.buf && String.equal x.payload y.payload
  | Ret x, Ret y ->
    x.cid = y.cid && x.src = y.src && x.lsrc = y.lsrc && x.lseq = y.lseq
    && x.ack = y.ack && x.buf = y.buf
  | Ctl x, Ctl y -> x.cid = y.cid && x.src = y.src && x.ack = y.ack && x.buf = y.buf
  | (Data _ | Ret _ | Ctl _), _ -> false

let pp_ack ppf ack =
  Format.fprintf ppf "⟨%s⟩"
    (String.concat "," (Array.to_list (Array.map string_of_int ack)))

let pp ppf = function
  | Data d ->
    Format.fprintf ppf "DT{cid=%d src=%d seq=%d ack=%a buf=%d |data|=%d}" d.cid
      d.src d.seq pp_ack d.ack d.buf (String.length d.payload)
  | Ret r ->
    Format.fprintf ppf "RET{cid=%d src=%d lsrc=%d lseq=%d ack=%a buf=%d}" r.cid
      r.src r.lsrc r.lseq pp_ack r.ack r.buf
  | Ctl c ->
    Format.fprintf ppf "CTL{cid=%d src=%d ack=%a buf=%d}" c.cid c.src pp_ack
      c.ack c.buf

let to_string t = Format.asprintf "%a" pp t
