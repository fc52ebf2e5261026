open Repro_pdu

module Sending = struct
  type t = {
    tbl : (int, Pdu.data) Hashtbl.t;
    mutable last : int;
    mutable low : int; (* lowest retained seq *)
  }

  let create () = { tbl = Hashtbl.create 64; last = 0; low = 1 }

  let append t (p : Pdu.data) =
    if p.seq <> t.last + 1 then
      invalid_arg "Logs.Sending.append: non-consecutive seq";
    Hashtbl.replace t.tbl p.seq p;
    t.last <- p.seq

  let find t ~seq = Hashtbl.find_opt t.tbl seq

  let range t ~lo ~hi =
    let rec collect seq acc =
      if seq >= hi then List.rev acc
      else
        match find t ~seq with
        | Some p -> collect (seq + 1) (p :: acc)
        | None -> collect (seq + 1) acc
    in
    collect (max lo t.low) []

  let last_seq t = t.last

  let low_seq t = t.low

  let prune_below t ~seq =
    for s = t.low to min (seq - 1) t.last do
      Hashtbl.remove t.tbl s
    done;
    if seq > t.low then t.low <- seq

  let length t = Hashtbl.length t.tbl

  (* Checkpoint restore: refill a fresh log whose retained range no longer
     starts at 1 (earlier PDUs were pruned before the checkpoint). *)
  let reload t ~low ~last pdus =
    if low < 1 || last < low - 1 then invalid_arg "Logs.Sending.reload: range";
    Hashtbl.reset t.tbl;
    t.low <- low;
    t.last <- last;
    List.iter
      (fun (p : Pdu.data) ->
        if p.seq < low || p.seq > last then
          invalid_arg "Logs.Sending.reload: seq outside range";
        Hashtbl.replace t.tbl p.seq p)
      pdus
end

module Receipt = struct
  module Ring = Repro_util.Ring_buffer

  (* Hot-path representation: RRL/ARL are growable ring buffers (acceptance
     order is FIFO per source), the PRL is the indexed CPI structure with
     its O(1) in-order append fast path. The paper-literal list forms
     remain available as [Precedence.cpi_insert_reference] and the
     differential suite keeps this module honest against them. *)
  type t = {
    rrl : Pdu.data Ring.t array;
    prl : Cpi_log.t;
    arl : Pdu.data Ring.t;
  }

  let create ~n =
    if n <= 0 then invalid_arg "Logs.Receipt.create: n must be > 0";
    {
      rrl = Array.init n (fun _ -> Ring.create ~capacity:32);
      prl = Cpi_log.create ~n;
      arl = Ring.create ~capacity:64;
    }

  let rrl_enqueue t ~src p = Ring.push_grow t.rrl.(src) p

  let rrl_top t ~src = Ring.peek t.rrl.(src)

  let rrl_dequeue t ~src = Ring.pop t.rrl.(src)

  let rrl_length t ~src = Ring.length t.rrl.(src)

  let rrl_to_list t ~src = Ring.to_list t.rrl.(src)

  let prl_insert ?transitive ?witness t p =
    Cpi_log.insert ?transitive ?witness t.prl p

  let prl_append ?witness t p = Cpi_log.append ?witness t.prl p

  let prl_top t = Cpi_log.top t.prl

  let prl_dequeue t = Cpi_log.dequeue t.prl

  let prl_length t = Cpi_log.length t.prl

  let prl_to_list t = Cpi_log.to_list t.prl

  let cpi_fastpath t = Cpi_log.fastpath_count t.prl

  let arl_enqueue t p = Ring.push_grow t.arl p

  let arl_dequeue t = Ring.pop t.arl

  let arl_length t = Ring.length t.arl

  let arl_to_list t = Ring.to_list t.arl

  let buffered t =
    Array.fold_left (fun acc q -> acc + Ring.length q) (Cpi_log.length t.prl)
      t.rrl
end
