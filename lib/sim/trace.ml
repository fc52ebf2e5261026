type drop_reason = Overrun | Injected | Faulted

type event =
  | Submitted of { time : Simtime.t; src : int; tag : int }
  | Sent of { time : Simtime.t; src : int; uid : int }
  | Arrived of { time : Simtime.t; dst : int; uid : int }
  | Dropped of { time : Simtime.t; dst : int; uid : int; reason : drop_reason }
  | Handled of { time : Simtime.t; dst : int; uid : int }
  | Delivered of { time : Simtime.t; entity : int; tag : int }
  | Crashed of { time : Simtime.t; entity : int }
  | Restarted of { time : Simtime.t; entity : int }
  | Note of { time : Simtime.t; entity : int; label : string }

type t = { mutable rev_events : event list; mutable len : int }

let create () = { rev_events = []; len = 0 }

let record t e =
  t.rev_events <- e :: t.rev_events;
  t.len <- t.len + 1

let events t = List.rev t.rev_events

let length t = t.len

let count t ~f = List.fold_left (fun acc e -> if f e then acc + 1 else acc) 0 t.rev_events

let filter t ~f = List.filter f (events t)

let deliveries t ~entity =
  List.filter_map
    (function
      | Delivered d when d.entity = entity -> Some (d.time, d.tag)
      | Submitted _ | Sent _ | Arrived _ | Dropped _ | Handled _ | Delivered _
      | Crashed _ | Restarted _ | Note _ ->
        None)
    (events t)

let submissions t =
  List.filter_map
    (function
      | Submitted s -> Some (s.time, s.src, s.tag)
      | Sent _ | Arrived _ | Dropped _ | Handled _ | Delivered _ | Crashed _
      | Restarted _ | Note _ ->
        None)
    (events t)

let drops t =
  List.filter_map
    (function
      | Dropped d -> Some d.reason
      | Submitted _ | Sent _ | Arrived _ | Handled _ | Delivered _ | Crashed _
      | Restarted _ | Note _ ->
        None)
    (events t)

let pp_reason ppf = function
  | Overrun -> Format.pp_print_string ppf "overrun"
  | Injected -> Format.pp_print_string ppf "injected"
  | Faulted -> Format.pp_print_string ppf "faulted"

let pp_event ppf = function
  | Submitted e ->
    Format.fprintf ppf "%a SUBMITTED src=%d tag=%d" Simtime.pp e.time e.src e.tag
  | Sent e -> Format.fprintf ppf "%a SENT src=%d uid=%d" Simtime.pp e.time e.src e.uid
  | Arrived e ->
    Format.fprintf ppf "%a ARRIVED dst=%d uid=%d" Simtime.pp e.time e.dst e.uid
  | Dropped e ->
    Format.fprintf ppf "%a DROPPED dst=%d uid=%d (%a)" Simtime.pp e.time e.dst
      e.uid pp_reason e.reason
  | Handled e ->
    Format.fprintf ppf "%a HANDLED dst=%d uid=%d" Simtime.pp e.time e.dst e.uid
  | Delivered e ->
    Format.fprintf ppf "%a DELIVERED entity=%d tag=%d" Simtime.pp e.time
      e.entity e.tag
  | Crashed e ->
    Format.fprintf ppf "%a CRASHED entity=%d" Simtime.pp e.time e.entity
  | Restarted e ->
    Format.fprintf ppf "%a RESTARTED entity=%d" Simtime.pp e.time e.entity
  | Note e ->
    Format.fprintf ppf "%a NOTE entity=%d %s" Simtime.pp e.time e.entity e.label

let dump ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) (events t)

(* Text serialization: one event per line, keyword + integer fields (times in
   raw microseconds). Stable across versions so recorded traces keep linting
   after protocol changes; unknown lines are a load error, not a skip. *)

let reason_token = function
  | Overrun -> "overrun"
  | Injected -> "injected"
  | Faulted -> "faulted"

let reason_of_token = function
  | "overrun" -> Overrun
  | "injected" -> Injected
  | "faulted" -> Faulted
  | s -> failwith (Printf.sprintf "unknown drop reason %S" s)

let save t ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          match e with
          | Submitted { time; src; tag } ->
            Printf.fprintf oc "sub %d %d %d\n" time src tag
          | Sent { time; src; uid } ->
            Printf.fprintf oc "sent %d %d %d\n" time src uid
          | Arrived { time; dst; uid } ->
            Printf.fprintf oc "arr %d %d %d\n" time dst uid
          | Dropped { time; dst; uid; reason } ->
            Printf.fprintf oc "drop %d %d %d %s\n" time dst uid
              (reason_token reason)
          | Handled { time; dst; uid } ->
            Printf.fprintf oc "handled %d %d %d\n" time dst uid
          | Delivered { time; entity; tag } ->
            Printf.fprintf oc "deliver %d %d %d\n" time entity tag
          | Crashed { time; entity } ->
            Printf.fprintf oc "crash %d %d\n" time entity
          | Restarted { time; entity } ->
            Printf.fprintf oc "restart %d %d\n" time entity
          | Note { time; entity; label } ->
            Printf.fprintf oc "note %d %d %S\n" time entity label)
        (events t))

let parse_line line =
  let kw, rest =
    match String.index_opt line ' ' with
    | Some i ->
      ( String.sub line 0 i,
        String.sub line (i + 1) (String.length line - i - 1) )
    | None -> (line, "")
  in
  match kw with
  | "sub" ->
    Scanf.sscanf rest " %d %d %d" (fun time src tag ->
        Submitted { time; src; tag })
  | "sent" ->
    Scanf.sscanf rest " %d %d %d" (fun time src uid -> Sent { time; src; uid })
  | "arr" ->
    Scanf.sscanf rest " %d %d %d" (fun time dst uid ->
        Arrived { time; dst; uid })
  | "drop" ->
    Scanf.sscanf rest " %d %d %d %s" (fun time dst uid r ->
        Dropped { time; dst; uid; reason = reason_of_token r })
  | "handled" ->
    Scanf.sscanf rest " %d %d %d" (fun time dst uid ->
        Handled { time; dst; uid })
  | "deliver" ->
    Scanf.sscanf rest " %d %d %d" (fun time entity tag ->
        Delivered { time; entity; tag })
  | "crash" ->
    Scanf.sscanf rest " %d %d" (fun time entity -> Crashed { time; entity })
  | "restart" ->
    Scanf.sscanf rest " %d %d" (fun time entity -> Restarted { time; entity })
  | "note" ->
    Scanf.sscanf rest " %d %d %S" (fun time entity label ->
        Note { time; entity; label })
  | _ -> failwith (Printf.sprintf "unknown event keyword %S" kw)

let load ~file =
  match open_in file with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let t = create () in
        let lineno = ref 0 in
        let rec loop () =
          match input_line ic with
          | exception End_of_file -> Ok t
          | line ->
            incr lineno;
            if String.trim line = "" then loop ()
            else (
              match parse_line line with
              | ev ->
                record t ev;
                loop ()
              | exception
                  ( Scanf.Scan_failure msg
                  | Failure msg
                  | Invalid_argument msg ) ->
                Error (Printf.sprintf "%s:%d: %s" file !lineno msg)
              | exception End_of_file ->
                Error (Printf.sprintf "%s:%d: truncated event" file !lineno))
        in
        loop ())
