module Json = T1000_obs.Json
module Fault = T1000.Fault

type kernel =
  | Named of string
  | Asm of { name : string; text : string }

type select = {
  kernel : kernel;
  method_ : [ `Baseline | `Greedy | `Selective ];
  pfus : int option;
  penalty : int;
  max_cycles : int option;
  deadline_ms : float option;
}

type request = { id : int; body : [ `Ping | `Select of select ] }

type outcome = {
  speedup : float;
  cycles : int;
  baseline_cycles : int;
  ext_count : int;
  lut_cost : int;
  cached : bool;
}

type error_code = Overloaded | Timeout | Invalid | Malformed | Faulted

type reply_body =
  [ `Pong
  | `Outcome of outcome
  | `Error of error_code * string ]

type reply = { rid : int; body : reply_body }

let version = '\001'
let max_frame = 1 lsl 20

let string_of_code = function
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Invalid -> "invalid"
  | Malformed -> "malformed"
  | Faulted -> "fault"

let code_of_string = function
  | "overloaded" -> Some Overloaded
  | "timeout" -> Some Timeout
  | "invalid" -> Some Invalid
  | "malformed" -> Some Malformed
  | "fault" -> Some Faulted
  | _ -> None

let error_of_fault (f : Fault.t) =
  let msg = Fault.to_string f in
  match f with
  | Fault.Invalid_config _ -> (Invalid, msg)
  | Fault.Overloaded _ -> (Overloaded, msg)
  | Fault.Deadline_exceeded _ -> (Timeout, msg)
  (* The watchdog snapshot (RUU head, occupancy, PFU stats) rides along
     in the rendered message, so a timed-out client can triage without
     server logs. *)
  | Fault.Sim_stuck _ -> (Timeout, msg)
  | _ -> (Faulted, msg)

(* ---- JSON encoding ---- *)

let num_i n = Json.Num (float_of_int n)

let json_of_kernel = function
  | Named n -> Json.Obj [ ("named", Json.Str n) ]
  | Asm { name; text } ->
      Json.Obj [ ("name", Json.Str name); ("asm", Json.Str text) ]

let string_of_method = function
  | `Baseline -> "baseline"
  | `Greedy -> "greedy"
  | `Selective -> "selective"

let json_of_request (r : request) =
  match r.body with
  | `Ping -> Json.Obj [ ("id", num_i r.id); ("op", Json.Str "ping") ]
  | `Select s ->
      let opt k v rest =
        match v with None -> rest | Some v -> (k, v) :: rest
      in
      Json.Obj
        (("id", num_i r.id)
        :: ("op", Json.Str "select")
        :: ("kernel", json_of_kernel s.kernel)
        :: ("method", Json.Str (string_of_method s.method_))
        :: ( "pfus",
             match s.pfus with
             | None -> Json.Str "unlimited"
             | Some n -> num_i n )
        :: ("penalty", num_i s.penalty)
        :: opt "max_cycles" (Option.map (fun c -> num_i c) s.max_cycles)
             (opt "deadline_ms"
                (Option.map (fun d -> Json.Num d) s.deadline_ms)
                []))

let json_of_reply (r : reply) =
  match r.body with
  | `Pong -> Json.Obj [ ("id", num_i r.rid); ("status", Json.Str "pong") ]
  | `Outcome o ->
      Json.Obj
        [
          ("id", num_i r.rid);
          ("status", Json.Str "ok");
          ("speedup", Json.Num o.speedup);
          ("cycles", num_i o.cycles);
          ("baseline_cycles", num_i o.baseline_cycles);
          ("ext_count", num_i o.ext_count);
          ("lut_cost", num_i o.lut_cost);
          ("cached", Json.Bool o.cached);
        ]
  | `Error (code, msg) ->
      Json.Obj
        [
          ("id", num_i r.rid);
          ("status", Json.Str "error");
          ("code", Json.Str (string_of_code code));
          ("message", Json.Str msg);
        ]

(* ---- framing ---- *)

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  Bytes.to_string b

let payload json = String.make 1 version ^ Json.to_string json
let request_payload r = payload (json_of_request r)
let reply_payload r = payload (json_of_reply r)
let encode_request r = frame (request_payload r)
let encode_reply r = frame (reply_payload r)

(* ---- strict decoding ---- *)

let field k j = Json.member k j

let int_field k j =
  match field k j with
  | Some (Json.Num f) when Float.is_integer f && Float.abs f <= 2_147_483_647.
    ->
      Ok (int_of_float f)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" k)
  | None -> Error (Printf.sprintf "missing field %S" k)

let str_field k j =
  match field k j with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)
  | None -> Error (Printf.sprintf "missing field %S" k)

let ( let* ) = Result.bind

let decode_payload payload =
  if String.length payload < 1 then Error "empty payload"
  else if payload.[0] <> version then
    Error
      (Printf.sprintf "unsupported protocol version 0x%02x (expected 0x%02x)"
         (Char.code payload.[0]) (Char.code version))
  else
    match Json.of_string (String.sub payload 1 (String.length payload - 1)) with
    | Error msg -> Error ("malformed JSON body: " ^ msg)
    | Ok j -> Ok j

let kernel_of_json j =
  match (field "named" j, field "asm" j) with
  | Some (Json.Str n), None -> Ok (Named n)
  | None, Some (Json.Str text) ->
      let name =
        match field "name" j with Some (Json.Str n) -> n | _ -> "client"
      in
      Ok (Asm { name; text })
  | Some _, Some _ -> Error "kernel must have exactly one of \"named\"/\"asm\""
  | _ -> Error "kernel must be an object with \"named\" or \"asm\""

let decode_select j =
  let* kernel =
    match field "kernel" j with
    | Some k -> kernel_of_json k
    | None -> Error "missing field \"kernel\""
  in
  let* method_ =
    let* m = str_field "method" j in
    match m with
    | "baseline" -> Ok `Baseline
    | "greedy" -> Ok `Greedy
    | "selective" -> Ok `Selective
    | other -> Error (Printf.sprintf "unknown method %S" other)
  in
  let* pfus =
    match field "pfus" j with
    | None -> Ok (Some 2)
    | Some (Json.Str "unlimited") -> Ok None
    | Some (Json.Num f) when Float.is_integer f -> Ok (Some (int_of_float f))
    | Some _ -> Error "field \"pfus\" must be an integer or \"unlimited\""
  in
  let* penalty =
    match field "penalty" j with None -> Ok 10 | Some _ -> int_field "penalty" j
  in
  let* max_cycles =
    match field "max_cycles" j with
    | None -> Ok None
    | Some _ -> Result.map Option.some (int_field "max_cycles" j)
  in
  let* deadline_ms =
    match field "deadline_ms" j with
    | None -> Ok None
    | Some (Json.Num f) -> Ok (Some f)
    | Some _ -> Error "field \"deadline_ms\" must be a number"
  in
  Ok { kernel; method_; pfus; penalty; max_cycles; deadline_ms }

let decode_request payload =
  let* j = decode_payload payload in
  let* id = int_field "id" j in
  let* op = str_field "op" j in
  match op with
  | "ping" -> Ok { id; body = `Ping }
  | "select" ->
      let* s = decode_select j in
      Ok { id; body = `Select s }
  | other -> Error (Printf.sprintf "unknown op %S" other)

let decode_outcome j =
  let* speedup =
    match field "speedup" j with
    | Some (Json.Num f) -> Ok f
    | _ -> Error "missing or ill-typed field \"speedup\""
  in
  let* cycles = int_field "cycles" j in
  let* baseline_cycles = int_field "baseline_cycles" j in
  let* ext_count = int_field "ext_count" j in
  let* lut_cost = int_field "lut_cost" j in
  let* cached =
    match field "cached" j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "missing or ill-typed field \"cached\""
  in
  Ok { speedup; cycles; baseline_cycles; ext_count; lut_cost; cached }

let decode_reply payload =
  let* j = decode_payload payload in
  let* rid = int_field "id" j in
  let* status = str_field "status" j in
  match status with
  | "pong" -> Ok { rid; body = `Pong }
  | "ok" ->
      let* o = decode_outcome j in
      Ok { rid; body = `Outcome o }
  | "error" ->
      let* code_s = str_field "code" j in
      let* message = str_field "message" j in
      let* code =
        match code_of_string code_s with
        | Some c -> Ok c
        | None -> Error (Printf.sprintf "unknown error code %S" code_s)
      in
      Ok { rid; body = `Error (code, message) }
  | other -> Error (Printf.sprintf "unknown status %S" other)

(* ---- framed I/O ---- *)

type io_error =
  [ `Eof
  | `Truncated of string
  | `Oversized of int
  | `Timeout
  | `Io of string ]

let pp_io_error ppf = function
  | `Eof -> Format.pp_print_string ppf "connection closed"
  | `Truncated m -> Format.fprintf ppf "truncated frame: %s" m
  | `Oversized n -> Format.fprintf ppf "oversized frame: %d bytes" n
  | `Timeout -> Format.pp_print_string ppf "receive timeout"
  | `Io m -> Format.fprintf ppf "socket error: %s" m

(* Read exactly [len] bytes; [`Short n] when the peer closed after [n]
   of them. *)
let rec read_exactly fd buf off len =
  if len = 0 then Ok ()
  else
    match Unix.read fd buf off len with
    | 0 -> Error (`Short off)
    | n -> read_exactly fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        read_exactly fd buf off len
    | exception Unix.Unix_error (e, _, _) -> Error (`Unix e)

let input_frame fd =
  let hdr = Bytes.create 4 in
  (* The first header byte distinguishes a clean close (EOF between
     frames) from a mid-frame disconnect — and, on a socket with a
     receive timeout, a clean [`Timeout] (no frame started yet; the
     stream is still frame-aligned and the connection reusable) from a
     timeout mid-frame (stream desynchronized, connection unusable). *)
  match Unix.read fd hdr 0 1 with
  | 0 -> Error `Eof
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Error (`Io "interrupted")
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Error `Timeout
  | exception Unix.Unix_error (e, _, _) -> Error (`Io (Unix.error_message e))
  | _ -> (
      match read_exactly fd hdr 1 3 with
      | Error (`Short n) ->
          Error
            (`Truncated
               (Printf.sprintf "disconnect after %d of 4 header bytes" n))
      | Error (`Unix (Unix.EAGAIN | Unix.EWOULDBLOCK)) ->
          Error (`Io "receive timeout mid-frame")
      | Error (`Unix e) -> Error (`Io (Unix.error_message e))
      | Ok () -> (
          let len =
            (Char.code (Bytes.get hdr 0) lsl 24)
            lor (Char.code (Bytes.get hdr 1) lsl 16)
            lor (Char.code (Bytes.get hdr 2) lsl 8)
            lor Char.code (Bytes.get hdr 3)
          in
          if len <= 0 || len > max_frame then Error (`Oversized len)
          else
            let payload = Bytes.create len in
            match read_exactly fd payload 0 len with
            | Error (`Short n) ->
                Error
                  (`Truncated
                     (Printf.sprintf
                        "disconnect after %d of %d payload bytes" n len))
            | Error (`Unix (Unix.EAGAIN | Unix.EWOULDBLOCK)) ->
                Error (`Io "receive timeout mid-frame")
            | Error (`Unix e) -> Error (`Io (Unix.error_message e))
            | Ok () -> Ok (Bytes.to_string payload)))

let output_frame fd payload =
  let data = Bytes.of_string (frame payload) in
  let total = Bytes.length data in
  let rec write off =
    if off >= total then Ok ()
    else
      match Unix.write fd data off (total - off) with
      | n -> write (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write off
      | exception Unix.Unix_error (e, _, _) ->
          Error (Unix.error_message e)
  in
  write 0
