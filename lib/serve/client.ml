type t = {
  fd : Unix.file_descr;
  next_id : int ref;
  mutable closed : bool;
}

let connect ?timeout_s addr =
  let sock, sockaddr =
    match addr with
    | Server.Unix_sock path ->
        (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Server.Tcp (host, port) ->
        let ip =
          if host = "localhost" then Unix.inet_addr_loopback
          else Unix.inet_addr_of_string host
        in
        (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0, Unix.ADDR_INET (ip, port))
  in
  match
    Unix.connect sock sockaddr;
    match timeout_s with
    | None -> ()
    | Some s ->
        if not (Float.is_finite s) || s <= 0. then
          invalid_arg "Client.connect: timeout must be positive";
        Unix.setsockopt_float sock Unix.SO_RCVTIMEO s;
        Unix.setsockopt_float sock Unix.SO_SNDTIMEO s
  with
  | () -> Ok { fd = sock; next_id = ref 1; closed = false }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "connect %s: %s"
           (T1000.Env.addr_to_string addr)
           (Unix.error_message e))

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let ( let* ) = Result.bind

let send t ~id body =
  if t.closed then Error "client already closed"
  else Protocol.output_frame t.fd (Protocol.request_payload { Protocol.id; body })

let read_reply t =
  if t.closed then Error (`Io "client already closed")
  else
    let* payload = Protocol.input_frame t.fd in
    Result.map_error
      (fun m -> `Io ("undecodable reply: " ^ m))
      (Protocol.decode_reply payload)

let roundtrip t body =
  let id = !(t.next_id) in
  t.next_id := id + 1;
  let* () = send t ~id body in
  let* reply =
    Result.map_error
      (Format.asprintf "%a" Protocol.pp_io_error)
      (read_reply t)
  in
  (* rid 0 marks a reply to an undecodable request (the daemon could
     not know our id); pass it through so the caller sees the typed
     [Malformed] error. *)
  if reply.Protocol.rid <> id && reply.Protocol.rid <> 0 then
    Error
      (Printf.sprintf "reply id %d does not match request id %d"
         reply.Protocol.rid id)
  else Ok reply.Protocol.body

let request t sel = roundtrip t (`Select sel)

let ping t =
  let* body = roundtrip t `Ping in
  match body with
  | `Pong -> Ok ()
  | `Error (_, msg) -> Error ("ping answered with error: " ^ msg)
  | `Outcome _ -> Error "ping answered with a selection outcome"
