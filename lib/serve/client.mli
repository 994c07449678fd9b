(** Blocking client for the [t1000 serve] daemon.

    One connection, synchronous request/reply (the protocol answers in
    order per connection); request ids are assigned here and checked
    against the reply, so a daemon bug that crossed replies between
    requests would surface as a typed error, not silent corruption.
    Concurrency is achieved by opening several clients — the bench load
    generator runs one per simulated tenant thread. *)

type t

val connect : ?timeout_s:float -> Server.addr -> (t, string) result
(** Connect to a daemon.  [Error] (with the connect failure) rather
    than an exception, so load generators can poll for startup.
    [?timeout_s] sets [SO_RCVTIMEO]/[SO_SNDTIMEO] on the socket, which
    bounds every blocking call against a wedged daemon ([t1000 client
    --timeout]).
    @raise Invalid_argument if [timeout_s] is not positive and finite. *)

val request :
  t -> Protocol.select -> (Protocol.reply_body, string) result
(** Submit one selection request and block for its reply.  [Error] only
    for transport-level failures (daemon gone, frame truncated, receive
    timeout, undecodable or mis-addressed reply); application-level
    failures come back as [Ok (`Error (code, msg))]. *)

val ping : t -> (unit, string) result

val close : t -> unit
(** Idempotent. *)
