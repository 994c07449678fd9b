(** The selection-as-a-service daemon behind [t1000 serve].

    A long-running server that accepts {!Protocol} frames over Unix and
    TCP sockets, runs the paper's profile → select → verify → simulate
    pipeline per request on a pool of worker domains, and answers with
    the chosen extended instructions' predicted speedup and LUT cost.
    The robustness envelope is the point:

    - {b Backpressure}: admission goes through a bounded {!Squeue};
      when it is full the request is shed with a typed [Overloaded]
      reply immediately — a client is never blocked or silently
      dropped.
    - {b Deadlines}: each request may carry a wall-clock deadline
      (enforced by a server-side timer: the reply is a typed [Timeout]
      whether the request is still queued or already running) and a
      simulator cycle budget (enforced by the existing {!T1000_ooo.Sim}
      watchdog, whose RUU/PFU diagnostic snapshot rides back in the
      reply).
    - {b Fault isolation}: one poisoned request — unknown workload,
      unparsable assembler, invalid setup, stuck simulation, crashed
      worker task — produces a typed error reply for that request only;
      the daemon keeps serving.
    - {b Retry with backoff}: every request runs under
      {!T1000.Pool.run_result}, so transient faults (chaos injection,
      crashes) are retried with capped exponential backoff before an
      error is returned.
    - {b Chaos}: under [T1000_CHAOS] the worker domains are adversarial
      exactly like the experiment pool's — tasks draw deterministic
      injected faults, and a worker can "die" mid-queue, re-queue its
      request at the front and respawn a replacement domain.
    - {b Graceful drain}: {!stop} (wired to SIGTERM by the CLI) stops
      accepting, answers everything already admitted (or deadline-
      cancels it), rejects late arrivals with a typed reply, closes all
      connections, joins every worker and returns — no request is ever
      dropped without a reply.

    Cross-request caching: analyses, baselines, selection tables and
    whole outcomes are shared between requests through {!T1000.Memo}
    tables keyed on the kernel and the setup's selection-relevant
    subset, so repeated tenants get warm-cache latencies (the [cached]
    reply flag tells them). *)

type addr = T1000.Env.addr = Unix_sock of string | Tcp of string * int
(** Parsed and printed by {!T1000.Env.parse_addr} and
    {!T1000.Env.addr_to_string}. *)

type config = {
  addrs : addr list;  (** listen addresses (at least one) *)
  queue_depth : int;  (** bounded admission queue capacity *)
  njobs : int;  (** worker domains *)
  default_deadline_ms : float option;
      (** applied to requests that carry no deadline of their own *)
  retries : int option;
      (** transient-fault retries per request
          ({!T1000.Pool.run_result} default when [None]) *)
  max_steps : int;
      (** functional-execution step cap when profiling and verifying
          client-submitted kernels, so a non-halting program is a typed
          fault, not a wedged worker *)
  memo_cap : int;
      (** LRU capacity of each cross-request memo table; a long-lived
          daemon must not grow without bound *)
}

val default_config : unit -> config
(** Environment-driven defaults ({!T1000.Env}): [T1000_SERVE_ADDR]
    (else no address — {!create} insists the caller names one),
    [T1000_SERVE_QUEUE], [T1000_NJOBS] workers,
    [T1000_SERVE_DEADLINE_MS], 10M functional steps and
    [T1000_MEMO_CAP] memo entries per table. *)

type t

val create : config -> t
(** Bind and listen on every address.  A pre-existing Unix socket file
    is replaced (stale sockets from a killed daemon must not wedge a
    restart); TCP port 0 binds an ephemeral port (see {!bound_addrs}).
    @raise T1000.Fault.Error
      with [Invalid_config] on an empty address list, a non-positive
      queue depth / worker count / deadline, or an unbindable
      address. *)

val bound_addrs : t -> addr list
(** The addresses actually listening, with ephemeral TCP ports
    resolved. *)

val run : t -> unit
(** Serve until {!stop}, then drain and return: every admitted request
    answered, listeners closed (Unix socket paths unlinked), workers
    joined, connections closed.  Call from the thread that created the
    server; telemetry (the [serve.*] metrics) is flushed into
    {!T1000_obs.Metrics} throughout. *)

val stop : t -> unit
(** Initiate graceful drain.  Safe to call from a signal handler or
    any thread; idempotent. *)

val answered : t -> int
(** Requests answered so far (ok, error and shed replies included) —
    the CLI prints this in its drain summary. *)
