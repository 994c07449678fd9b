(** Wire protocol of the selection-as-a-service daemon ([t1000 serve]).

    Frames are length-prefixed: a 4-byte big-endian payload length,
    then the payload.  The payload's first byte is the protocol
    version ({!version}); the rest is one RFC-8259 JSON document
    ({!T1000_obs.Json}).  Length-prefixing makes truncation detectable
    (a mid-frame disconnect is a typed {!io_error}, never a hang), the
    version byte makes incompatible clients fail fast, and the
    {!max_frame} cap bounds what a malicious length field can make the
    server allocate.

    A request either pings the server or submits a kernel — named from
    the benchmark registry, or client-supplied assembler source parsed
    by {!T1000_asm.Asm_text} — together with a selection setup and
    optional deadline/cycle budgets.  A reply is a selection outcome or
    a typed error; the error codes mirror the {!T1000.Fault} taxonomy
    so a client can distinguish shedding ([Overloaded]) from a deadline
    ([Timeout]) from a caller error ([Invalid]). *)

(** The kernel a request asks the server to run selection on. *)
type kernel =
  | Named of string  (** a benchmark from {!T1000_workloads.Registry} *)
  | Asm of { name : string; text : string }
      (** client-supplied assembler source ({!T1000_asm.Asm_text}
          format); runs with zeroed registers/memory and an empty
          output region *)

(** A selection request: the paper's profile → select → verify → sim
    pipeline, parameterized like the CLI's [run] command. *)
type select = {
  kernel : kernel;
  method_ : [ `Baseline | `Greedy | `Selective ];
  pfus : int option;  (** [None] = unlimited *)
  penalty : int;  (** PFU reconfiguration cycles *)
  max_cycles : int option;
      (** per-request simulator watchdog budget; the sim's
          {!T1000_ooo.Sim.Sim_stuck} diagnostic snapshot comes back in
          the [Timeout] reply when it trips *)
  deadline_ms : float option;
      (** per-request wall-clock deadline, enforced server-side *)
}

type request = { id : int; body : [ `Ping | `Select of select ] }

(** A successful selection outcome. *)
type outcome = {
  speedup : float;  (** over the same machine without PFUs *)
  cycles : int;
  baseline_cycles : int;
  ext_count : int;  (** extended instructions chosen *)
  lut_cost : int;  (** summed LUT cost of the chosen table *)
  cached : bool;  (** served from the cross-request result cache *)
}

type error_code =
  | Overloaded  (** admission queue full, or the server is draining *)
  | Timeout  (** deadline or simulator cycle budget exceeded *)
  | Invalid  (** caller error: unknown workload, bad setup field *)
  | Malformed  (** undecodable request (version/JSON/fields) *)
  | Faulted  (** any other classified {!T1000.Fault} *)

type reply_body =
  [ `Pong
  | `Outcome of outcome
  | `Error of error_code * string ]

type reply = { rid : int; body : reply_body }

val version : char
val max_frame : int
(** Hard cap on payload size (1 MiB); larger length prefixes are
    rejected without allocating. *)

val string_of_code : error_code -> string
val code_of_string : string -> error_code option

val error_of_fault : T1000.Fault.t -> error_code * string
(** Map a classified fault onto the wire error taxonomy: [Overloaded]
    and [Deadline_exceeded]/[Sim_stuck] keep their own codes (the
    latter's message carries the RUU/PFU diagnostic snapshot),
    [Invalid_config] becomes [Invalid], everything else [Faulted]. *)

(** {1 Encoding} *)

val encode_request : request -> string
(** The complete frame: length prefix, version byte, JSON body. *)

val encode_reply : reply -> string

val request_payload : request -> string
(** The frame payload alone (version byte + JSON body, no length
    prefix) — what {!output_frame} expects. *)

val reply_payload : reply -> string

val decode_request : string -> (request, string) result
(** Strict decode of a frame {e payload} (without the length prefix):
    wrong version byte, malformed JSON, missing or ill-typed fields are
    all [Error]. *)

val decode_reply : string -> (reply, string) result

(** {1 Framed I/O} *)

type io_error =
  [ `Eof  (** clean close between frames *)
  | `Truncated of string  (** disconnect mid-frame *)
  | `Oversized of int  (** length prefix beyond {!max_frame} *)
  | `Timeout
    (** [SO_RCVTIMEO] fired between frames; the stream is still
        frame-aligned, so the connection remains usable *)
  | `Io of string  (** socket error (a timeout {e mid}-frame is [`Io]:
        the stream is desynchronized and the connection unusable) *) ]

val pp_io_error : Format.formatter -> io_error -> unit

val input_frame : Unix.file_descr -> (string, io_error) result
(** Read one frame; returns the payload (version byte included). *)

val output_frame : Unix.file_descr -> string -> (unit, string) result
(** Write [payload] as one frame (the length prefix is added here);
    [Error] on a closed or broken peer instead of an exception. *)

val frame : string -> string
(** [frame payload] is the length prefix followed by [payload] — the
    raw framing step, exposed for codec tests. *)
