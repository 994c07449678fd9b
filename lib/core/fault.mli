(** Typed fault taxonomy for the experiment engine.

    A long design-space sweep is a bag of thousands of independent
    (workload x configuration) simulations; any one of them can fail —
    a nonsensical setup, a runaway or deadlocked simulation, a rewriter
    bug caught by output verification, a self-check violation.  Instead
    of letting a raw exception abort the whole figure, the engine
    ({!Pool.parallel_map_result}, the {!Experiment} drivers)
    classifies every per-point exception into this taxonomy, so callers
    receive partial rows plus a structured, renderable fault report. *)

type t =
  | Invalid_config of string
      (** a {!Runner.setup} field or a [T1000_*] environment variable
          is out of range; always a caller error, exit code 2 *)
  | Sim_stuck of T1000_ooo.Sim.stuck
      (** the simulator watchdog fired (cycle budget or forward-progress
          check), with the diagnostic pipeline snapshot *)
  | Selfcheck_failed of string
      (** the opt-in self-check mode found an RUU/PFU-file invariant
          violation or an architectural divergence between the timing
          simulator and the functional interpreter *)
  | Interp_fault of string
      (** architectural fault from the functional interpreter *)
  | Verify_mismatch of string
      (** the rewritten program's functional output diverged from the
          original's ({!Runner.verify_outputs}) *)
  | Injected of string
      (** test-hook fault injected via [T1000_FAULT_INJECT] *)
  | Overloaded of string
      (** admission rejected: the serve daemon's bounded queue was full,
          or the server was draining; the request was never started and
          is safe to retry later *)
  | Deadline_exceeded of string
      (** a per-request deadline expired (in the admission queue or
          while the simulation was running) before a result was ready *)
  | Crashed of { exn : string; backtrace : string }
      (** any other exception, rendered with its backtrace when one was
          recorded *)

exception Error of t
(** The carrier exception.  Registered with {!Printexc} so uncaught
    faults still render readably. *)

val of_exn : ?backtrace:string -> exn -> t
(** Classify an exception: {!Error} unwraps, the known simulator /
    interpreter exceptions map to their variants, anything else becomes
    [Crashed] (carrying [?backtrace] when provided). *)

val invalid_config : ('a, unit, string, 'b) format4 -> 'a
(** [invalid_config fmt ...] raises [Error (Invalid_config msg)]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val transient : t -> bool
(** Whether a fault is plausibly environmental and worth retrying
    ([Injected], [Overloaded] and [Crashed]); the deterministic
    pipeline faults ([Invalid_config], [Sim_stuck], [Selfcheck_failed],
    [Interp_fault], [Verify_mismatch]) and an expired deadline
    ([Deadline_exceeded]) would fail identically on every retry.
    {!Pool.parallel_map_result} and {!Pool.run_result} consult this for
    their retry policy. *)

val exit_code : t -> int
(** Process exit code the CLI maps the fault to: 2 for
    [Invalid_config] (misconfigured run), 3 otherwise (partial
    results). *)
