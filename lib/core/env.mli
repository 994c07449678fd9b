(** Every [T1000_*] environment knob, parsed in one place.

    Each knob has one accessor, and it reads the variable on every
    call: tests flip variables around a call, and the CLI [putenv]s
    [T1000_NJOBS], [T1000_SELFCHECK] and [T1000_BPRED] from its flags
    before the worker domains start.  The rules are the same for every
    knob:
    - the value is trimmed, and blank means unset (the default);
    - a bad value raises {!Fault.Error} with [Invalid_config], which
      the CLI and bench map to exit code 2.

    {!validate} reads every knob once, so a command can fail fast on a
    bad value before it computes anything.

    {1 The knobs}

    {v
    name                        type       default             meaning
    T1000_NJOBS                 int >= 1   recommended domains worker domains of the engine and the daemon
    T1000_WORKLOADS             names      the whole suite     comma-separated subset of the registry
    T1000_MAX_CYCLES            int >= 1   none                simulator cycle budget; beats every Mconfig
    T1000_SELFCHECK             bool       false               Runner.setup's self-check default
    T1000_METRICS               bool       false               CLI dumps the metric snapshot at exit
    T1000_BPRED                 predictor  perfect             Runner.setup's branch predictor
    T1000_CHAOS                 [0, 1)     0 (off)             pool fault-injection probability
    T1000_CHAOS_SEED            int        1                   seed of the chaos hash
    T1000_RETRIES               int >= 0   none (pool default) transient-fault retries per task
    T1000_BACKOFF_SCALE         float >= 0 1                   multiplier on the retry backoff (0 = no sleep)
    T1000_CHECKPOINT_DIR        directory  none                checkpoint journal directory
    T1000_FAULT_INJECT          name       none                workload whose tasks fail, or fuzz-oracle
    T1000_MEMO_CAP              int >= 1   Memo.default_cap    LRU cap of each serve memo table
    T1000_SERVE_QUEUE           int >= 1   64                  daemon admission queue depth
    T1000_SERVE_DEADLINE_MS     float > 0  none                default per-request deadline (ms)
    T1000_SERVE_ADDR            address    none                daemon listen / client connect address
    T1000_SERVE_BENCH_REQUESTS  int >= 1   8                   requests per client in bench serve
    v}

    A boolean is [0]/[false]/[no] or [1]/[true]/[yes], in any case.  A
    predictor is one {!T1000_bpred.Predictor.spec_of_string} accepts.
    An address is [unix:PATH] or [tcp:HOST:PORT] ({!parse_addr}). *)

val njobs : unit -> int
(** [T1000_NJOBS], else [Domain.recommended_domain_count ()]. *)

val workloads : unit -> T1000_workloads.Workload.t list
(** [T1000_WORKLOADS] resolved against the registry, in the order
    given; the whole suite when unset or when it names nothing. *)

val max_cycles : unit -> int option
(** [T1000_MAX_CYCLES]. *)

val apply_max_cycles : T1000_ooo.Mconfig.t -> T1000_ooo.Mconfig.t
(** The machine with [T1000_MAX_CYCLES], when set, as its cycle
    budget.  {!Runner.run} and the CLI's [replay] apply it to the
    machine they simulate, so the variable beats every configured
    budget, a serve request's included. *)

val selfcheck : unit -> bool
(** [T1000_SELFCHECK]. *)

val metrics : unit -> bool
(** [T1000_METRICS]. *)

val bpred : unit -> T1000_bpred.Predictor.spec
(** [T1000_BPRED], else [Perfect]. *)

val chaos : unit -> float
(** [T1000_CHAOS], else [0.0] (chaos off). *)

val chaos_seed : unit -> int
(** [T1000_CHAOS_SEED], else [1]. *)

val retries : unit -> int option
(** [T1000_RETRIES]; [None] leaves the pool's own default. *)

val backoff_scale : unit -> float
(** [T1000_BACKOFF_SCALE], else [1.0]. *)

val checkpoint_dir : unit -> string option
(** [T1000_CHECKPOINT_DIR].  A missing directory is fine (it is
    created on demand); a path naming an existing file is rejected. *)

val fault_inject : unit -> string option
(** [T1000_FAULT_INJECT]: a registry workload whose every experiment
    task raises [Fault.Injected], or [fuzz-oracle], which arms the fuzz
    oracle's deliberate bug.  Any other name is rejected. *)

val memo_cap : unit -> int
(** [T1000_MEMO_CAP], else {!Memo.default_cap}. *)

val serve_queue : unit -> int
(** [T1000_SERVE_QUEUE], else [64]. *)

val serve_deadline_ms : unit -> float option
(** [T1000_SERVE_DEADLINE_MS]. *)

type addr = Unix_sock of string | Tcp of string * int
(** A daemon endpoint. *)

val parse_addr : string -> (addr, string) result
(** ["unix:PATH"] or ["tcp:HOST:PORT"]. *)

val addr_to_string : addr -> string

val serve_addr : unit -> addr option
(** [T1000_SERVE_ADDR]. *)

val serve_bench_requests : unit -> int
(** [T1000_SERVE_BENCH_REQUESTS], else [8]. *)

val knobs : (string * (unit -> unit)) list
(** Every knob above, by name, with a check that reads it (and raises
    as its accessor does). *)

val validate : unit -> unit
(** Run every check in {!knobs}.
    @raise Fault.Error with [Invalid_config] on the first bad value. *)
