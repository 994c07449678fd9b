(** Drivers that regenerate every table and figure of the paper, plus
    the DESIGN.md ablations.  Results come back as typed rows; use
    {!Report} to render them in the paper's units (execution-time
    speedup over the no-PFU superscalar, normalized to 1). *)

open T1000_workloads

(** Per-suite memo of analyses, baseline runs and selection tables, so
    a batch of experiments profiles and simulates each workload's
    baseline once and selects each distinct table once.  All memo
    tables are compute-once and domain-safe ({!Memo}): the sweep
    drivers below fan their (workload x configuration) points out over
    the {!Pool} worker pool ([T1000_NJOBS] workers) and still return
    exactly the rows a sequential run returns. *)
type ctx

val create_ctx : ?workloads:Workload.t list -> unit -> ctx
(** Defaults to the full 8-benchmark suite ({!Registry.all}). *)

val workloads : ctx -> Workload.t list
val analysis : ctx -> Workload.t -> Runner.analysis
val baseline : ctx -> Workload.t -> Runner.run
val baseline_stats : ctx -> Workload.t -> T1000_ooo.Stats.t

val baseline_for :
  ctx -> Workload.t -> T1000_ooo.Mconfig.t -> Runner.run
(** The workload's no-PFU baseline on an arbitrary base machine, cached
    per (workload, machine) — what lets a machine-width axis (the A5
    sweep, the {e lib/dse} width axis) compare every configured point
    against a baseline of the same width without re-simulating it per
    point.  {!baseline} is [baseline_for] at {!T1000_ooo.Mconfig.default}. *)

val selection_table :
  ctx -> Workload.t -> Runner.setup -> T1000_select.Extinstr.t
(** The setup's extended-instruction table, cached per workload on the
    selection-relevant subset of the setup ([method_], [n_pfus],
    [extract], [gain_threshold], [lut_budget]).  Two setups differing
    only in simulation parameters (penalty, replacement, timing model,
    machine, prefetch) share the {e physically same} table, so e.g. a
    penalty sweep runs instruction selection once per workload. *)

val run_setup : ctx -> Workload.t -> Runner.setup -> Runner.run
(** {!Runner.run} with the ctx's cached analysis and selection table. *)

val speedup_of : ctx -> Workload.t -> Runner.setup -> float
(** Speedup of [run_setup] over the workload's cached default-machine
    baseline. *)

(** {1 Fault-isolated, checkpointed fan-out}

    Every driver below fans its (workload x point) tasks out through
    {!fan_out}, which never lets a per-point exception abort the sweep:
    each task that raises is classified into the {!Fault} taxonomy, the
    affected workload's row is withheld, and every other row is still
    returned.  {!strict} turns such a partial result back into
    rows-or-raise.

    With [?journal], completed point values are recorded in the
    {!Checkpoint} journal (keyed [id/workload/label]) as they arrive and
    already-recorded points are served from it without recomputation,
    so re-running an interrupted sweep against the same journal resumes
    it — and yields rows byte-identical to an uninterrupted run.

    Test hook: when [T1000_FAULT_INJECT] ({!Env.fault_inject}) names
    a workload, every task of that workload raises
    [Fault.Injected] instead of simulating. *)

type point_fault = {
  fault_workload : string;
  fault_point : string;  (** the point's label within its sweep *)
  fault : Fault.t;
}

(** Rows for every workload whose points all succeeded, plus one
    {!point_fault} per failed (workload x point) task, in suite
    order. *)
type 'row partial = { rows : 'row list; faults : point_fault list }

val strict : 'row partial -> 'row list
(** The rows, or the first fault raised as {!Fault.Error}. *)

val fan_out :
  ?journal:Checkpoint.t ->
  ?on_cached:(unit -> unit) ->
  key:(Workload.t -> 'p -> string) ->
  label:('p -> string) ->
  (Workload.t * 'p) list list ->
  (Workload.t -> 'p -> 'v) ->
  ('v list, point_fault list) result list
(** [fan_out ~key ~label groups eval] evaluates [eval w p] for every
    task of every group as independent {!Pool} tasks and settles each
    group, in order: [Ok] with its values in task order, or [Error]
    with a fault (point [label p]) for each of its tasks that raised.
    The outcome is identical at any worker count.  With [?journal],
    values are recorded under [key w p] as they complete and served
    from the journal on re-run, calling [on_cached] once per served
    task.  The [T1000_FAULT_INJECT] hook applies to every task.  The
    drivers below group by workload; the DSE engine groups by design
    point. *)

(** {1 Figure 2 — greedy selection} *)

type f2_row = {
  f2_name : string;
  f2_greedy_unlimited : float;
      (** unlimited PFUs, zero reconfiguration cost *)
  f2_greedy_2pfu : float;  (** 2 PFUs, 10-cycle penalty (thrashing) *)
}

val figure2 : ?journal:Checkpoint.t -> ctx -> f2_row partial

(** {1 Section 4.1 text table — greedy instruction statistics} *)

type t41_row = {
  t41_name : string;
  t41_distinct : int;  (** distinct extended instructions (paper: 6-43) *)
  t41_shortest : int;
      (** shortest sequence length (paper: 2); 0 when the selection is
          empty *)
  t41_longest : int;
      (** longest sequence length (paper: up to 8); 0 when the
          selection is empty *)
  t41_occurrences : int;  (** static occurrence sites *)
}

val table41 : ?journal:Checkpoint.t -> ctx -> t41_row partial

(** {1 Figure 6 — selective selection} *)

type f6_row = {
  f6_name : string;
  f6_sel_2 : float;
  f6_sel_4 : float;
  f6_sel_unlimited : float;
}

val figure6 : ?journal:Checkpoint.t -> ctx -> f6_row partial

(** {1 Section 5.2 — reconfiguration-penalty sensitivity} *)

type s52_row = {
  s52_name : string;
  s52_points : (int * float * float) list;
      (** (penalty, selective 2-PFU speedup, greedy 2-PFU speedup) *)
}

val penalty_sweep :
  ?journal:Checkpoint.t -> ?penalties:int list -> ctx -> s52_row partial
(** Default penalties: 10, 50, 100, 250, 500 (the paper's claim covers
    up to 500). *)

(** {1 Figure 7 — hardware cost distribution} *)

type f7_result = {
  f7_costs : (string * int list) list;  (** per-benchmark LUT costs *)
  f7_histogram : T1000_hwcost.Area.t;
  f7_max : int;
}

val figure7 : ?journal:Checkpoint.t -> ctx -> f7_result * point_fault list
(** The aggregate is computed over the workloads that succeeded;
    faulted workloads are simply absent from [f7_costs] and the
    histogram. *)

(** {1 Ablations (DESIGN.md A1-A9)} *)

type sweep_row = {
  sweep_name : string;
  sweep_points : (string * float) list;  (** (setting label, speedup) *)
}

val pfu_count_sweep : ?journal:Checkpoint.t -> ctx -> sweep_row partial
(** A1: selective speedup vs number of PFUs (1, 2, 3, 4, 6, 8). *)

val width_threshold_sweep : ?journal:Checkpoint.t -> ctx -> sweep_row partial
(** A2: greedy-unlimited speedup vs candidate bitwidth threshold
    (8, 12, 18, 24, 32). *)

val gain_threshold_sweep : ?journal:Checkpoint.t -> ctx -> sweep_row partial
(** A3: selective 2-PFU speedup vs gain-ratio threshold
    (0.001, 0.005, 0.02). *)

val replacement_sweep : ?journal:Checkpoint.t -> ctx -> sweep_row partial
(** A4: selective 2-PFU speedup under LRU / FIFO / pseudo-random PFU
    replacement. *)

val machine_sweep : ?journal:Checkpoint.t -> ctx -> sweep_row partial
(** A5: selective 4-PFU speedup on narrower/wider machines
    (2-wide/RUU 32, 4-wide/RUU 64, 8-wide/RUU 128). *)

val latency_model_sweep : ?journal:Checkpoint.t -> ctx -> sweep_row partial
(** A6: selective 4-PFU speedup under the paper's single-cycle PFU
    assumption vs the LUT-level delay model
    ({!T1000_hwcost.Lut.latency_estimate}) — the varying-execution-time
    extension the paper suggests in Section 3.1. *)

val branch_predictor_sweep : ?journal:Checkpoint.t -> ctx -> sweep_row partial
(** A7: selective 4-PFU speedup under perfect branch prediction (the
    paper's assumption) vs a 2K-entry bimodal predictor, each against a
    baseline with the same predictor. *)

val prefetch_sweep : ?journal:Checkpoint.t -> ctx -> sweep_row partial
(** A8: selective 2-PFU speedup with and without [cfgld] configuration
    prefetching, at reconfiguration penalties where loop-entry reloads
    start to matter (100 and 500 cycles). *)

val speculation_sweep : ?journal:Checkpoint.t -> ctx -> sweep_row partial
(** A9: greedy vs selective 2-PFU speedup under each speculative
    front-end predictor ({!T1000_bpred.Predictor}: perfect, static,
    2K-entry bimodal and gshare), each column against a no-PFU baseline
    with the same predictor.  Isolates how real branch prediction —
    wrong-path fetch polluting the caches and PFU configuration state,
    squashes wasting issue slots — erodes the extended-instruction
    gain the paper measures under its perfect-fetch assumption. *)
