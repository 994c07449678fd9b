(** Entry point of the [t1000] library.

    - {!Runner} — run a workload under a named configuration
      (baseline / greedy / selective x PFU count x penalty);
    - {!Experiment} — drivers that regenerate every figure and table of
      the paper, plus the ablations listed in DESIGN.md;
    - {!Report} — text rendering of experiment results, and the
      registry of every paper artifact and ablation;
    - {!Pool} — the [Domain]-based worker pool the experiment engine
      fans sweeps out on ([T1000_NJOBS] workers);
    - {!Memo} — the compute-once memo table backing the analysis,
      baseline and selection caches;
    - {!Fault} — the typed fault taxonomy the fault-isolated drivers
      classify per-point failures into;
    - {!Checkpoint} — the checkpoint/resume journal behind the
      drivers' [?journal] argument;
    - {!Env} — every [T1000_*] environment knob, parsed and validated
      in one place;
    - {!Obs} — the deterministic telemetry subsystem (metrics, spans,
      Chrome-trace export); strictly observational, never on stdout. *)

module Runner = Runner
module Experiment = Experiment
module Report = Report
module Pool = Pool
module Memo = Memo
module Fault = Fault
module Checkpoint = Checkpoint
module Env = Env
module Obs = T1000_obs
