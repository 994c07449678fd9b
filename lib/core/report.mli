(** Text rendering of experiment results, in the paper's units
    (execution-time speedup normalized to the no-PFU superscalar). *)

val pp_figure2 : Format.formatter -> Experiment.f2_row list -> unit
val pp_table41 : Format.formatter -> Experiment.t41_row list -> unit
val pp_figure6 : Format.formatter -> Experiment.f6_row list -> unit
val pp_penalty_sweep : Format.formatter -> Experiment.s52_row list -> unit
val pp_figure7 : Format.formatter -> Experiment.f7_result -> unit

val pp_sweep :
  title:string ->
  Format.formatter ->
  Experiment.sweep_row list ->
  unit
(** Generic (benchmark x setting) speedup table for the ablations. *)

val pp_faults : Format.formatter -> Experiment.point_fault list -> unit
(** The structured fault report a partial driver result carries: a
    header with the failed-point count, then one line per fault
    ([workload/point: description]). *)

(** {1 Artifact registry}

    Every paper artifact and DESIGN.md ablation, listed once: the CLI's
    [experiment] command, the bench harness and the golden suite all
    iterate this registry. *)

type artifact = {
  id : string;  (** e.g. ["f2"], ["s52"], ["a4"] *)
  banner : string;  (** the bench harness's section heading *)
  render :
    ?journal:Checkpoint.t ->
    Experiment.ctx ->
    string * Experiment.point_fault list;
      (** runs the driver and renders its rows (the text
          [test/golden/<id>.txt] pins), plus the faulted points *)
}

val paper_artifacts : artifact list
(** Figure 2, Section 4.1, Figure 6, Section 5.2 and Figure 7. *)

val ablation_artifacts : artifact list
(** The A1-A9 ablations. *)

val artifacts : artifact list
(** [paper_artifacts @ ablation_artifacts]. *)

val artifact_ids : string list
val find_artifact : string -> artifact option
