let rule ppf width = Format.fprintf ppf "%s@," (String.make width '-')

(* Horizontal bar, 40 columns = [scale] speedup. *)
let bar ppf value scale =
  let cols = int_of_float (value /. scale *. 40.0) in
  let cols = max 0 (min 60 cols) in
  Format.fprintf ppf "|%-40s| %.3f" (String.make cols '#') value

let bar_group ppf ~scale rows =
  List.iter
    (fun (label, series) ->
      List.iteri
        (fun i (name, v) ->
          Format.fprintf ppf "%-10s %-6s " (if i = 0 then label else "") name;
          bar ppf v scale;
          Format.fprintf ppf "@,")
        series;
      Format.fprintf ppf "@,")
    rows


let pp_figure2 ppf rows =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "Figure 2 — greedy selection: speedup over no-PFU superscalar@,";
  rule ppf 66;
  Format.fprintf ppf "%-12s %14s %24s %14s@," "benchmark" "superscalar"
    "T1000 (unlimited, 0cyc)" "T1000 (2 PFU)";
  rule ppf 66;
  List.iter
    (fun (r : Experiment.f2_row) ->
      Format.fprintf ppf "%-12s %14.3f %24.3f %14.3f@," r.Experiment.f2_name
        1.0 r.Experiment.f2_greedy_unlimited r.Experiment.f2_greedy_2pfu)
    rows;
  rule ppf 66;
  Format.fprintf ppf "@,";
  bar_group ppf ~scale:1.5
    (List.map
       (fun (r : Experiment.f2_row) ->
         ( r.Experiment.f2_name,
           [
             ("base", 1.0);
             ("unlim", r.Experiment.f2_greedy_unlimited);
             ("2pfu", r.Experiment.f2_greedy_2pfu);
           ] ))
       rows);
  Format.fprintf ppf "@]"

let pp_table41 ppf rows =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "Section 4.1 — greedy extended-instruction statistics@,";
  rule ppf 64;
  Format.fprintf ppf "%-12s %10s %12s %11s %12s@," "benchmark" "distinct"
    "shortest" "longest" "occurrences";
  rule ppf 64;
  List.iter
    (fun (r : Experiment.t41_row) ->
      Format.fprintf ppf "%-12s %10d %12d %11d %12d@," r.Experiment.t41_name
        r.Experiment.t41_distinct r.Experiment.t41_shortest
        r.Experiment.t41_longest r.Experiment.t41_occurrences)
    rows;
  rule ppf 64;
  Format.fprintf ppf "@]"

let pp_figure6 ppf rows =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "Figure 6 — selective selection (10-cycle reconfiguration)@,";
  rule ppf 64;
  Format.fprintf ppf "%-12s %12s %12s %12s %12s@," "benchmark" "superscalar"
    "2 PFUs" "4 PFUs" "unlimited";
  rule ppf 64;
  List.iter
    (fun (r : Experiment.f6_row) ->
      Format.fprintf ppf "%-12s %12.3f %12.3f %12.3f %12.3f@,"
        r.Experiment.f6_name 1.0 r.Experiment.f6_sel_2 r.Experiment.f6_sel_4
        r.Experiment.f6_sel_unlimited)
    rows;
  rule ppf 64;
  Format.fprintf ppf "@,";
  bar_group ppf ~scale:1.5
    (List.map
       (fun (r : Experiment.f6_row) ->
         ( r.Experiment.f6_name,
           [
             ("base", 1.0);
             ("2pfu", r.Experiment.f6_sel_2);
             ("4pfu", r.Experiment.f6_sel_4);
             ("unlim", r.Experiment.f6_sel_unlimited);
           ] ))
       rows);
  Format.fprintf ppf "@]"

let pp_penalty_sweep ppf rows =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "Section 5.2 — reconfiguration-penalty sensitivity (2 PFUs; \
     selective vs greedy)@,";
  (match rows with
  | [] -> ()
  | r0 :: _ ->
      let width = 14 + (List.length r0.Experiment.s52_points * 14) in
      rule ppf width;
      Format.fprintf ppf "%-14s" "benchmark";
      List.iter
        (fun (p, _, _) -> Format.fprintf ppf "%14s" (string_of_int p ^ "cyc"))
        r0.Experiment.s52_points;
      Format.fprintf ppf "@,";
      rule ppf width;
      List.iter
        (fun (r : Experiment.s52_row) ->
          Format.fprintf ppf "%-14s" (r.Experiment.s52_name ^ " sel");
          List.iter
            (fun (_, s, _) -> Format.fprintf ppf "%14.3f" s)
            r.Experiment.s52_points;
          Format.fprintf ppf "@,";
          Format.fprintf ppf "%-14s" "       greedy";
          List.iter
            (fun (_, _, g) -> Format.fprintf ppf "%14.3f" g)
            r.Experiment.s52_points;
          Format.fprintf ppf "@,")
        rows;
      rule ppf width);
  Format.fprintf ppf "@]"

let pp_figure7 ppf (r : Experiment.f7_result) =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "Figure 7 — hardware cost of selective extended instructions@,";
  List.iter
    (fun (name, costs) ->
      Format.fprintf ppf "%-12s %s@," name
        (String.concat " " (List.map string_of_int (List.sort compare costs))))
    r.Experiment.f7_costs;
  Format.fprintf ppf "@,%a@," T1000_hwcost.Area.pp r.Experiment.f7_histogram;
  Format.fprintf ppf "max cost: %d LUTs (paper: 105; PFU budget: 150)@,"
    r.Experiment.f7_max;
  Format.fprintf ppf "@]"

let pp_sweep ~title ppf rows =
  Format.fprintf ppf "@[<v>%s@," title;
  (match rows with
  | [] -> ()
  | r0 :: _ ->
      let width = 14 + (List.length r0.Experiment.sweep_points * 14) in
      rule ppf width;
      Format.fprintf ppf "%-14s" "benchmark";
      List.iter
        (fun (label, _) -> Format.fprintf ppf "%14s" label)
        r0.Experiment.sweep_points;
      Format.fprintf ppf "@,";
      rule ppf width;
      List.iter
        (fun (r : Experiment.sweep_row) ->
          Format.fprintf ppf "%-14s" r.Experiment.sweep_name;
          List.iter
            (fun (_, s) -> Format.fprintf ppf "%14.3f" s)
            r.Experiment.sweep_points;
          Format.fprintf ppf "@,")
        rows;
      rule ppf width);
  Format.fprintf ppf "@]"

let pp_faults ppf (faults : Experiment.point_fault list) =
  Format.fprintf ppf "@[<v>FAULT REPORT: %d point(s) failed@,"
    (List.length faults);
  List.iter
    (fun (f : Experiment.point_fault) ->
      Format.fprintf ppf "  %s/%s: %a@," f.Experiment.fault_workload
        f.Experiment.fault_point Fault.pp f.Experiment.fault)
    faults;
  Format.fprintf ppf "@]"

(* -------- the artifact registry -------- *)

type artifact = {
  id : string;
  banner : string;
  render :
    ?journal:Checkpoint.t ->
    Experiment.ctx ->
    string * Experiment.point_fault list;
}

let table id banner pp driver =
  {
    id;
    banner;
    render =
      (fun ?journal ctx ->
        let p = driver ?journal ctx in
        (Format.asprintf "%a" pp p.Experiment.rows, p.Experiment.faults));
  }

let sweep id banner title driver = table id banner (pp_sweep ~title) driver

let paper_artifacts =
  [
    table "f2" "F2: Figure 2 (greedy)" pp_figure2 Experiment.figure2;
    table "t41" "T4.1: greedy instruction statistics" pp_table41
      Experiment.table41;
    table "f6" "F6: Figure 6 (selective)" pp_figure6 Experiment.figure6;
    table "s52" "S5.2: reconfiguration-penalty sensitivity" pp_penalty_sweep
      (fun ?journal ctx -> Experiment.penalty_sweep ?journal ctx);
    {
      id = "f7";
      banner = "F7: Figure 7 (LUT cost distribution)";
      render =
        (fun ?journal ctx ->
          let r, faults = Experiment.figure7 ?journal ctx in
          (Format.asprintf "%a" pp_figure7 r, faults));
    };
  ]

let ablation_artifacts =
  [
    sweep "a1" "A1: PFU-count sweep (selective)"
      "selective speedup vs number of PFUs" Experiment.pfu_count_sweep;
    sweep "a2" "A2: bitwidth-threshold sweep (greedy, unlimited)"
      "greedy-unlimited speedup vs width threshold"
      Experiment.width_threshold_sweep;
    sweep "a3" "A3: gain-threshold sweep (selective, 2 PFUs)"
      "selective speedup vs gain-ratio threshold"
      Experiment.gain_threshold_sweep;
    sweep "a4" "A4: PFU replacement policy (selective, 2 PFUs)"
      "selective speedup vs replacement policy" Experiment.replacement_sweep;
    sweep "a5" "A5: machine-width sensitivity (selective, 4 PFUs)"
      "speedup vs machine width (per-width baseline)" Experiment.machine_sweep;
    sweep "a6" "A6: PFU delay model (selective, 4 PFUs)"
      "speedup: single-cycle PFU vs LUT-level delay model"
      Experiment.latency_model_sweep;
    sweep "a7"
      "A7: branch prediction (selective, 4 PFUs, per-predictor baseline)"
      "speedup: perfect vs bimodal branch prediction"
      Experiment.branch_predictor_sweep;
    sweep "a8" "A8: configuration prefetching (selective, 2 PFUs)"
      "speedup with/without cfgld preheader prefetch hints"
      Experiment.prefetch_sweep;
    sweep "a9" "A9: speculative front end (2 PFUs, per-predictor baseline)"
      "greedy vs selective speedup per front-end branch predictor"
      Experiment.speculation_sweep;
  ]

let artifacts = paper_artifacts @ ablation_artifacts
let artifact_ids = List.map (fun a -> a.id) artifacts
let find_artifact id = List.find_opt (fun a -> a.id = id) artifacts
