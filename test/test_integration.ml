(* End-to-end integration tests: the full profile -> select -> rewrite
   -> simulate pipeline must reproduce the paper's qualitative results
   on at least one benchmark, and the experiment drivers must hold
   their structural invariants on a reduced suite. *)

open T1000
open T1000_ooo

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let workload name = Option.get (T1000_workloads.Registry.find name)

(* Cache runs across test cases: the suite exercises one benchmark under
   several setups. *)
let gsm = lazy (workload "gsm_dec")
let analysis = lazy (Runner.analyze (Lazy.force gsm))

let run_setup setup =
  Runner.run ~analysis:(Lazy.force analysis) (Lazy.force gsm) setup

let baseline = lazy (run_setup (Runner.setup Runner.Baseline))
let greedy_unl = lazy (run_setup (Runner.setup ~n_pfus:None ~penalty:0 Runner.Greedy))
let greedy_2 = lazy (run_setup (Runner.setup ~n_pfus:(Some 2) Runner.Greedy))
let sel_2 = lazy (run_setup (Runner.setup ~n_pfus:(Some 2) Runner.Selective))
let sel_4 = lazy (run_setup (Runner.setup ~n_pfus:(Some 4) Runner.Selective))

let speedup r = Runner.speedup ~baseline:(Lazy.force baseline) (Lazy.force r)

let test_baseline_sanity () =
  let b = Lazy.force baseline in
  check_int "no ext instrs" 0 (T1000_select.Extinstr.count b.Runner.table);
  check_int "no pfu activity" 0 b.Runner.stats.Stats.pfu_misses;
  check_bool "ipc within width" true (b.Runner.stats.Stats.ipc <= 4.0);
  check_bool "committed matches profile" true
    (b.Runner.stats.Stats.committed
    = T1000_profile.Profile.total_instrs
        (Lazy.force analysis).Runner.profile)

let test_greedy_unlimited_speeds_up () =
  check_bool "speedup > 1.2" true (speedup greedy_unl > 1.2)

let test_greedy_2pfu_thrashes () =
  (* the paper's Figure 2 third bar: substantially worse than baseline *)
  check_bool "slower than baseline" true (speedup greedy_2 < 1.0);
  check_bool "reconfigures constantly" true
    ((Lazy.force greedy_2).Runner.stats.Stats.pfu_misses > 1000)

let test_selective_recovers () =
  let s2 = speedup sel_2 in
  check_bool "2 PFUs beat baseline" true (s2 > 1.0);
  check_bool "selective reconfigures rarely" true
    ((Lazy.force sel_2).Runner.stats.Stats.pfu_misses
    < (Lazy.force greedy_2).Runner.stats.Stats.pfu_misses / 10)

let test_four_pfus_close_to_unlimited () =
  let s4 = speedup sel_4 in
  let sunl =
    Runner.speedup ~baseline:(Lazy.force baseline)
      (run_setup (Runner.setup ~n_pfus:None Runner.Selective))
  in
  check_bool "4 PFUs within 5% of unlimited" true (sunl -. s4 < 0.05)

let test_penalty_insensitive () =
  (* the paper: selective speedups survive 500-cycle reconfiguration *)
  let s10 = speedup sel_2 in
  let s500 =
    Runner.speedup ~baseline:(Lazy.force baseline)
      (run_setup (Runner.setup ~n_pfus:(Some 2) ~penalty:500 Runner.Selective))
  in
  check_bool "still profitable at 500 cycles" true (s500 > 1.0);
  check_bool "within 10% of the 10-cycle speedup" true
    (s10 -. s500 < 0.10 *. s10)

let test_config_prefetch_end_to_end () =
  (* enabling cfgld prefetch must keep outputs identical (checked inside
     Runner.run) and never hurt by more than noise *)
  let base = Lazy.force sel_2 in
  let pf =
    run_setup
      {
        (Runner.setup ~n_pfus:(Some 2) ~penalty:500 Runner.Selective) with
        Runner.config_prefetch = true;
      }
  in
  let nopf = run_setup (Runner.setup ~n_pfus:(Some 2) ~penalty:500 Runner.Selective) in
  check_bool "prefetch never slower than 1% worse" true
    (float_of_int pf.Runner.stats.Stats.cycles
    <= 1.01 *. float_of_int nopf.Runner.stats.Stats.cycles);
  check_bool "hints present in the program" true
    (let has_cfgld = ref false in
     T1000_asm.Program.iteri
       (fun _ i ->
         match i with
         | T1000_isa.Instr.Cfgld _ -> has_cfgld := true
         | _ -> ())
       pf.Runner.program;
     !has_cfgld);
  ignore base

let test_selected_instrs_well_formed () =
  List.iter
    (fun (e : T1000_select.Extinstr.entry) ->
      check_bool "fits the PFU" true
        (e.T1000_select.Extinstr.lut_cost <= 150);
      check_bool "single-cycle" true (e.T1000_select.Extinstr.latency = 1);
      let d = e.T1000_select.Extinstr.dfg in
      check_bool "2-8 ops" true
        (T1000_dfg.Dfg.size d >= 2 && T1000_dfg.Dfg.size d <= 8);
      check_bool "at most 2 inputs" true (T1000_dfg.Dfg.n_inputs d <= 2))
    (T1000_select.Extinstr.entries (Lazy.force greedy_unl).Runner.table)

let test_verify_outputs_detects_divergence () =
  (* corrupting the table's semantics must be caught by verify_outputs *)
  let g = Lazy.force greedy_unl in
  let w = Lazy.force gsm in
  check_bool "corrupted table rejected" true
    (match
       (* a program rewritten for the real table, checked against an
          empty table: evaluation will fault or diverge *)
       Runner.verify_outputs w T1000_select.Extinstr.empty g.Runner.program
     with
    | exception _ -> true
    | () -> T1000_select.Extinstr.count g.Runner.table = 0)

(* ---- experiment drivers on a reduced suite (2 benchmarks) ---- *)

let small_ctx =
  lazy
    (Experiment.create_ctx
       ~workloads:[ workload "g721_dec"; workload "mpeg2_enc" ]
       ())

let test_experiment_figure2 () =
  let rows = Experiment.strict (Experiment.figure2 (Lazy.force small_ctx)) in
  check_int "one row per benchmark" 2 (List.length rows);
  List.iter
    (fun (r : Experiment.f2_row) ->
      check_bool "unlimited >= 1" true (r.Experiment.f2_greedy_unlimited >= 1.0);
      check_bool "2-PFU worse than unlimited" true
        (r.Experiment.f2_greedy_2pfu <= r.Experiment.f2_greedy_unlimited))
    rows

let test_experiment_figure6 () =
  let rows = Experiment.strict (Experiment.figure6 (Lazy.force small_ctx)) in
  List.iter
    (fun (r : Experiment.f6_row) ->
      check_bool "selective never hurts" true (r.Experiment.f6_sel_2 >= 0.99);
      check_bool "monotone in PFUs" true
        (r.Experiment.f6_sel_2 <= r.Experiment.f6_sel_4 +. 0.01
        && r.Experiment.f6_sel_4 <= r.Experiment.f6_sel_unlimited +. 0.01))
    rows

let test_experiment_figure7 () =
  let f7, faults = Experiment.figure7 (Lazy.force small_ctx) in
  check_bool "no faults" true (faults = []);
  check_bool "all costs under budget" true (f7.Experiment.f7_max <= 150);
  check_int "per-benchmark cost lists" 2
    (List.length f7.Experiment.f7_costs);
  check_bool "histogram total matches" true
    (f7.Experiment.f7_histogram.T1000_hwcost.Area.total
    = List.length (List.concat_map snd f7.Experiment.f7_costs))

let test_experiment_table41 () =
  let rows = Experiment.strict (Experiment.table41 (Lazy.force small_ctx)) in
  List.iter
    (fun (r : Experiment.t41_row) ->
      check_bool "distinct >= 1" true (r.Experiment.t41_distinct >= 1);
      check_bool "lengths in 2-8" true
        (r.Experiment.t41_shortest >= 2 && r.Experiment.t41_longest <= 8);
      check_bool "occurrences >= distinct" true
        (r.Experiment.t41_occurrences >= r.Experiment.t41_distinct))
    rows

let test_reports_render () =
  let ctx = Lazy.force small_ctx in
  List.iter
    (fun id ->
      match Report.find_artifact id with
      | None -> Alcotest.failf "no artifact %s" id
      | Some a ->
          let s, faults = a.Report.render ctx in
          check_bool "no faults" true (faults = []);
          check_bool "non-empty render" true (String.length s > 50))
    [ "f2"; "f6"; "f7"; "t41" ]

let () =
  Alcotest.run "t1000_integration"
    [
      ( "paper-shape",
        [
          Alcotest.test_case "baseline sanity" `Quick test_baseline_sanity;
          Alcotest.test_case "greedy unlimited speeds up" `Quick
            test_greedy_unlimited_speeds_up;
          Alcotest.test_case "greedy 2-PFU thrashes" `Quick
            test_greedy_2pfu_thrashes;
          Alcotest.test_case "selective recovers" `Quick
            test_selective_recovers;
          Alcotest.test_case "4 PFUs ~ unlimited" `Quick
            test_four_pfus_close_to_unlimited;
          Alcotest.test_case "penalty insensitive" `Quick
            test_penalty_insensitive;
          Alcotest.test_case "selected instrs well-formed" `Quick
            test_selected_instrs_well_formed;
          Alcotest.test_case "config prefetch end-to-end" `Quick
            test_config_prefetch_end_to_end;
          Alcotest.test_case "verification net" `Quick
            test_verify_outputs_detects_divergence;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "figure 2" `Quick test_experiment_figure2;
          Alcotest.test_case "figure 6" `Quick test_experiment_figure6;
          Alcotest.test_case "figure 7" `Quick test_experiment_figure7;
          Alcotest.test_case "table 4.1" `Quick test_experiment_table41;
          Alcotest.test_case "reports render" `Quick test_reports_render;
        ] );
    ]
