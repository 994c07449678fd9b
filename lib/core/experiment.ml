open T1000_ooo
open T1000_workloads

(* Selection-cache key: the selection-relevant subset of a
   Runner.setup.  Penalty, replacement policy, timing model, prefetch
   and machine shape all affect only the simulation, not which table
   Runner.select_table returns, so sweeps over those parameters share
   one cached table per workload. *)
type sel_key =
  | Kgreedy of T1000_dfg.Extract.config * int
  | Kselective of T1000_dfg.Extract.config * float * int * int option

let sel_key (s : Runner.setup) =
  match s.Runner.method_ with
  | Runner.Baseline -> None
  | Runner.Greedy -> Some (Kgreedy (s.Runner.extract, s.Runner.lut_budget))
  | Runner.Selective ->
      Some
        (Kselective
           ( s.Runner.extract,
             s.Runner.gain_threshold,
             s.Runner.lut_budget,
             s.Runner.n_pfus ))

type ctx = {
  suite : Workload.t list;
  analyses : (string, Runner.analysis) Memo.t;
  baselines : (string * Mconfig.t, Runner.run) Memo.t;
  tables : (string * sel_key, T1000_select.Extinstr.t) Memo.t;
}

let create_ctx ?(workloads = Registry.all) () =
  {
    suite = workloads;
    analyses = Memo.create ~name:"analysis" 8;
    baselines = Memo.create ~name:"baseline" 8;
    tables = Memo.create ~name:"tables" 32;
  }

let workloads ctx = ctx.suite

let analysis ctx (w : Workload.t) =
  Memo.find_or_compute ctx.analyses w.Workload.name (fun () -> Runner.analyze w)

let baseline_for ctx (w : Workload.t) machine =
  Memo.find_or_compute ctx.baselines
    (w.Workload.name, machine)
    (fun () ->
      Runner.run ~analysis:(analysis ctx w) w
        { (Runner.setup Runner.Baseline) with Runner.machine })

let baseline ctx (w : Workload.t) = baseline_for ctx w Mconfig.default

let baseline_stats ctx w = (baseline ctx w).Runner.stats

let selection_table ctx (w : Workload.t) s =
  match sel_key s with
  | None -> T1000_select.Extinstr.empty
  | Some k ->
      Memo.find_or_compute ctx.tables
        (w.Workload.name, k)
        (fun () -> Runner.select_table s (analysis ctx w))

let run_setup ctx (w : Workload.t) s =
  Runner.run ~analysis:(analysis ctx w) ~table:(selection_table ctx w s) w s

let speedup_of ctx w setup =
  let r = run_setup ctx w setup in
  Runner.speedup ~baseline:(baseline ctx w) r

(* -------- fault-isolated fan-out over (workload x point) tasks -------- *)

type point_fault = {
  fault_workload : string;
  fault_point : string;
  fault : Fault.t;
}

type 'row partial = { rows : 'row list; faults : point_fault list }

(* Rows-or-raise: the first fault as an exception, for callers that
   want a sweep to abort rather than come back partial. *)
let strict (p : 'row partial) =
  match p.faults with
  | [] -> p.rows
  | { fault; _ } :: _ -> raise (Fault.Error fault)

(* Evaluate [eval w p] for every (w, p) task of every group, fanned out
   over the worker pool as independent tasks, and settle each group: all
   of its values in task order, or a [point_fault] for each task that
   raised.  A fault poisons only its own group.  Determinism: every task
   is a pure function of (w, p) — the shared memo tables only change
   *when* a value is computed, never what it is — so the outcome is
   identical at any worker count.

   With [?journal], completed values are recorded under [key w p] as
   they arrive and previously recorded ones are served from the journal
   without recomputation ([on_cached] is called for each); because
   marshalled OCaml values round-trip exactly, a resumed run settles
   byte-identically to an uninterrupted one. *)
let fan_out ?journal ?(on_cached = ignore) ~key ~label groups eval =
  let inject = Env.fault_inject () in
  let eval_task ((w : Workload.t), p) =
    (match inject with
    | Some name when name = w.Workload.name ->
        raise
          (Fault.Error
             (Fault.Injected
                (Printf.sprintf "T1000_FAULT_INJECT=%s hit point %s" name
                   (key w p))))
    | Some _ | None -> ());
    eval w p
  in
  let tasks = List.concat groups in
  let results =
    match journal with
    | None -> Pool.parallel_map_result eval_task tasks
    | Some j ->
        let task_arr = Array.of_list tasks in
        let out = Array.make (Array.length task_arr) None in
        let todo = ref [] in
        Array.iteri
          (fun i (w, p) ->
            match Checkpoint.find j ~key:(key w p) with
            | Some v ->
                on_cached ();
                out.(i) <- Some (Ok v)
            | None -> todo := i :: !todo)
          task_arr;
        let todo = Array.of_list (List.rev !todo) in
        Pool.parallel_map_result
          ~on_result:(fun k r ->
            match r with
            | Ok v ->
                let w, p = task_arr.(todo.(k)) in
                Checkpoint.record j ~key:(key w p) v
            | Error _ -> ())
          (fun i -> eval_task task_arr.(i))
          (Array.to_list todo)
        |> List.iteri (fun k r -> out.(todo.(k)) <- Some r);
        Array.to_list
          (Array.map (function Some r -> r | None -> assert false) out)
  in
  (* Hand each group back its own results, in task order. *)
  let settle rest group =
    let rest, rs =
      List.fold_left_map (fun rs _ -> (List.tl rs, List.hd rs)) rest group
    in
    let faults =
      List.filter_map
        (fun (((w : Workload.t), p), r) ->
          match r with
          | Ok _ -> None
          | Error fault ->
              Some
                {
                  fault_workload = w.Workload.name;
                  fault_point = label p;
                  fault;
                })
        (List.combine group rs)
    in
    ( rest,
      match faults with
      | [] -> Ok (List.map Result.get_ok rs)
      | _ -> Error faults )
  in
  snd (List.fold_left_map settle results groups)

(* One [row w values] per workload of the suite over the same [points],
   journaled under [id/workload/label]: the rows of every workload whose
   points all succeeded, in suite order, plus the faults of the rest. *)
let map_partial ?journal ~id ~label ~row ctx points eval =
  T1000_obs.Tracer.with_span ~cat:"experiment" ("experiment." ^ id)
  @@ fun () ->
  T1000_obs.Metrics.time ("experiment." ^ id)
  @@ fun () ->
  let outcomes =
    fan_out ?journal
      ~key:(fun (w : Workload.t) p ->
        Printf.sprintf "%s/%s/%s" id w.Workload.name (label p))
      ~label
      (List.map (fun w -> List.map (fun p -> (w, p)) points) ctx.suite)
      eval
  in
  List.fold_right2
    (fun w o p ->
      match o with
      | Ok vs -> { p with rows = row w vs :: p.rows }
      | Error fs -> { p with faults = fs @ p.faults })
    ctx.suite outcomes { rows = []; faults = [] }

(* -------- Figure 2 -------- *)

type f2_row = {
  f2_name : string;
  f2_greedy_unlimited : float;
  f2_greedy_2pfu : float;
}

let figure2 ?journal ctx =
  let points =
    [
      ("greedy-unlimited", Runner.setup ~n_pfus:None ~penalty:0 Runner.Greedy);
      ("greedy-2pfu", Runner.setup ~n_pfus:(Some 2) ~penalty:10 Runner.Greedy);
    ]
  in
  map_partial ?journal ~id:"figure2" ~label:fst ctx points
    ~row:(fun (w : Workload.t) -> function
      | [ unlimited; two_pfu ] ->
          {
            f2_name = w.Workload.name;
            f2_greedy_unlimited = unlimited;
            f2_greedy_2pfu = two_pfu;
          }
      | _ -> assert false)
    (fun w (_, s) -> speedup_of ctx w s)

(* -------- Section 4.1 table -------- *)

type t41_row = {
  t41_name : string;
  t41_distinct : int;
  t41_shortest : int;
  t41_longest : int;
  t41_occurrences : int;
}

let table41 ?journal ctx =
  map_partial ?journal ~id:"table41" ~label:fst ctx
    [ ("greedy", ()) ]
    ~row:(fun _ -> function [ row ] -> row | _ -> assert false)
    (fun (w : Workload.t) (_, ()) ->
      let table =
        selection_table ctx w (Runner.setup ~n_pfus:None Runner.Greedy)
      in
      let entries = T1000_select.Extinstr.entries table in
      let sizes =
        List.map
          (fun e -> T1000_dfg.Dfg.size e.T1000_select.Extinstr.dfg)
          entries
      in
      {
        t41_name = w.Workload.name;
        t41_distinct = List.length entries;
        (* An empty selection has no shortest/longest sequence; report
           0 rather than the fold seeds (max_int / 0). *)
        t41_shortest =
          (match sizes with
          | [] -> 0
          | _ -> List.fold_left min max_int sizes);
        t41_longest = List.fold_left max 0 sizes;
        t41_occurrences = T1000_select.Extinstr.total_occurrences table;
      })

(* -------- Figure 6 -------- *)

type f6_row = {
  f6_name : string;
  f6_sel_2 : float;
  f6_sel_4 : float;
  f6_sel_unlimited : float;
}

let figure6 ?journal ctx =
  let sel n = Runner.setup ~n_pfus:n ~penalty:10 Runner.Selective in
  let points =
    [ ("2", sel (Some 2)); ("4", sel (Some 4)); ("unlimited", sel None) ]
  in
  map_partial ?journal ~id:"figure6" ~label:fst ctx points
    ~row:(fun (w : Workload.t) -> function
      | [ two; four; unlimited ] ->
          {
            f6_name = w.Workload.name;
            f6_sel_2 = two;
            f6_sel_4 = four;
            f6_sel_unlimited = unlimited;
          }
      | _ -> assert false)
    (fun w (_, s) -> speedup_of ctx w s)

(* -------- Section 5.2 penalty sweep -------- *)

type s52_row = {
  s52_name : string;
  s52_points : (int * float * float) list;
}

let penalty_sweep ?journal ?(penalties = [ 10; 50; 100; 250; 500 ]) ctx =
  map_partial ?journal ~id:"s52" ~label:string_of_int ctx penalties
    ~row:(fun (w : Workload.t) points ->
      { s52_name = w.Workload.name; s52_points = points })
    (fun w p ->
      ( p,
        speedup_of ctx w
          (Runner.setup ~n_pfus:(Some 2) ~penalty:p Runner.Selective),
        speedup_of ctx w
          (Runner.setup ~n_pfus:(Some 2) ~penalty:p Runner.Greedy) ))

(* -------- Figure 7 -------- *)

type f7_result = {
  f7_costs : (string * int list) list;
  f7_histogram : T1000_hwcost.Area.t;
  f7_max : int;
}

let figure7 ?journal ctx =
  let p =
    map_partial ?journal ~id:"figure7" ~label:fst ctx
      [ ("costs", ()) ]
      ~row:(fun (w : Workload.t) -> function
        | [ cs ] -> (w.Workload.name, cs)
        | _ -> assert false)
      (fun (w : Workload.t) (_, ()) ->
        let r =
          run_setup ctx w (Runner.setup ~n_pfus:(Some 4) Runner.Selective)
        in
        List.map
          (fun e -> e.T1000_select.Extinstr.lut_cost)
          (T1000_select.Extinstr.entries r.Runner.table))
  in
  let all = List.concat_map snd p.rows in
  ( {
      f7_costs = p.rows;
      f7_histogram = T1000_hwcost.Area.histogram all;
      f7_max = List.fold_left max 0 all;
    },
    p.faults )

(* -------- Ablations -------- *)

type sweep_row = {
  sweep_name : string;
  sweep_points : (string * float) list;
}

(* Sweeps that report (label, speedup) points per workload.  The point
   payload never enters the journal key — only its label does — so the
   (label, payload) pairs must have distinct labels within a sweep. *)
let sweep_partial ?journal ~id ctx points eval =
  map_partial ?journal ~id ~label:fst ctx points
    ~row:(fun (w : Workload.t) vs ->
      {
        sweep_name = w.Workload.name;
        sweep_points = List.map2 (fun (l, _) v -> (l, v)) points vs;
      })
    (fun w (_, p) -> eval w p)

let pfu_count_sweep ?journal ctx =
  sweep_partial ?journal ~id:"a1" ctx
    (List.map (fun n -> (string_of_int n, n)) [ 1; 2; 3; 4; 6; 8 ])
    (fun w n ->
      speedup_of ctx w (Runner.setup ~n_pfus:(Some n) Runner.Selective))

let width_threshold_sweep ?journal ctx =
  sweep_partial ?journal ~id:"a2" ctx
    (List.map (fun n -> (string_of_int n, n)) [ 8; 12; 18; 24; 32 ])
    (fun w width ->
      let s = Runner.setup ~n_pfus:None ~penalty:0 Runner.Greedy in
      let s =
        {
          s with
          Runner.extract =
            { s.Runner.extract with T1000_dfg.Extract.width_threshold = width };
        }
      in
      speedup_of ctx w s)

let gain_threshold_sweep ?journal ctx =
  sweep_partial ?journal ~id:"a3" ctx
    (List.map
       (fun th -> (Printf.sprintf "%.3f" th, th))
       [ 0.001; 0.005; 0.02 ])
    (fun w th ->
      let s = Runner.setup ~n_pfus:(Some 2) Runner.Selective in
      let s = { s with Runner.gain_threshold = th } in
      speedup_of ctx w s)

let replacement_sweep ?journal ctx =
  let policies =
    [
      ("lru", Mconfig.Lru);
      ("fifo", Mconfig.Fifo);
      ("rand", Mconfig.Random_det);
    ]
  in
  sweep_partial ?journal ~id:"a4" ctx policies (fun w pol ->
      let s = Runner.setup ~n_pfus:(Some 2) Runner.Selective in
      let s = { s with Runner.replacement = pol } in
      speedup_of ctx w s)

let machine_sweep ?journal ctx =
  let machines =
    [
      ( "2-wide/ruu32",
        {
          Mconfig.default with
          Mconfig.fetch_width = 2;
          decode_width = 2;
          issue_width = 2;
          commit_width = 2;
          ruu_size = 32;
          n_int_alu = 2;
          n_mem_ports = 1;
        } );
      ("4-wide/ruu64", Mconfig.default);
      ( "8-wide/ruu128",
        {
          Mconfig.default with
          Mconfig.fetch_width = 8;
          decode_width = 8;
          issue_width = 8;
          commit_width = 8;
          ruu_size = 128;
          n_int_alu = 8;
          n_mem_ports = 4;
        } );
    ]
  in
  sweep_partial ?journal ~id:"a5" ctx machines (fun w m ->
      (* Compare like with like: the no-PFU baseline must run on the
         same machine width. *)
      let sel_setup =
        {
          (Runner.setup ~n_pfus:(Some 4) Runner.Selective) with
          Runner.machine = m;
        }
      in
      let b = baseline_for ctx w m in
      let r = run_setup ctx w sel_setup in
      Runner.speedup ~baseline:b r)

let latency_model_sweep ?journal ctx =
  let models = [ ("1-cycle", `Single_cycle); ("lut-levels", `Lut_levels) ] in
  sweep_partial ?journal ~id:"a6" ctx models (fun w m ->
      let s = Runner.setup ~n_pfus:(Some 4) Runner.Selective in
      let s = { s with Runner.ext_timing = m } in
      speedup_of ctx w s)

let branch_predictor_sweep ?journal ctx =
  (* bimodal with stall-on-mispredict: fetch blocks at a mispredicted
     branch until it resolves, no wrong path is fetched *)
  let machines =
    [
      ("perfect", Mconfig.default);
      ( "bimodal-2k",
        {
          Mconfig.default with
          Mconfig.bpred = T1000_bpred.Predictor.Bimodal 11;
          wrong_path_fetch = false;
        } );
    ]
  in
  sweep_partial ?journal ~id:"a7" ctx machines (fun w machine ->
      let sel_setup =
        {
          (Runner.setup ~n_pfus:(Some 4) Runner.Selective) with
          Runner.machine;
        }
      in
      let b = baseline_for ctx w machine in
      let r = run_setup ctx w sel_setup in
      Runner.speedup ~baseline:b r)

let prefetch_sweep ?journal ctx =
  let points =
    List.concat_map
      (fun pen ->
        List.map
          (fun (label, pf) -> (Printf.sprintf "%d%s" pen label, (pen, pf)))
          [ ("cyc", false); ("cyc+pf", true) ])
      [ 100; 500 ]
  in
  sweep_partial ?journal ~id:"a8" ctx points (fun w (pen, pf) ->
      let s = Runner.setup ~n_pfus:(Some 2) ~penalty:pen Runner.Selective in
      let s = { s with Runner.config_prefetch = pf } in
      speedup_of ctx w s)

let speculation_sweep ?journal ctx =
  let module Bp = T1000_bpred.Predictor in
  let preds =
    [
      ("perfect", Bp.Perfect);
      ("static", Bp.Static);
      ("bim2k", Bp.Bimodal 11);
      ("gsh2k", Bp.Gshare 11);
    ]
  in
  let points =
    List.concat_map
      (fun (pl, bp) ->
        List.map
          (fun (ml, m) -> (Printf.sprintf "%s/%s" pl ml, (bp, m)))
          [ ("gr", Runner.Greedy); ("sel", Runner.Selective) ])
      preds
  in
  sweep_partial ?journal ~id:"a9" ctx points (fun w (bp, m) ->
      (* Like A7, compare like with like: the no-PFU baseline runs
         under the same front-end predictor, so each column isolates
         what speculation does to the PFU gain rather than to the raw
         cycle count.  2 PFUs, not 4: with replacement pressure the
         greedy tables also pay for wrong-path reconfigurations, which
         is exactly the interaction this sweep is after. *)
      let machine = { Mconfig.default with Mconfig.bpred = bp } in
      let s = { (Runner.setup ~n_pfus:(Some 2) m) with Runner.machine } in
      let b = baseline_for ctx w machine in
      let r = run_setup ctx w s in
      Runner.speedup ~baseline:b r)

