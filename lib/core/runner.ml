open T1000_asm
open T1000_machine
open T1000_profile
open T1000_select
open T1000_ooo
open T1000_workloads

type method_ =
  | Baseline
  | Greedy
  | Selective

type setup = {
  method_ : method_;
  n_pfus : int option;
  penalty : int;
  replacement : Mconfig.pfu_replacement;
  extract : T1000_dfg.Extract.config;
  gain_threshold : float;
  lut_budget : int;
  ext_timing : [ `Single_cycle | `Lut_levels ];
  config_prefetch : bool;
  machine : Mconfig.t;
  selfcheck : bool;
}

let validate s =
  (match s.n_pfus with
  | Some n when n <= 0 ->
      Fault.invalid_config "n_pfus must be positive (or None for unlimited), got %d" n
  | Some _ | None -> ());
  if s.penalty < 0 then
    Fault.invalid_config "penalty must be non-negative, got %d" s.penalty;
  (* The negated comparison also catches NaN. *)
  if not (s.gain_threshold >= 0.0 && s.gain_threshold <= 1.0) then
    Fault.invalid_config "gain_threshold must be in [0, 1], got %g"
      s.gain_threshold;
  if s.lut_budget <= 0 then
    Fault.invalid_config "lut_budget must be positive, got %d" s.lut_budget;
  (try T1000_bpred.Predictor.validate_spec s.machine.Mconfig.bpred
   with Invalid_argument m -> Fault.invalid_config "%s" m)

let setup ?(n_pfus = Some 2) ?(penalty = 10) ?selfcheck method_ =
  let selfcheck =
    match selfcheck with Some b -> b | None -> Env.selfcheck ()
  in
  let bpred = Env.bpred () in
  let s =
    {
      method_;
      n_pfus;
      penalty;
      replacement = Mconfig.Lru;
      extract = T1000_dfg.Extract.default_config;
      gain_threshold = 0.005;
      lut_budget = T1000_hwcost.Lut.default_budget;
      ext_timing = `Single_cycle;
      config_prefetch = false;
      machine = { Mconfig.default with Mconfig.bpred };
      selfcheck;
    }
  in
  validate s;
  s

type analysis = {
  profile : Profile.t;
  cfg : Cfg.t;
  loops : Loops.t;
  live : Liveness.t;
}

let analyze ?max_steps (w : Workload.t) =
  T1000_obs.Metrics.time "phase.analyze" @@ fun () ->
  let profile =
    Profile.collect ?max_steps
      ~init:(fun mem regs -> w.Workload.init mem regs)
      w.Workload.program
  in
  let cfg = Cfg.of_program w.Workload.program in
  let dom = Dominators.compute cfg in
  let loops = Loops.compute cfg dom in
  let live = Liveness.compute cfg in
  { profile; cfg; loops; live }

type run = {
  workload : Workload.t;
  used : setup;
  table : Extinstr.t;
  program : Program.t;
  stats : Stats.t;
}

let functional_output (w : Workload.t) table program =
  let mem = Memory.create () in
  let regs = Regfile.create () in
  w.Workload.init mem regs;
  let interp =
    Interp.create ~mem ~regs ~ext_eval:(Extinstr.eval table) program
  in
  ignore (Interp.run interp);
  Workload.output w mem

let verify_outputs (w : Workload.t) table rewritten =
  T1000_obs.Metrics.time "phase.verify" @@ fun () ->
  let reference = functional_output w Extinstr.empty w.Workload.program in
  let got = functional_output w table rewritten in
  if not (String.equal reference got) then
    raise
      (Fault.Error
         (Fault.Verify_mismatch
            (Printf.sprintf
               "%s: rewritten program diverges from the original"
               w.Workload.name)))

let select_table s analysis =
  validate s;
  T1000_obs.Metrics.time "phase.select" @@ fun () ->
  match s.method_ with
  | Baseline -> Extinstr.empty
  | Greedy ->
      let r =
        Greedy.select ~config:s.extract ~lut_budget:s.lut_budget analysis.cfg
          analysis.live analysis.profile
      in
      r.Greedy.table
  | Selective ->
      let params =
        {
          Selective.extract = s.extract;
          gain_threshold = s.gain_threshold;
          lut_budget = s.lut_budget;
        }
      in
      let r =
        Selective.select ~params ~n_pfus:s.n_pfus analysis.cfg analysis.loops
          analysis.live analysis.profile
      in
      r.Selective.table

let run ?analysis ?table (w : Workload.t) s =
  validate s;
  let analysis = match analysis with Some a -> a | None -> analyze w in
  let table =
    match table with Some t -> t | None -> select_table s analysis
  in
  let program =
    if Extinstr.count table = 0 then w.Workload.program
    else begin
      (* Optional cfgld hints: one per (loop, configuration) pair, at
         the first slot of the loop header (= the preheader position
         after target remapping). *)
      let prefetch =
        if not s.config_prefetch then []
        else begin
          let loop_arr = Loops.loops analysis.loops in
          List.concat_map
            (fun (e : Extinstr.entry) ->
              List.filter_map
                (fun (o : T1000_dfg.Extract.occ) ->
                  match
                    Loops.innermost_at_instr analysis.loops
                      o.T1000_dfg.Extract.root
                  with
                  | None -> None
                  | Some li ->
                      let header = loop_arr.(li).Loops.header in
                      Some
                        ( (Cfg.block analysis.cfg header).Cfg.first,
                          e.Extinstr.eid ))
                e.Extinstr.occs)
            (Extinstr.entries table)
          |> List.sort_uniq compare
        end
      in
      let r = Rewrite.apply ~prefetch w.Workload.program table in
      verify_outputs w table r.Rewrite.program;
      r.Rewrite.program
    end
  in
  let machine =
    Env.apply_max_cycles
      (match s.method_ with
      | Baseline -> { s.machine with Mconfig.n_pfus = Some 0 }
      | Greedy | Selective ->
          Mconfig.with_pfus ~replacement:s.replacement ~penalty:s.penalty
            s.n_pfus s.machine)
  in
  let ext_latency =
    match s.ext_timing with
    | `Single_cycle -> fun eid -> (Extinstr.get table eid).Extinstr.latency
    | `Lut_levels ->
        fun eid ->
          T1000_hwcost.Lut.latency_estimate (Extinstr.get table eid).Extinstr.dfg
  in
  let stats =
    T1000_obs.Metrics.time "phase.sim" @@ fun () ->
    Sim.run ~mconfig:machine ~ext_latency ~ext_eval:(Extinstr.eval table)
      ~selfcheck:s.selfcheck
      ~init:(fun mem regs -> w.Workload.init mem regs)
      program
  in
  (* Self-check mode cross-validates the timing simulator's
     architectural results against the functional interpreter: same
     program, same inputs, so the committed-instruction count and the
     output region must agree exactly. *)
  if s.selfcheck then begin
    let mem = Memory.create () in
    let regs = Regfile.create () in
    w.Workload.init mem regs;
    let interp =
      Interp.create ~mem ~regs ~ext_eval:(Extinstr.eval table) program
    in
    let steps = Interp.run interp in
    if steps <> stats.Stats.committed then
      raise
        (Fault.Error
           (Fault.Selfcheck_failed
              (Printf.sprintf
                 "%s: simulator committed %d instructions but the \
                  functional interpreter retired %d"
                 w.Workload.name stats.Stats.committed steps)));
    let interp_out = Workload.output w mem in
    let ref_out = functional_output w Extinstr.empty w.Workload.program in
    if not (String.equal interp_out ref_out) then
      raise
        (Fault.Error
           (Fault.Selfcheck_failed
              (Printf.sprintf
                 "%s: architectural output diverges from the original \
                  program's under self-check"
                 w.Workload.name)))
  end;
  { workload = w; used = s; table; program; stats }

let speedup ~baseline r = Stats.speedup ~baseline:baseline.stats r.stats
