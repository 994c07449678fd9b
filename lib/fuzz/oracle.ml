module Runner = T1000.Runner
module Fault = T1000.Fault
module Extinstr = T1000_select.Extinstr
module Interp = T1000_machine.Interp
module Memory = T1000_machine.Memory
module Regfile = T1000_machine.Regfile
module Workload = T1000_workloads.Workload
module Stats = T1000_ooo.Stats

type failure = { method_ : string; invariant : string; detail : string }

let pp_failure ppf f =
  Format.fprintf ppf "[%s] %s: %s" f.method_ f.invariant f.detail

(* The deliberately broken oracle for acceptance testing: pretend the
   cycle-gain model over-counts commits by one whenever an extended
   instruction retired.  Armed only via T1000_FAULT_INJECT=fuzz-oracle. *)
let bug_armed () = T1000.Env.fault_inject () = Some "fuzz-oracle"

(* Retired instruction count and observable output of [program] on the
   workload's initial state, straight from the functional interpreter. *)
let interp_run (w : Workload.t) table program =
  let mem = Memory.create () in
  let regs = Regfile.create () in
  w.Workload.init mem regs;
  let it = Interp.create ~mem ~regs ~ext_eval:(Extinstr.eval table) program in
  let steps = Interp.run ~max_steps:50_000_000 it in
  (steps, Workload.output w mem)

let check (c : Gen.case) : (unit, failure) result =
  let fail method_ invariant fmt =
    Format.kasprintf
      (fun detail -> Error { method_; invariant; detail })
      fmt
  in
  try
    let w = Gen.workload c in
    let analysis = Runner.analyze w in
    let baseline =
      Runner.run ~analysis w (Runner.setup ~selfcheck:true Runner.Baseline)
    in
    let steps0, out0 = interp_run w Extinstr.empty w.Workload.program in
    if baseline.Runner.stats.Stats.committed <> steps0 then
      fail "baseline" "commit-trace"
        "simulator committed %d instructions but the interpreter retired %d"
        baseline.Runner.stats.Stats.committed steps0
    else
      let check_one name method_ =
        let r = Runner.run ~analysis w (Gen.setup ~method_ c) in
        let steps1, out1 = interp_run w r.Runner.table r.Runner.program in
        if not (String.equal out0 out1) then
          fail name "state-divergence"
            "architectural output of the rewritten program diverges from \
             the original"
        else if steps1 > steps0 then
          fail name "instruction-count"
            "rewritten program retires %d instructions, original only %d"
            steps1 steps0
        else
          let committed =
            r.Runner.stats.Stats.committed
            + (if bug_armed () && r.Runner.stats.Stats.ext_committed > 0 then 1
               else 0)
          in
          if committed <> steps1 then
            fail name "commit-trace"
              "simulator committed %d instructions but the interpreter \
               retired %d"
              committed steps1
          else
            let sp = Runner.speedup ~baseline r in
            if not (Float.is_finite sp && sp > 0.0) then
              fail name "speedup" "speedup %g is not finite and positive" sp
            else Ok ()
      in
      match check_one "greedy" Runner.Greedy with
      | Error _ as e -> e
      | Ok () -> check_one "selective" Runner.Selective
  with
  | Fault.Error f ->
      Error
        { method_ = "pipeline"; invariant = "fault"; detail = Fault.to_string f }
  | e ->
      Error
        {
          method_ = "pipeline";
          invariant = "crash";
          detail = Fault.to_string (Fault.of_exn e);
        }
