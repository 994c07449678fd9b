(* Benchmark harness: regenerates every table and figure of the paper
   (Figure 2, the Section 4.1 statistics, Figure 6, the Section 5.2
   penalty sensitivity, Figure 7) plus the DESIGN.md ablations A1-A9 —
   every artifact of the Report registry — and runs Bechamel
   micro-benchmarks of the system's own hot kernels.

   Usage:
     dune exec bench/main.exe              # all paper artifacts + ablations
     dune exec bench/main.exe -- f2        # one artifact (f2 t41 f6 s52 f7)
     dune exec bench/main.exe -- a1        # one ablation  (a1..a9)
     dune exec bench/main.exe -- paper     # paper artifacts only
     dune exec bench/main.exe -- perf      # Bechamel micro-benchmarks
     dune exec bench/main.exe -- speed     # engine timing -> BENCH_engine.json
     dune exec bench/main.exe -- serve     # daemon load    -> BENCH_serve.json

   Environment (every knob is listed in lib/core/env.mli):
     T1000_NJOBS      worker count for the experiment engine (1 = serial)
     T1000_WORKLOADS  comma-separated subset of the benchmark suite,
                      e.g. T1000_WORKLOADS=unepic,epic for a smoke run *)

open T1000

let ctx =
  lazy (Experiment.create_ctx ~workloads:(Env.workloads ()) ())

let banner title = Format.printf "@.==== %s ====@.@." title

(* An artifact's rendering, or its first fault raised. *)
let render (a : Report.artifact) c =
  match a.Report.render c with
  | text, [] -> text
  | _, f :: _ -> raise (Fault.Error f.Experiment.fault)

let run_artifact (a : Report.artifact) =
  banner a.Report.banner;
  Format.printf "%s@." (render a (Lazy.force ctx))

(* Small budget: each design point simulates the whole suite, so this
   leg is the frontier of the coarse corner of the default space, not
   an exhaustive sweep — `t1000 dse` is the full-fat entry point. *)
let dse_budget = 8

let run_dse () =
  banner "DSE: design-space Pareto frontier (coarse, small budget)";
  Format.printf "%a@." T1000_dse.Engine.pp_frontier
    (T1000_dse.Engine.explore ~budget:dse_budget (Lazy.force ctx)
       T1000_dse.Space.default)

(* ---- Bechamel micro-benchmarks of the system's own hot paths ---- *)

let perf_tests () =
  let open Bechamel in
  let w =
    match T1000_workloads.Registry.find "epic" with
    | Some w -> w
    | None -> assert false
  in
  let analysis = Runner.analyze w in
  let program = w.T1000_workloads.Workload.program in
  let small_interp () =
    let mem = T1000_machine.Memory.create () in
    let regs = T1000_machine.Regfile.create () in
    w.T1000_workloads.Workload.init mem regs;
    let i = T1000_machine.Interp.create ~mem ~regs program in
    ignore (T1000_machine.Interp.run ~max_steps:50_000_000 i)
  in
  let timing_sim () =
    ignore
      (T1000_ooo.Sim.run
         ~init:(fun mem regs -> w.T1000_workloads.Workload.init mem regs)
         program)
  in
  let greedy_select () =
    ignore
      (T1000_select.Greedy.select analysis.Runner.cfg analysis.Runner.live
         analysis.Runner.profile)
  in
  let selective_select () =
    ignore
      (T1000_select.Selective.select ~n_pfus:(Some 2) analysis.Runner.cfg
         analysis.Runner.loops analysis.Runner.live analysis.Runner.profile)
  in
  let lut_cost () =
    let r =
      T1000_select.Greedy.select analysis.Runner.cfg analysis.Runner.live
        analysis.Runner.profile
    in
    List.iter
      (fun e -> ignore (T1000_hwcost.Lut.cost e.T1000_select.Extinstr.dfg))
      (T1000_select.Extinstr.entries r.T1000_select.Greedy.table)
  in
  let cache_sim () =
    let c =
      T1000_cache.Cache.create ~name:"bench" ~sets:256 ~ways:2 ~line_bytes:32
    in
    for i = 0 to 99_999 do
      ignore
        (T1000_cache.Cache.access c ~addr:(i * 48 land 0xFFFFF) ~write:false)
    done
  in
  [
    Test.make ~name:"interp/epic-run" (Staged.stage small_interp);
    Test.make ~name:"ooo-sim/epic-run" (Staged.stage timing_sim);
    Test.make ~name:"select/greedy" (Staged.stage greedy_select);
    Test.make ~name:"select/selective-2pfu" (Staged.stage selective_select);
    Test.make ~name:"hwcost/lut-table" (Staged.stage lut_cost);
    Test.make ~name:"cache/100k-accesses" (Staged.stage cache_sim);
  ]

let run_perf () =
  banner "PERF: Bechamel micro-benchmarks";
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
  in
  let tests = Test.make_grouped ~name:"t1000" ~fmt:"%s %s" (perf_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "%-32s %12.0f ns/run@." name est
      | Some _ | None -> Format.printf "%-32s (no estimate)@." name)
    results

(* ---- engine speed benchmark (the `speed` target) ----

   Times the full paper-artifact suite twice -- once sequentially
   (T1000_NJOBS=1) and once on the worker pool -- with a fresh
   experiment context per leg so every leg pays the full analysis,
   selection and simulation cost, and writes BENCH_engine.json so the
   perf trajectory survives across PRs. *)

(* Per-leg phase breakdown from the Obs accumulators Runner and
   Experiment feed ("<phase>.seconds" + "<phase>.calls"); time_suite
   resets the metrics first, so the snapshot covers that leg alone. *)
let leg_phases () =
  let s = Obs.Metrics.snapshot () in
  List.filter_map
    (fun (name, secs) ->
      match Filename.chop_suffix_opt ~suffix:".seconds" name with
      | None -> None
      | Some base ->
          let calls =
            Option.value ~default:0
              (List.assoc_opt (base ^ ".calls") s.Obs.Metrics.counters)
          in
          Some (base, secs, calls))
    s.Obs.Metrics.fcounters

let time_suite ~njobs =
  Unix.putenv "T1000_NJOBS" (string_of_int njobs);
  Obs.Metrics.reset ();
  let ctx =
    Experiment.create_ctx ~workloads:(Env.workloads ()) ()
  in
  let timings =
    List.map
      (fun (a : Report.artifact) ->
        let t0 = Unix.gettimeofday () in
        ignore (render a ctx);
        let dt = Unix.gettimeofday () -. t0 in
        Format.printf "  njobs=%-2d %-4s %8.2f s@." njobs a.Report.id dt;
        (a.Report.id, dt))
      Report.artifacts
  in
  ( List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 timings,
    timings,
    leg_phases () )

let json_of_leg oc ~njobs ~total timings phases =
  Printf.fprintf oc
    "{ \"njobs\": %d, \"total_s\": %.3f, \"artifacts\": { %s }, \"phases\": \
     { %s } }"
    njobs total
    (String.concat ", "
       (List.map
          (fun (name, dt) -> Printf.sprintf "\"%s\": %.3f" name dt)
          timings))
    (String.concat ", "
       (List.map
          (fun (name, secs, calls) ->
            Printf.sprintf "\"%s\": { \"seconds\": %.3f, \"calls\": %d }" name
              secs calls)
          phases))

let run_speed () =
  banner "SPEED: experiment-engine wall clock (sequential vs parallel)";
  let saved_njobs = Env.njobs () in
  (* An explicit T1000_NJOBS=1 still times a parallel leg, on every
     recommended domain. *)
  let par_njobs =
    if saved_njobs > 1 then saved_njobs
    else Domain.recommended_domain_count ()
  in
  let seq_total, seq_timings, seq_phases = time_suite ~njobs:1 in
  (* On a single-core machine a "parallel" leg would just re-time the
     sequential engine (or worse, pay domain overhead) and report a
     bogus slowdown as "speedup"; skip it and record null instead. *)
  let par =
    if par_njobs <= 1 then begin
      Format.printf "  (1 domain available: parallel leg skipped)@.";
      None
    end
    else Some (time_suite ~njobs:par_njobs)
  in
  Unix.putenv "T1000_NJOBS" (string_of_int saved_njobs);
  let fuzz =
    let dir = Filename.temp_file "t1000_bench_fuzz" "" in
    Sys.remove dir;
    let o = T1000_fuzz.Fuzz.run_cases ~out_dir:dir ~seed:42 ~cases:100 () in
    Format.printf "  fuzz     100 cases %8.2f s  (%.0f cases/s)@."
      o.T1000_fuzz.Fuzz.elapsed_s o.T1000_fuzz.Fuzz.cases_per_s;
    o
  in
  let dse =
    let t0 = Unix.gettimeofday () in
    let ctx =
      Experiment.create_ctx ~workloads:(Env.workloads ()) ()
    in
    let r =
      T1000_dse.Engine.explore ~budget:dse_budget ctx T1000_dse.Space.default
    in
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf
      "  dse      budget=%d %8.2f s  (%d evaluated, %d pruned, frontier %d)@."
      dse_budget dt
      (List.length r.T1000_dse.Engine.measured)
      (List.length r.T1000_dse.Engine.pruned)
      (List.length r.T1000_dse.Engine.frontier);
    (r, dt)
  in
  let bpred =
    (* speculation overhead: selective 2-PFU suite simulation per
       front-end predictor.  A warm-up pass pays the shared analysis
       and selection cost up front so the timed legs are
       simulation-dominated; the cycle deltas are the model cost of
       wrong-path fetch, the Minstr/s deltas its engine cost. *)
    let module Bp = T1000_bpred.Predictor in
    let ctx =
      Experiment.create_ctx ~workloads:(Env.workloads ()) ()
    in
    let setup_for bp =
      let machine =
        { T1000_ooo.Mconfig.default with T1000_ooo.Mconfig.bpred = bp }
      in
      { (Runner.setup ~n_pfus:(Some 2) Runner.Selective) with Runner.machine }
    in
    List.iter
      (fun w -> ignore (Experiment.run_setup ctx w (setup_for Bp.Perfect)))
      (Env.workloads ());
    List.map
      (fun (label, bp) ->
        let s = setup_for bp in
        let t0 = Unix.gettimeofday () in
        let cycles, committed =
          List.fold_left
            (fun (cy, co) w ->
              let r = Experiment.run_setup ctx w s in
              ( cy + r.Runner.stats.T1000_ooo.Stats.cycles,
                co + r.Runner.stats.T1000_ooo.Stats.committed ))
            (0, 0) (Env.workloads ())
        in
        let dt = Unix.gettimeofday () -. t0 in
        let mips =
          if dt > 0.0 then float_of_int committed /. dt /. 1e6 else 0.0
        in
        Format.printf
          "  bpred    %-10s %8.2f s  (%d cycles, %.1f Minstr/s)@." label dt
          cycles mips;
        (label, cycles, committed, dt, mips))
      [
        ("perfect", Bp.Perfect);
        ("bimodal@11", Bp.Bimodal 11);
        ("gshare@11", Bp.Gshare 11);
      ]
  in
  let parallel_speedup =
    match par with
    | Some (par_total, _, _) when par_total > 0.0 ->
        Some (seq_total /. par_total)
    | Some _ | None -> None
  in
  let oc = open_out "BENCH_engine.json" in
  Printf.fprintf oc
    "{\n\
    \  \"generated_by\": \"dune exec bench/main.exe -- speed\",\n\
    \  \"recommended_domain_count\": %d,\n\
    \  \"workloads\": [ %s ],\n\
    \  \"sequential\": "
    (Domain.recommended_domain_count ())
    (String.concat ", "
       (List.map
          (fun (w : T1000_workloads.Workload.t) ->
            Printf.sprintf "\"%s\"" w.T1000_workloads.Workload.name)
          (Env.workloads ())));
  json_of_leg oc ~njobs:1 ~total:seq_total seq_timings seq_phases;
  Printf.fprintf oc ",\n  \"parallel\": ";
  (match par with
  | None -> Printf.fprintf oc "null"
  | Some (par_total, par_timings, par_phases) ->
      json_of_leg oc ~njobs:par_njobs ~total:par_total par_timings par_phases);
  Printf.fprintf oc
    ",\n\
    \  \"fuzz\": { \"cases\": %d, \"seconds\": %.3f, \"cases_per_s\": %.1f, \
     \"failures\": %d }"
    fuzz.T1000_fuzz.Fuzz.cases fuzz.T1000_fuzz.Fuzz.elapsed_s
    fuzz.T1000_fuzz.Fuzz.cases_per_s
    (List.length fuzz.T1000_fuzz.Fuzz.failures);
  (let r, dt = dse in
   Printf.fprintf oc
     ",\n\
     \  \"dse\": { \"budget\": %d, \"evaluated\": %d, \"pruned\": %d, \
      \"frontier\": %d, \"rounds\": %d, \"seconds\": %.3f }"
     dse_budget
     (List.length r.T1000_dse.Engine.measured)
     (List.length r.T1000_dse.Engine.pruned)
     (List.length r.T1000_dse.Engine.frontier)
     r.T1000_dse.Engine.rounds dt);
  (let perfect_mips =
     match bpred with (_, _, _, _, m) :: _ -> m | [] -> 0.0
   in
   Printf.fprintf oc ",\n  \"bpred\": [ %s ]"
     (String.concat ", "
        (List.map
           (fun (label, cycles, committed, dt, mips) ->
             Printf.sprintf
               "{ \"predictor\": \"%s\", \"cycles\": %d, \"committed\": %d, \
                \"seconds\": %.3f, \"minstr_per_s\": %.2f, \
                \"throughput_vs_perfect\": %s }"
               label cycles committed dt mips
               (if perfect_mips > 0.0 then
                  Printf.sprintf "%.3f" (mips /. perfect_mips)
                else "null"))
           bpred)));
  Printf.fprintf oc ",\n  \"parallel_speedup\": %s\n}\n"
    (match parallel_speedup with
    | None -> "null"
    | Some s -> Printf.sprintf "%.3f" s);
  close_out oc;
  (match (par, parallel_speedup) with
  | Some (par_total, _, _), Some s ->
      Format.printf
        "@.sequential %.2f s | parallel (njobs=%d) %.2f s | speedup %.2fx@."
        seq_total par_njobs par_total s
  | _ ->
      Format.printf "@.sequential %.2f s | parallel leg skipped@." seq_total);
  Format.printf "wrote BENCH_engine.json@."

(* ---- serve daemon load benchmark (the `serve` target) ----

   Throughput and latency of the selection-as-a-service daemon at 1, 8
   and 64 concurrent clients, plus a deliberate-overload leg (one
   worker, queue depth 1) measuring the shed rate.  Requests carry
   distinct penalties so every one simulates (the analysis/baseline/
   table caches stay warm — the realistic multi-tenant pattern), and
   the results land in BENCH_serve.json. *)

module Sproto = T1000_serve.Protocol
module Sserver = T1000_serve.Server
module Sclient = T1000_serve.Client

(* ~8k loop iterations: a simulation in the low tens of milliseconds,
   so a load leg exercises queueing rather than one giant sim. *)
let serve_bench_kernel =
  Sproto.Asm
    {
      name = "bench";
      text =
        "    addui r2, r0, 8192\n\
        \    addui r1, r0, 0\n\
         loop:\n\
        \    addui r1, r1, 1\n\
        \    bne r1, r2, loop\n\
        \    halt\n";
    }

let serve_leg ~clients ~requests ~queue ~njobs kernel =
  let path = Filename.temp_file "t1000_serve_bench" ".sock" in
  Sys.remove path;
  let srv =
    Sserver.create
      {
        Sserver.addrs = [ Sserver.Unix_sock path ];
        queue_depth = queue;
        njobs;
        default_deadline_ms = None;
        retries = None;
        max_steps = 10_000_000;
        memo_cap = T1000.Memo.default_cap;
      }
  in
  let th = Thread.create Sserver.run srv in
  let latencies = Array.make (clients * requests) 0.0 in
  let ok = Atomic.make 0 and shed = Atomic.make 0 and errors = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            match Sclient.connect (Sserver.Unix_sock path) with
            | Error m ->
                Format.eprintf "serve bench: %s@." m;
                exit 1
            | Ok c ->
                for r = 0 to requests - 1 do
                  let i = (ci * requests) + r in
                  let sel =
                    {
                      Sproto.kernel;
                      method_ = `Selective;
                      pfus = Some 2;
                      penalty = i (* unique: defeat the result cache *);
                      max_cycles = None;
                      deadline_ms = None;
                    }
                  in
                  let s = Unix.gettimeofday () in
                  (match Sclient.request c sel with
                  | Ok (`Outcome _) -> Atomic.incr ok
                  | Ok (`Error (Sproto.Overloaded, _)) -> Atomic.incr shed
                  | Ok _ | Error _ -> Atomic.incr errors);
                  latencies.(i) <- (Unix.gettimeofday () -. s) *. 1e3
                done;
                Sclient.close c)
          ())
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  Sserver.stop srv;
  Thread.join th;
  (try Sys.remove path with Sys_error _ -> ());
  Array.sort compare latencies;
  let pct p =
    let n = Array.length latencies in
    latencies.(max 0 (min (n - 1) (int_of_float (p /. 100. *. float_of_int n))))
  in
  ( elapsed,
    Atomic.get ok,
    Atomic.get shed,
    Atomic.get errors,
    pct 50.,
    pct 95.,
    latencies.(Array.length latencies - 1) )

let run_serve () =
  banner "SERVE: daemon load benchmark";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let requests = Env.serve_bench_requests () in
  let njobs = Env.njobs () in
  let levels = [ 1; 8; 64 ] in
  let legs =
    List.map
      (fun clients ->
        let elapsed, ok, shed, errors, p50, p95, pmax =
          serve_leg ~clients ~requests ~queue:128 ~njobs serve_bench_kernel
        in
        let total = clients * requests in
        Format.printf
          "  %3d clients x %d req: %6.2f s  %7.1f req/s  p50 %6.1f ms  p95 \
           %6.1f ms  (ok %d, shed %d, errors %d)@."
          clients requests elapsed
          (float_of_int total /. elapsed)
          p50 p95 ok shed errors;
        (clients, total, elapsed, ok, shed, errors, p50, p95, pmax))
      levels
  in
  (* Overload: one worker, queue depth 1, everyone at once — the point
     is the shed rate, not throughput. *)
  let o_clients = 16 and o_requests = max 1 (requests / 4) in
  let o_elapsed, o_ok, o_shed, o_errors, _, _, _ =
    serve_leg ~clients:o_clients ~requests:o_requests ~queue:1 ~njobs:1
      serve_bench_kernel
  in
  let o_total = o_clients * o_requests in
  let o_rate = float_of_int o_shed /. float_of_int o_total in
  Format.printf
    "  overload %d clients x %d req (queue 1, 1 worker): %6.2f s  shed \
     %d/%d (%.0f%%), ok %d, errors %d@."
    o_clients o_requests o_elapsed o_shed o_total (100. *. o_rate) o_ok
    o_errors;
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"generated_by\": \"dune exec bench/main.exe -- serve\",\n\
    \  \"njobs\": %d,\n\
    \  \"requests_per_client\": %d,\n\
    \  \"levels\": [" njobs requests;
  List.iteri
    (fun i (clients, total, elapsed, ok, shed, errors, p50, p95, pmax) ->
      Printf.fprintf oc
        "%s\n\
        \    { \"clients\": %d, \"requests\": %d, \"seconds\": %.3f, \
         \"throughput_rps\": %.1f, \"ok\": %d, \"shed\": %d, \"errors\": \
         %d, \"latency_ms\": { \"p50\": %.2f, \"p95\": %.2f, \"max\": %.2f \
         } }"
        (if i = 0 then "" else ",")
        clients total elapsed
        (float_of_int total /. elapsed)
        ok shed errors p50 p95 pmax)
    legs;
  Printf.fprintf oc
    "\n\
    \  ],\n\
    \  \"overload\": { \"clients\": %d, \"requests\": %d, \"queue_depth\": \
     1, \"njobs\": 1, \"seconds\": %.3f, \"ok\": %d, \"shed\": %d, \
     \"errors\": %d, \"shed_rate\": %.3f }\n\
     }\n"
    o_clients o_total o_elapsed o_ok o_shed o_errors o_rate;
  close_out oc;
  Format.printf "wrote BENCH_serve.json@."

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let run = function
    | "dse" -> run_dse ()
    | "paper" -> List.iter run_artifact Report.paper_artifacts
    | "ablations" -> List.iter run_artifact Report.ablation_artifacts
    | "perf" -> run_perf ()
    | "speed" -> run_speed ()
    | "serve" -> run_serve ()
    | id -> (
        match Report.find_artifact id with
        | Some a -> run_artifact a
        | None ->
            Format.eprintf
              "unknown experiment %S (expected %s dse paper ablations perf \
               speed serve)@."
              id
              (String.concat " " Report.artifact_ids);
            exit 2)
  in
  try
    (* A bad T1000_* knob exits 2 before anything runs. *)
    Env.validate ();
    match args with
    | [] -> List.iter run_artifact Report.artifacts
    | _ -> List.iter run args
  with Fault.Error f ->
    Format.eprintf "bench: %s@." (Fault.to_string f);
    exit (Fault.exit_code f)
