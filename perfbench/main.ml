(* The repository's layered benchmark: four workloads driven point by
   point through the public API on one domain, every point's Stats
   checked against a recorded digest, end-to-end metrics from an
   untraced run and per-layer metrics from a traced one.  README.md
   documents the workloads, the metrics and the layers they belong to.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --record NAME      re-record NAME's digests (never to make
                                 a change pass) *)

open T1000
open T1000_ooo
module Workload = T1000_workloads.Workload
module Registry = T1000_workloads.Registry
module Extinstr = T1000_select.Extinstr
module Gen = T1000_fuzz.Gen
module Bp = T1000_bpred.Predictor
module Tracer = T1000_obs.Tracer
module Metrics = T1000_obs.Metrics
module Json = T1000_obs.Json

let digest_dir = "perfbench/digests"
let out_dir = "perfbench/out"

(* ---- inputs ---- *)

(* Every setup field pinned, so no T1000_* environment knob can change
   what a point computes. *)
let pinned ?(n_pfus = Some 2) ?(penalty = 10) ?(gain_threshold = 0.005)
    ?(extract = T1000_dfg.Extract.default_config) ?(bpred = Bp.Perfect)
    method_ =
  {
    Runner.method_;
    n_pfus;
    penalty;
    replacement = Mconfig.Lru;
    extract;
    gain_threshold;
    lut_budget = T1000_hwcost.Lut.default_budget;
    ext_timing = `Single_cycle;
    config_prefetch = false;
    machine = { Mconfig.default with Mconfig.bpred };
    selfcheck = false;
  }

(* Blank every T1000_* knob: Sim.run still reads T1000_MAX_CYCLES
   itself, and every reader of these knobs treats an empty value as
   unset. *)
let blank_t1000_env () =
  Array.iter
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i when String.starts_with ~prefix:"T1000_" kv ->
          Unix.putenv (String.sub kv 0 i) ""
      | Some _ | None -> ())
    (Unix.environment ())

(* ---- tracing ---- *)

(* Spans carry the trace id of the point (or pass set-up) they belong
   to in their name; the category is the layer the call enters. *)
let trace_id = ref ""

let span cat name f =
  if Tracer.enabled () then Tracer.with_span ~cat (name ^ "#" ^ !trace_id) f
  else f ()

(* ---- workloads ---- *)

type point = { label : string; eval : unit -> Runner.run }

type workload = {
  name : string;
  pass : seed:int -> pass:int -> Workload.t list * point list;
      (** performs one pass's set-up and returns its kernels and points *)
  record : unit -> point list;  (** every point a run can produce *)
  tail_q : float;
      (** the tail percentile, fixed for the workload's usual pass count
          (README.md) *)
  alloc_kernels : int;
      (** kernels whose points the allocation probe re-simulates *)
  replay_kernels : int;  (** kernels the replay and interpreter probes use *)
}

let kernels_named names =
  List.map
    (fun n ->
      match Registry.find n with
      | Some w -> w
      | None -> invalid_arg ("unknown kernel " ^ n))
    names

(* A sweep: one Experiment ctx per pass, whose set-up analyses every
   kernel; the points run in an order drawn from the seed. *)
let sweep ~name ~kernels ~tail_q points =
  let canonical =
    List.concat_map
      (fun (w : Workload.t) ->
        List.map (fun (l, s) -> (w.Workload.name ^ "/" ^ l, w, s)) points)
      kernels
  in
  let pass_of order =
    let ctx =
      span "t1000_core" "experiment.create_ctx" (fun () ->
          Experiment.create_ctx ~workloads:kernels ())
    in
    List.iter
      (fun w ->
        span "t1000_profile" "experiment.analysis" (fun () ->
            ignore (Experiment.analysis ctx w)))
      kernels;
    List.map
      (fun (label, w, s) ->
        {
          label;
          eval =
            (fun () ->
              span "t1000_select" "experiment.selection_table" (fun () ->
                  ignore (Experiment.selection_table ctx w s));
              span "t1000_core" "experiment.run_setup" (fun () ->
                  Experiment.run_setup ctx w s));
        })
      order
  in
  {
    name;
    pass =
      (fun ~seed ~pass:_ ->
        (kernels, pass_of (Harness.shuffle ~seed canonical)));
    record = (fun () -> pass_of canonical);
    tail_q;
    alloc_kernels = 1;
    replay_kernels = List.length kernels;
  }

let penalty_sweep =
  sweep ~name:"penalty_sweep" ~tail_q:75.0
    ~kernels:(kernels_named [ "mpeg2_dec"; "unepic" ])
    (("baseline", pinned Runner.Baseline)
    :: List.concat_map
         (fun p ->
           [
             (Printf.sprintf "greedy@%d" p, pinned ~penalty:p Runner.Greedy);
             ( Printf.sprintf "selective@%d" p,
               pinned ~penalty:p Runner.Selective );
           ])
         [ 10; 50; 100; 250; 500 ])

let selection_sweep =
  sweep ~name:"selection_sweep" ~tail_q:90.0
    ~kernels:(kernels_named [ "unepic"; "epic"; "mpeg2_dec" ])
    ((("baseline", pinned Runner.Baseline)
     :: List.map
          (fun n ->
            ( Printf.sprintf "a1/pfus=%d" n,
              pinned ~n_pfus:(Some n) Runner.Selective ))
          [ 1; 2; 3; 4; 6; 8 ])
    @ List.map
        (fun g ->
          ( Printf.sprintf "a3/gain=%g" g,
            pinned ~gain_threshold:g Runner.Selective ))
        [ 0.001; 0.005; 0.02 ]
    @ List.map
        (fun width ->
          ( Printf.sprintf "a2/width=%d" width,
            pinned ~n_pfus:None ~penalty:0
              ~extract:
                {
                  T1000_dfg.Extract.default_config with
                  T1000_dfg.Extract.width_threshold = width;
                }
              Runner.Greedy ))
        [ 8; 12; 18; 24; 32 ])

let speculative =
  sweep ~name:"speculative" ~tail_q:90.0
    ~kernels:(kernels_named [ "g721_dec"; "gsm_dec"; "mpeg2_dec"; "unepic" ])
    (List.concat_map
       (fun bpred ->
         let p = Bp.spec_to_string bpred in
         [
           (p ^ "/baseline", pinned ~bpred Runner.Baseline);
           (p ^ "/greedy", pinned ~bpred Runner.Greedy);
           (p ^ "/selective", pinned ~bpred Runner.Selective);
         ])
       [ Bp.Gshare 11; Bp.Bimodal 11; Bp.Static ])

(* kernel_stream: a closed loop with one client, shaped like the serve
   tier's traffic.  Each kernel is analysed, run as a baseline and run
   under the serve tier's default selection (selective, 2 PFUs,
   penalty 10), sharing nothing with any other kernel.  The analysis is
   charged to the kernel's baseline point. *)
let stream_batch = 1000

let stream_points kernels =
  List.concat_map
    (fun (w : Workload.t) ->
      let analysis = ref None in
      [
        {
          label = w.Workload.name ^ "/baseline";
          eval =
            (fun () ->
              let a =
                span "t1000_profile" "runner.analyze" (fun () ->
                    Runner.analyze w)
              in
              analysis := Some a;
              span "t1000_core" "runner.run" (fun () ->
                  Runner.run ~analysis:a ~table:Extinstr.empty w
                    (pinned Runner.Baseline)));
        };
        {
          label = w.Workload.name ^ "/selective";
          eval =
            (fun () ->
              let a = Option.get !analysis in
              let s = pinned Runner.Selective in
              let table =
                span "t1000_select" "runner.select_table" (fun () ->
                    Runner.select_table s a)
              in
              span "t1000_core" "runner.run" (fun () ->
                  Runner.run ~analysis:a ~table w s));
        };
      ])
    kernels

let generate ids =
  span "t1000_fuzz" "gen.generate" (fun () ->
      List.map (fun id -> Gen.workload (Gen.generate ~seed:id)) ids)

let kernel_stream =
  {
    name = "kernel_stream";
    pass =
      (fun ~seed ~pass ->
        let kernels =
          generate (Harness.kernel_ids ~seed ~pass ~n:stream_batch)
        in
        (kernels, stream_points kernels));
    record =
      (fun () ->
        stream_points (generate (List.init Harness.kernel_pool Fun.id)));
    tail_q = 99.0;
    alloc_kernels = 16;
    replay_kernels = 64;
  }

let workloads = [ penalty_sweep; selection_sweep; speculative; kernel_stream ]

(* ---- digests ---- *)

let digest_file name = Filename.concat digest_dir (name ^ ".txt")

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let now = Unix.gettimeofday

let mkdir dir =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let take n xs = List.filteri (fun i _ -> i < n) xs
let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let sumf f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let sum_stats f runs = sum (fun (r : Runner.run) -> f r.Runner.stats) runs

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  Harness.percentile a 50.0

let record wl =
  let lines =
    List.map
      (fun p ->
        let t = now () in
        let r = p.eval () in
        Printf.eprintf "%-40s %10.1f ms %12d cycles\n%!" p.label
          ((now () -. t) *. 1000.0)
          r.Runner.stats.Stats.cycles;
        Printf.sprintf "%s %s" p.label (Harness.stats_digest r.Runner.stats))
      (wl.record ())
  in
  mkdir digest_dir;
  let oc = open_out (digest_file wl.name) in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  Printf.printf "recorded %d digests in %s\n" (List.length lines)
    (digest_file wl.name)

(* ---- per-layer probes (traced run only) ---- *)

(* Repeat [f] until [min_s] seconds have passed; (repetitions, seconds). *)
let repeat_for ~min_s f =
  let t0 = now () in
  let rec go n =
    f ();
    let dt = now () -. t0 in
    if dt >= min_s then (n, dt) else go (n + 1)
  in
  go 1

(* Replay every stream through a fresh [make ()] until the replays
   alone have taken [min_s] seconds; (rounds, replay seconds).  Building
   the fresh structure is not timed. *)
let time_replays ~min_s streams make replay =
  let rec go rounds spent =
    let spent =
      List.fold_left
        (fun spent s ->
          let x = make () in
          let t = now () in
          replay x s;
          spent +. (now () -. t))
        spent streams
    in
    if spent >= min_s then (rounds, spent) else go (rounds + 1) spent
  in
  go 1 0.0

(* A kernel's own access streams, recorded with Interp.step on the
   original program: instruction fetches at each new I-cache line,
   loads and stores tagged in the low two bits, and conditional
   branches packed as (slot, target, taken). *)
type streams = { accesses : int array; branches : int array }

let record_streams (w : Workload.t) =
  let mem = T1000_machine.Memory.create () in
  let regs = T1000_machine.Regfile.create () in
  w.Workload.init mem regs;
  let it = T1000_machine.Interp.create ~mem ~regs w.Workload.program in
  let line_bytes = T1000_cache.Hierarchy.default_config.l1i_line in
  let acc = ref [] and br = ref [] and last_line = ref (-1) in
  let rec go () =
    match T1000_machine.Interp.step it with
    | None -> ()
    | Some e ->
        let addr = T1000_isa.Encoding.address_of_index e.index in
        if addr / line_bytes <> !last_line then begin
          last_line := addr / line_bytes;
          acc := (addr lsl 2) :: !acc
        end;
        (match e.instr with
        | T1000_isa.Instr.Load _ -> acc := ((e.mem_addr lsl 2) lor 1) :: !acc
        | T1000_isa.Instr.Store _ -> acc := ((e.mem_addr lsl 2) lor 2) :: !acc
        | T1000_isa.Instr.Branch (_, _, _, target) ->
            let taken = T1000_machine.Interp.pc it <> e.index + 1 in
            br :=
              ((e.index lsl 22) lor (target lsl 1) lor Bool.to_int taken)
              :: !br
        | _ -> ());
        go ()
  in
  go ();
  {
    accesses = Array.of_list (List.rev !acc);
    branches = Array.of_list (List.rev !br);
  }

let fresh_hierarchy () =
  T1000_cache.Hierarchy.create T1000_cache.Hierarchy.default_config

let replay_cache h s =
  Array.iter
    (fun x ->
      let addr = x lsr 2 in
      match x land 3 with
      | 0 -> ignore (T1000_cache.Hierarchy.fetch_latency h ~addr)
      | 1 -> ignore (T1000_cache.Hierarchy.load_latency h ~addr)
      | _ -> ignore (T1000_cache.Hierarchy.store_latency h ~addr))
    s.accesses

let fresh_predictor () = Bp.create (Bp.Gshare 11)

let replay_bpred p s =
  Array.iter
    (fun x ->
      let index = x lsr 22 and target = (x lsr 1) land 0x1FFFFF in
      ignore (Bp.predict_dir p ~index ~target);
      Bp.train_dir p ~index ~taken:(x land 1 = 1))
    s.branches

let interp_run (w : Workload.t) =
  let mem = T1000_machine.Memory.create () in
  let regs = T1000_machine.Regfile.create () in
  w.Workload.init mem regs;
  T1000_machine.Interp.run
    (T1000_machine.Interp.create ~mem ~regs w.Workload.program)

(* Re-simulate a point directly with Sim.run, as Runner.run does, to
   count the words the simulator allocates in the minor heap (exact,
   unlike the major-heap counter, which lags).  The re-simulation must
   reproduce the point's Stats exactly. *)
let resimulate (r : Runner.run) =
  let s = r.Runner.used in
  let mconfig =
    match s.Runner.method_ with
    | Runner.Baseline -> { s.Runner.machine with Mconfig.n_pfus = Some 0 }
    | Runner.Greedy | Runner.Selective ->
        Mconfig.with_pfus ~replacement:s.Runner.replacement
          ~penalty:s.Runner.penalty s.Runner.n_pfus s.Runner.machine
  in
  let table = r.Runner.table in
  let w0 = Gc.minor_words () in
  let stats =
    Sim.run ~mconfig
      ~ext_latency:(fun eid -> (Extinstr.get table eid).Extinstr.latency)
      ~ext_eval:(Extinstr.eval table)
      ~init:(fun mem regs -> r.Runner.workload.Workload.init mem regs)
      r.Runner.program
  in
  (Gc.minor_words () -. w0, stats)

let halt_us () =
  let program = T1000_asm.Program.make [| T1000_isa.Instr.Halt |] in
  let batch () =
    let t = now () in
    for _ = 1 to 200 do
      ignore (Sim.run ~init:(fun _ _ -> ()) program)
    done;
    (now () -. t) /. 200.0 *. 1e6
  in
  median (List.init 7 (fun _ -> batch ()))

(* ---- the timed run ---- *)

(* Span categories: the layer each benchmark span enters, plus the
   program's own "sim" spans inside Sim.run, counted as t1000_ooo. *)
let span_layers =
  [
    "perfbench";
    "t1000_fuzz";
    "t1000_profile";
    "t1000_select";
    "t1000_core";
    "t1000_ooo";
  ]

(* Program counters read around each pass; the benchmark adds none. *)
let counter_names =
  [
    "phase.verify.calls";
    "phase.select.calls";
    "memo.analysis.hits";
    "memo.analysis.misses";
    "memo.baseline.hits";
    "memo.baseline.misses";
    "memo.tables.hits";
    "memo.tables.misses";
  ]

let timer_names =
  [
    "phase.verify.seconds";
    "phase.select.seconds";
    "phase.analyze.seconds";
    "phase.sim.seconds";
  ]

type pass_result = {
  traced : bool;
  kernels : Workload.t list;  (** kept for the first pass of a traced run *)
  runs : Runner.run list;
      (** the points that completed, kept for the first pass of a traced run *)
  n_points : int;
  committed : int;
  cycles : int;
  point_s : float;  (** host seconds spent in points, set-up excluded *)
  counters : (string * int) list;  (** deltas over the pass *)
  timers : (string * float) list;  (** deltas over the pass *)
}

(* Run passes until their points have taken [seconds] of host time.
   Under [~trace] passes alternate traced, untraced, ... and stop on an
   even count.  Returns the passes in order, every point latency and
   every set-up time. *)
let run_passes wl ledger ~seed ~seconds ~trace =
  let latencies = ref [] and setups = ref [] and passes = ref [] in
  let total_s = ref 0.0 and next_id = ref 0 in
  let rec loop p =
    let traced = trace && p mod 2 = 0 in
    Tracer.set_enabled traced;
    let counters0 = List.map Metrics.get counter_names in
    let timers0 = List.map Metrics.get_float timer_names in
    trace_id := Printf.sprintf "setup%d" p;
    let t0 = now () in
    let kernels, points = wl.pass ~seed ~pass:p in
    setups := (now () -. t0) :: !setups;
    let runs = ref [] and point_s = ref 0.0 in
    List.iter
      (fun pt ->
        incr next_id;
        trace_id := string_of_int !next_id;
        let t = now () in
        let outcome =
          match span "perfbench" "point" pt.eval with
          | r -> Ok r
          | exception e -> Error (Printexc.to_string e)
        in
        let dt = now () -. t in
        point_s := !point_s +. dt;
        latencies := dt :: !latencies;
        Harness.check ledger ~label:pt.label
          (Result.map (fun r -> r.Runner.stats) outcome);
        Result.iter (fun r -> runs := r :: !runs) outcome)
      points;
    total_s := !total_s +. !point_s;
    let keep = trace && p = 0 in
    passes :=
      {
        traced;
        kernels = (if keep then kernels else []);
        runs = (if keep then List.rev !runs else []);
        n_points = List.length points;
        committed = sum_stats (fun s -> s.Stats.committed) !runs;
        cycles = sum_stats (fun s -> s.Stats.cycles) !runs;
        point_s = !point_s;
        counters =
          List.map2 (fun n c -> (n, Metrics.get n - c)) counter_names counters0;
        timers =
          List.map2
            (fun n t -> (n, Metrics.get_float n -. t))
            timer_names timers0;
      }
      :: !passes;
    if !total_s < seconds || (trace && p mod 2 = 0) then loop (p + 1)
  in
  loop 0;
  Tracer.set_enabled false;
  (List.rev !passes, !latencies, !setups)

let metric name unit value =
  (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ])

let points_per_s passes =
  float_of_int (sum (fun p -> p.n_points) passes)
  /. sumf (fun p -> p.point_s) passes

let end_to_end passes latencies setups ~tail_q =
  let lat = Array.of_list latencies in
  Array.sort compare lat;
  let point_s = sumf (fun p -> p.point_s) passes in
  let committed = sum (fun p -> p.committed) passes in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    metric "points_per_s" "1/s" (points_per_s passes);
    metric "sim_minstr_per_s" "Minstr/s"
      (float_of_int committed /. point_s /. 1e6);
    metric "point_p50_ms" "ms" (Harness.percentile lat 50.0 *. 1000.0);
    metric "point_tail_ms" "ms" (Harness.percentile lat tail_q *. 1000.0);
    metric "setup_s" "s" (median setups);
    metric "heap_peak_mb" "MB"
      (float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0);
  ]

(* Per-layer metrics.  Exact counts come from the first (traced) pass,
   so they repeat between runs with the same seed; host times are
   totals per traced pass; throughputs come from the probes. *)
let per_layer wl ledger passes =
  let spans = Tracer.events () in
  let pass0 = List.hd passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let timer name = sumf (fun p -> List.assoc name p.timers) traced in
  let per_pass_ms name =
    timer name /. float_of_int (List.length traced) *. 1000.0
  in
  let count name = float_of_int (List.assoc name pass0.counters) in
  let hits, lookups =
    List.fold_left
      (fun (h, l) memo ->
        let mh = count ("memo." ^ memo ^ ".hits")
        and mm = count ("memo." ^ memo ^ ".misses") in
        (h +. mh, l +. mh +. mm))
      (0.0, 0.0)
      [ "analysis"; "baseline"; "tables" ]
  in
  let exact f = float_of_int (sum_stats f pass0.runs) in
  let traced_cycles = sum (fun p -> p.cycles) traced in
  let traced_committed = sum (fun p -> p.committed) traced in
  let traced_points = float_of_int (sum (fun p -> p.n_points) traced) in
  let self_us = Harness.self_time_by_cat spans in
  let self_ms =
    List.map
      (fun layer ->
        let us =
          sumf
            (fun (cat, us) ->
              if cat = layer || (cat = "sim" && layer = "t1000_ooo") then us
              else 0.0)
            self_us
        in
        metric ("self_ms_per_point." ^ layer) "ms"
          (us /. 1000.0 /. traced_points))
      span_layers
  in
  (* probes, traced like the passes *)
  Tracer.set_enabled true;
  trace_id := "probe";
  let alloc_kernels =
    List.map
      (fun (w : Workload.t) -> w.Workload.name)
      (take wl.alloc_kernels pass0.kernels)
  in
  let words, alloc_cycles =
    span "t1000_ooo" "probe.sim_alloc" (fun () ->
        List.fold_left
          (fun (words, cycles) (r : Runner.run) ->
            let name = r.Runner.workload.Workload.name in
            if not (List.mem name alloc_kernels) then (words, cycles)
            else begin
              let w, stats = resimulate r in
              if Harness.stats_digest stats
                 <> Harness.stats_digest r.Runner.stats
              then
                Harness.fail ledger ~label:("probe " ^ name)
                  "direct Sim.run re-simulation diverged from the point";
              (words +. w, cycles + stats.Stats.cycles)
            end)
          (0.0, 0) pass0.runs)
  in
  let fixed_us = span "t1000_ooo" "probe.sim_fixed" halt_us in
  let kernels = take wl.replay_kernels pass0.kernels in
  let steps = ref 0 in
  let _, interp_s =
    span "t1000_machine" "probe.interp" (fun () ->
        repeat_for ~min_s:0.3 (fun () ->
            List.iter (fun w -> steps := !steps + interp_run w) kernels))
  in
  let streams = List.map record_streams kernels in
  let n_acc = sum (fun s -> Array.length s.accesses) streams in
  let n_br = sum (fun s -> Array.length s.branches) streams in
  let cache_reps, cache_s =
    span "t1000_cache" "probe.cache" (fun () ->
        time_replays ~min_s:0.3 streams fresh_hierarchy replay_cache)
  in
  let bpred_reps, bpred_s =
    span "t1000_bpred" "probe.bpred" (fun () ->
        time_replays ~min_s:0.3 streams fresh_predictor replay_bpred)
  in
  Tracer.set_enabled false;
  let hierarchies =
    List.map
      (fun s ->
        let h = fresh_hierarchy () in
        replay_cache h s;
        h)
      streams
  in
  let miss_rate level =
    let a = sum (fun h -> T1000_cache.Cache.accesses (level h)) hierarchies in
    let m = sum (fun h -> T1000_cache.Cache.misses (level h)) hierarchies in
    if a = 0 then 0.0 else float_of_int m /. float_of_int a
  in
  let traced_pps = points_per_s traced in
  let untraced_pps = points_per_s untraced in
  let c = "count" in
  [
    metric "sim.mcycles_per_s" "Mcycles/s"
      (float_of_int traced_cycles /. timer "phase.sim.seconds" /. 1e6);
    metric "sim.minstr_per_s" "Minstr/s"
      (float_of_int traced_committed /. timer "phase.sim.seconds" /. 1e6);
    metric "sim.alloc_words_per_cycle" "words/cycle"
      (words /. float_of_int alloc_cycles);
    metric "sim.fixed_us" "us" fixed_us;
    metric "sim.cycles" c (exact (fun s -> s.Stats.cycles));
    metric "sim.committed" c (exact (fun s -> s.Stats.committed));
    metric "sim.cpi" "cycles/instr"
      (exact (fun s -> s.Stats.cycles) /. exact (fun s -> s.Stats.committed));
    metric "sim.pfu_misses" c (exact (fun s -> s.Stats.pfu_misses));
    metric "sim.pfu_stalls" c (exact (fun s -> s.Stats.pfu_stalls));
    metric "sim.fetch_stall_cycles" c
      (exact (fun s -> s.Stats.fetch_stall_cycles));
    metric "sim.ruu_full_stalls" c (exact (fun s -> s.Stats.ruu_full_stalls));
    metric "runner.verify_ms" "ms" (per_pass_ms "phase.verify.seconds");
    metric "runner.verify_calls" c (count "phase.verify.calls");
    metric "runner.select_ms" "ms" (per_pass_ms "phase.select.seconds");
    metric "runner.analyze_ms" "ms" (per_pass_ms "phase.analyze.seconds");
    metric "runner.sim_ms" "ms" (per_pass_ms "phase.sim.seconds");
    metric "select.tables" c (count "phase.select.calls");
    metric "experiment.memo_hit_ratio" "ratio"
      (if lookups = 0.0 then 0.0 else hits /. lookups);
    metric "interp.minstr_per_s" "Minstr/s"
      (float_of_int !steps /. interp_s /. 1e6);
    metric "cache.maccess_per_s" "Maccess/s"
      (float_of_int (n_acc * cache_reps) /. cache_s /. 1e6);
    metric "cache.l1i_miss_rate" "ratio" (miss_rate T1000_cache.Hierarchy.l1i);
    metric "cache.l1d_miss_rate" "ratio" (miss_rate T1000_cache.Hierarchy.l1d);
    metric "cache.l2_miss_rate" "ratio" (miss_rate T1000_cache.Hierarchy.l2);
    metric "bpred.mlookups_per_s" "Mlookup/s"
      (float_of_int (n_br * bpred_reps) /. bpred_s /. 1e6);
    metric "bpred.mispredicts" c (exact (fun s -> s.Stats.branch_mispredicts));
    metric "bpred.squashed_instrs" c (exact (fun s -> s.Stats.squashed_instrs));
    metric "bpred.wrong_path_fetched" c
      (exact (fun s -> s.Stats.wrong_path_fetched));
    metric "trace.points_per_s_traced" "1/s" traced_pps;
    metric "trace.points_per_s_untraced" "1/s" untraced_pps;
    metric "trace.overhead_pct" "%"
      ((untraced_pps -. traced_pps) /. untraced_pps *. 100.0);
  ]
  @ self_ms

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2

let main wl ~seed ~seconds ~trace =
  let ledger =
    Harness.ledger_of_lines ~workload:wl.name (read_lines (digest_file wl.name))
  in
  let passes, latencies, setups =
    run_passes wl ledger ~seed ~seconds ~trace
  in
  let per_pass = (List.hd passes).n_points in
  let n = List.length latencies in
  (* a run on a host slower than usual falls back to a lower percentile *)
  let tail_q =
    if Harness.beyond ~n wl.tail_q >= 10 then wl.tail_q
    else
      match Harness.tail_percentile n with
      | Some q -> q
      | None -> invalid_arg "too few points for a tail percentile"
  in
  let metrics =
    if trace then per_layer wl ledger passes
    else end_to_end passes latencies setups ~tail_q
  in
  let trace_file =
    if not trace then Json.Null
    else begin
      mkdir out_dir;
      let f =
        Filename.concat out_dir
          (Printf.sprintf "trace-%s-seed%d.json" wl.name seed)
      in
      Tracer.write_chrome f;
      Json.Str f
    end
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str wl.name);
            ("seed", Json.Num (float_of_int seed));
            ("ocaml_version", Json.Str Sys.ocaml_version);
            ("passes", Json.Num (float_of_int (List.length passes)));
            ("points_per_pass", Json.Num (float_of_int per_pass));
            ( "point_tail",
              Json.Str
                (Printf.sprintf "p%g of %d points (%d beyond)" tail_q n
                   (Harness.beyond ~n tail_q)) );
            ("trace_file", trace_file);
          ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (ledger.Harness.failed = 0));
            ("attempted", Json.Num (float_of_int ledger.Harness.attempted));
            ("failed", Json.Num (float_of_int ledger.Harness.failed));
            ("metrics", Json.Obj metrics);
          ]))

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  blank_t1000_env ();
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and record_name = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds of points");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--record", Arg.Set_string record_name, "NAME re-record NAME's digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !record_name <> "" then record (find_workload !record_name)
  else if !workload = "" || (!trace <> 0 && !trace <> 1) || !seconds <= 0.0
  then begin
    prerr_endline usage;
    exit 2
  end
  else
    main (find_workload !workload) ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1)
