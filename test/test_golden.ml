(* Golden-artifact regression suite: the rendered text of every paper
   figure/table and DESIGN.md ablation, snapshotted under test/golden/
   and byte-diffed on every `dune runtest`.

   The experiment engine is deterministic, so any diff is a real
   behavior change — either a bug or an intentional model change.  To
   re-record after an intentional change:

     make golden        # = T1000_PROMOTE=1 dune exec test/test_golden.exe

   The snapshots are taken on a fixed two-workload suite (unepic +
   g721_dec, one EPIC-family and one telecom benchmark) so the suite
   stays fast and hermetic: T1000_WORKLOADS is deliberately ignored
   here, a subset run must not silently re-golden the repo. *)

open T1000

let golden_workloads = [ "unepic"; "g721_dec" ]

let golden_dir =
  match Sys.getenv_opt "T1000_GOLDEN_DIR" with
  | Some d when String.trim d <> "" -> d
  | Some _ | None -> "golden"

let promote () =
  match Sys.getenv_opt "T1000_PROMOTE" with
  | Some "1" -> true
  | Some _ | None -> false

let ctx =
  lazy
    (Experiment.create_ctx
       ~workloads:
         (List.map
            (fun n ->
              match T1000_workloads.Registry.find n with
              | Some w -> w
              | None -> Alcotest.failf "golden workload %s missing" n)
            golden_workloads)
       ())

(* Every registry artifact, exactly as bench/main.exe prints it (minus
   the banner), so the snapshots double as a regression net for the
   bench output; plus a small fixed-space DSE frontier. *)
let artifacts : (string * (Experiment.ctx -> string)) list =
  List.map
    (fun (a : Report.artifact) ->
      ( a.Report.id,
        fun c ->
          match a.Report.render c with
          | text, [] -> text
          | _, f :: _ ->
              Alcotest.failf "%s faulted: %a" a.Report.id Fault.pp
                f.Experiment.fault ))
    Report.artifacts
  @ [
      ( "dse",
        fun c ->
          Format.asprintf "%a" T1000_dse.Engine.pp_frontier
            (T1000_dse.Engine.explore ~budget:12 c
               (match
                  T1000_dse.Space.of_spec
                    "pfus=1,2,4:penalty=0,100,500:lut=150:repl=lru:gain=0.005:width=4"
                with
               | Ok s -> s
               | Error e -> Alcotest.failf "golden dse space: %s" e)) );
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* First line where the two renderings part ways, for a readable
   failure without shipping a diff implementation. *)
let first_divergence a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: _, [] -> Some (i, x, "<end of golden file>")
    | [], y :: _ -> Some (i, "<end of output>", y)
    | x :: ta, y :: tb ->
        if String.equal x y then go (i + 1) ta tb else Some (i, x, y)
  in
  go 1 la lb

(* Exact statistics ledger: every [Stats] field of a fixed run matrix,
   integers in decimal and floats in exact hex ([%h]), so a change that
   moves a single cycle anywhere in the suite shows up here even when
   the 3-decimal artifact renderings above stay put.  Unlike the
   artifacts it covers all eight workloads.  The matrix: the a7 points
   (baseline and selective@4 under perfect and bimodal-2k stall-on-
   mispredict prediction) plus baseline and greedy@2 under gshare@11
   with wrong-path fetch, followed by 2 PFUs at a 500-cycle
   reconfiguration penalty (greedy and selective under perfect
   prediction, greedy under gshare@11), where most cycles are PFU
   dispatch stalls. *)
let stats_line label (s : T1000_ooo.Stats.t) =
  let open T1000_ooo.Stats in
  Printf.sprintf
    "%s cycles=%d committed=%d ext_committed=%d ipc=%h pfu_hits=%d \
     pfu_misses=%d pfu_stalls=%d ruu_full_stalls=%d branch_mispredicts=%d \
     squashes=%d squashed_instrs=%d wrong_path_fetched=%d \
     recovery_cycles=%d fetch_stall_cycles=%d avg_ruu_occupancy=%h \
     l1i_miss_rate=%h l1d_miss_rate=%h l2_miss_rate=%h itlb_miss_rate=%h \
     dtlb_miss_rate=%h\n"
    label s.cycles s.committed s.ext_committed s.ipc s.pfu_hits s.pfu_misses
    s.pfu_stalls s.ruu_full_stalls s.branch_mispredicts s.squashes
    s.squashed_instrs s.wrong_path_fetched s.recovery_cycles
    s.fetch_stall_cycles s.avg_ruu_occupancy s.l1i_miss_rate s.l1d_miss_rate
    s.l2_miss_rate s.itlb_miss_rate s.dtlb_miss_rate

let stats_ledger () =
  let module M = T1000_ooo.Mconfig in
  let module Bp = T1000_bpred.Predictor in
  let machines =
    [
      ("perfect", M.default);
      ( "bimodal-2k",
        { M.default with M.bpred = Bp.Bimodal 11; wrong_path_fetch = false } );
    ]
  in
  let gshare = { M.default with M.bpred = Bp.Gshare 11 } in
  let points =
    List.concat_map
      (fun (ml, machine) ->
        [
          (ml ^ "/base", machine, Runner.setup Runner.Baseline);
          ( ml ^ "/sel4",
            machine,
            Runner.setup ~n_pfus:(Some 4) Runner.Selective );
        ])
      machines
    @ [
        ("gshare-11/base", gshare, Runner.setup Runner.Baseline);
        ("gshare-11/gr2", gshare, Runner.setup ~n_pfus:(Some 2) Runner.Greedy);
      ]
  in
  let p500 m = Runner.setup ~n_pfus:(Some 2) ~penalty:500 m in
  let points_p500 =
    [
      ("perfect/gr2-p500", M.default, p500 Runner.Greedy);
      ("perfect/sel2-p500", M.default, p500 Runner.Selective);
      ("gshare-11/gr2-p500", gshare, p500 Runner.Greedy);
    ]
  in
  let analyses =
    List.map (fun w -> (w, Runner.analyze w)) T1000_workloads.Registry.all
  in
  let buf = Buffer.create 32768 in
  List.iter
    (fun points ->
      List.iter
        (fun ((w : T1000_workloads.Workload.t), analysis) ->
          List.iter
            (fun (label, machine, s) ->
              let r = Runner.run ~analysis w { s with Runner.machine } in
              Buffer.add_string buf
                (stats_line
                   (w.T1000_workloads.Workload.name ^ "/" ^ label)
                   r.Runner.stats))
            points)
        analyses)
    [ points; points_p500 ];
  Buffer.contents buf

let check name render () =
  let got = render () in
  let path = Filename.concat golden_dir (name ^ ".txt") in
  if promote () then begin
    write_file path got;
    Format.printf "promoted %s@." path
  end
  else if not (Sys.file_exists path) then
    Alcotest.failf
      "no golden file %s — record it with `make golden` (T1000_PROMOTE=1)"
      path
  else
    let want = read_file path in
    if not (String.equal got want) then
      match first_divergence got want with
      | Some (line, g, w) ->
          Alcotest.failf
            "%s drifted from %s at line %d:@\n\
            \  output: %s@\n\
            \  golden: %s@\n\
             re-record intentional changes with `make golden`"
            name path line g w
      | None -> Alcotest.failf "%s differs from %s (whitespace only?)" name path

(* The CLI prints the same registry renderings, each followed by a
   newline: `t1000 experiment f2 a4` on the golden suite must reproduce
   the two snapshots byte for byte. *)
let test_cli_matches_goldens () =
  let cli =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "t1000_cli.exe"))
  in
  let env =
    Array.append
      [| "T1000_WORKLOADS=" ^ String.concat "," golden_workloads |]
      (Unix.environment ())
  in
  let ((out, inp, err) as p) =
    Unix.open_process_args_full cli [| cli; "experiment"; "f2"; "a4" |] env
  in
  close_out inp;
  let got = In_channel.input_all out in
  let errors = In_channel.input_all err in
  (match Unix.close_process_full p with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "t1000 experiment f2 a4 failed: %s" errors);
  let want =
    String.concat ""
      (List.map
         (fun id -> read_file (Filename.concat golden_dir (id ^ ".txt")) ^ "\n")
         [ "f2"; "a4" ])
  in
  if not (String.equal got want) then
    match first_divergence got want with
    | Some (line, g, w) ->
        Alcotest.failf
          "t1000 experiment f2 a4 drifted from the goldens at line %d:@\n\
          \  output: %s@\n\
          \  golden: %s"
          line g w
    | None -> Alcotest.fail "t1000 experiment f2 a4 differs from the goldens"

let () =
  Alcotest.run "golden"
    [
      ( "artifacts",
        List.map
          (fun (name, render) ->
            Alcotest.test_case name `Slow
              (check name (fun () -> render (Lazy.force ctx))))
          artifacts );
      ("ledger", [ Alcotest.test_case "stats" `Slow (check "stats" stats_ledger) ]);
      ( "cli",
        [ Alcotest.test_case "experiment f2 a4" `Slow test_cli_matches_goldens ]
      );
    ]
