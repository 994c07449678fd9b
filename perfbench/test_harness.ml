(* Tests of the benchmark harness: tail-percentile selection, the exact
   Stats digest check and the kernel_stream seed mapping. *)

open T1000_ooo

let test_tail_keeps_ten_beyond () =
  for n = 1 to 3000 do
    match Harness.tail_percentile n with
    | None -> Alcotest.(check bool) "only tiny runs lack a tail" true (n < 20)
    | Some q ->
        let sorted = Array.init n float_of_int in
        let p = Harness.percentile sorted q in
        let above =
          Array.fold_left (fun a x -> if x > p then a + 1 else a) 0 sorted
        in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d p%g leaves %d beyond" n q above)
          true (above >= 10);
        (* and it is the highest ladder entry that does *)
        List.iter
          (fun q' ->
            if q' > q then
              Alcotest.(check bool)
                (Printf.sprintf "n=%d p%g is too high" n q')
                true
                (Harness.beyond ~n q' < 10))
          Harness.tail_ladder
  done

let base =
  {
    Stats.cycles = 1000;
    committed = 800;
    ext_committed = 40;
    ipc = 0.8;
    pfu_hits = 30;
    pfu_misses = 10;
    pfu_stalls = 3;
    ruu_full_stalls = 7;
    branch_mispredicts = 5;
    squashes = 5;
    squashed_instrs = 21;
    wrong_path_fetched = 25;
    recovery_cycles = 40;
    fetch_stall_cycles = 90;
    avg_ruu_occupancy = 12.25;
    l1i_miss_rate = 0.01;
    l1d_miss_rate = 0.02;
    l2_miss_rate = 0.3;
    itlb_miss_rate = 0.001;
    dtlb_miss_rate = 0.002;
  }

(* One mutation per Stats field; floats move by one ulp. *)
let mutations =
  let up = Float.succ in
  Stats.
    [
      ("cycles", fun s -> { s with cycles = s.cycles + 1 });
      ("committed", fun s -> { s with committed = s.committed + 1 });
      ("ext_committed", fun s -> { s with ext_committed = s.ext_committed + 1 });
      ("ipc", fun s -> { s with ipc = up s.ipc });
      ("pfu_hits", fun s -> { s with pfu_hits = s.pfu_hits + 1 });
      ("pfu_misses", fun s -> { s with pfu_misses = s.pfu_misses + 1 });
      ("pfu_stalls", fun s -> { s with pfu_stalls = s.pfu_stalls + 1 });
      ( "ruu_full_stalls",
        fun s -> { s with ruu_full_stalls = s.ruu_full_stalls + 1 } );
      ( "branch_mispredicts",
        fun s -> { s with branch_mispredicts = s.branch_mispredicts + 1 } );
      ("squashes", fun s -> { s with squashes = s.squashes + 1 });
      ( "squashed_instrs",
        fun s -> { s with squashed_instrs = s.squashed_instrs + 1 } );
      ( "wrong_path_fetched",
        fun s -> { s with wrong_path_fetched = s.wrong_path_fetched + 1 } );
      ( "recovery_cycles",
        fun s -> { s with recovery_cycles = s.recovery_cycles + 1 } );
      ( "fetch_stall_cycles",
        fun s -> { s with fetch_stall_cycles = s.fetch_stall_cycles + 1 } );
      ( "avg_ruu_occupancy",
        fun s -> { s with avg_ruu_occupancy = up s.avg_ruu_occupancy } );
      ("l1i_miss_rate", fun s -> { s with l1i_miss_rate = up s.l1i_miss_rate });
      ("l1d_miss_rate", fun s -> { s with l1d_miss_rate = up s.l1d_miss_rate });
      ("l2_miss_rate", fun s -> { s with l2_miss_rate = up s.l2_miss_rate });
      ( "itlb_miss_rate",
        fun s -> { s with itlb_miss_rate = up s.itlb_miss_rate } );
      ( "dtlb_miss_rate",
        fun s -> { s with dtlb_miss_rate = up s.dtlb_miss_rate } );
    ]

let test_every_field_is_checked () =
  let ledger =
    Harness.ledger_of_lines ~workload:"test"
      [ "p " ^ Harness.stats_digest base ]
  in
  Harness.check ledger ~label:"p" (Ok base);
  Alcotest.(check int) "the recorded stats pass" 0 ledger.Harness.failed;
  List.iteri
    (fun i (field, mutate) ->
      let s = mutate base in
      Alcotest.(check bool)
        (field ^ " changes the digest")
        false
        (Harness.stats_digest s = Harness.stats_digest base);
      Harness.check ledger ~label:"p" (Ok s);
      Alcotest.(check int)
        (field ^ " fails the point")
        (i + 1) ledger.Harness.failed)
    mutations;
  Alcotest.(check int) "every Stats field has a mutation" 20
    (List.length mutations);
  Harness.check ledger ~label:"p" (Error "Fault");
  Harness.check ledger ~label:"unrecorded" (Ok base);
  Alcotest.(check int) "a raising or unrecorded point fails too" 22
    ledger.Harness.failed;
  Alcotest.(check int) "every check is attempted" 23 ledger.Harness.attempted

let kernels ~seed =
  List.map
    (fun id ->
      Format.asprintf "%a" T1000_asm.Program.pp
        (T1000_fuzz.Gen.program (T1000_fuzz.Gen.generate ~seed:id)))
    (Harness.kernel_ids ~seed ~pass:0 ~n:50)

let test_stream_seeded () =
  Alcotest.(check (list string)) "same seed, same kernels" (kernels ~seed:7)
    (kernels ~seed:7);
  Alcotest.(check bool) "another seed, other kernels" false
    (kernels ~seed:7 = kernels ~seed:8);
  Alcotest.(check bool) "another pass, other kernels" false
    (Harness.kernel_ids ~seed:7 ~pass:0 ~n:50
    = Harness.kernel_ids ~seed:7 ~pass:1 ~n:50);
  List.iter
    (fun id ->
      Alcotest.(check bool) "ids stay in the recorded pool" true
        (id >= 0 && id < Harness.kernel_pool))
    (Harness.kernel_ids ~seed:7 ~pass:3 ~n:1000)

let () =
  Alcotest.run "perfbench harness"
    [
      ( "harness",
        [
          Alcotest.test_case "tail percentile keeps 10 beyond" `Quick
            test_tail_keeps_ten_beyond;
          Alcotest.test_case "every Stats field is checked" `Quick
            test_every_field_is_checked;
          Alcotest.test_case "kernel_stream is seeded" `Quick
            test_stream_seeded;
        ] );
    ]
