(* Tests for the speculative front end: the predictor structures
   themselves (saturating counters, gshare aliasing, BTB tagging and
   capacity eviction), and the simulator's wrong-path fetch / RUU
   squash machinery — perfect-vs-real byte-identity on branch-free
   code, architectural invariance on branchy code, squash recovery
   with extended instructions mid-flight, and back-to-back
   mispredicts. *)

open T1000_isa
open T1000_asm
open T1000_ooo
module Bp = T1000_bpred.Predictor
module R = Reg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- spec parsing / validation ---------- *)

let test_spec_parse () =
  let ok s = match Bp.spec_of_string s with Ok v -> v | Error e ->
    Alcotest.failf "spec %S rejected: %s" s e
  in
  let rejected s = Result.is_error (Bp.spec_of_string s) in
  check_bool "perfect" true (ok "perfect" = Bp.Perfect);
  check_bool "static" true (ok "static" = Bp.Static);
  check_bool "bimodal default bits" true
    (ok "bimodal" = Bp.Bimodal Bp.default_bits);
  check_bool "gshare colon bits" true (ok "gshare:12" = Bp.Gshare 12);
  check_bool "gshare at bits" true (ok "gshare@12" = Bp.Gshare 12);
  check_bool "unknown rejected" true (rejected "banana");
  check_bool "perfect takes no bits" true (rejected "perfect:4");
  check_bool "static takes no bits" true (rejected "static@8");
  check_bool "bits out of range" true (rejected "gshare:99");
  check_bool "zero bits" true (rejected "bimodal:0");
  check_bool "canonical round-trip" true
    (Bp.spec_of_string (Bp.spec_to_string (Bp.Gshare 12)) = Ok (Bp.Gshare 12));
  (match Bp.validate_spec (Bp.Bimodal (Bp.max_bits + 1)) with
  | () -> Alcotest.fail "oversized table accepted"
  | exception Invalid_argument _ -> ())

(* ---------- direction predictors ---------- *)

let test_static_direction () =
  let p = Bp.create Bp.Static in
  (* backward taken, forward not-taken *)
  check_bool "backward taken" true (Bp.predict_dir p ~index:100 ~target:50);
  check_bool "forward not taken" false
    (Bp.predict_dir p ~index:100 ~target:150);
  (* training is a no-op for static *)
  Bp.train_dir p ~index:100 ~taken:false;
  check_bool "immune to training" true
    (Bp.predict_dir p ~index:100 ~target:50)

let test_bimodal_learns_and_saturates () =
  let p = Bp.create (Bp.Bimodal 4) in
  let idx = 5 in
  (* counters start weakly taken *)
  check_bool "initially predicts taken" true
    (Bp.predict_dir p ~index:idx ~target:0);
  Bp.train_dir p ~index:idx ~taken:false;
  check_bool "one not-taken flips the weak counter" false
    (Bp.predict_dir p ~index:idx ~target:0);
  (* saturate at strongly-not-taken: one taken must not flip it back *)
  for _ = 1 to 10 do Bp.train_dir p ~index:idx ~taken:false done;
  Bp.train_dir p ~index:idx ~taken:true;
  check_bool "saturation gives hysteresis" false
    (Bp.predict_dir p ~index:idx ~target:0);
  Bp.train_dir p ~index:idx ~taken:true;
  check_bool "two takens retrain" true (Bp.predict_dir p ~index:idx ~target:0)

let test_bimodal_aliasing () =
  (* 2 bits = 4 counters: indices 3 and 7 share a slot *)
  let p = Bp.create (Bp.Bimodal 2) in
  for _ = 1 to 3 do Bp.train_dir p ~index:3 ~taken:false done;
  check_bool "alias sees the trained counter" false
    (Bp.predict_dir p ~index:7 ~target:0);
  (* distinct slot unaffected *)
  check_bool "other slot still weakly taken" true
    (Bp.predict_dir p ~index:2 ~target:0)

let test_gshare_history_disambiguates () =
  (* One branch index, two alternating history contexts: gshare keeps
     them in different counters, so after training it predicts each
     context correctly — a bimodal table cannot (same slot). *)
  let p = Bp.create (Bp.Gshare 6) in
  let idx = 9 in
  for _ = 1 to 8 do
    Bp.set_history p 0b1010;
    Bp.train_dir p ~index:idx ~taken:true;
    Bp.set_history p 0b0101;
    Bp.train_dir p ~index:idx ~taken:false
  done;
  Bp.set_history p 0b1010;
  check_bool "context A taken" true (Bp.predict_dir p ~index:idx ~target:0);
  Bp.set_history p 0b0101;
  check_bool "context B not taken" false
    (Bp.predict_dir p ~index:idx ~target:0);
  (* the same drill on a bimodal table ends wherever the last update
     left the single shared counter *)
  let q = Bp.create (Bp.Bimodal 6) in
  for _ = 1 to 8 do
    Bp.train_dir q ~index:idx ~taken:true;
    Bp.train_dir q ~index:idx ~taken:false
  done;
  let a = Bp.predict_dir q ~index:idx ~target:0 in
  let b = Bp.predict_dir q ~index:idx ~target:0 in
  check_bool "bimodal cannot split the contexts" true (a = b)

let test_history_rollback () =
  let p = Bp.create (Bp.Gshare 8) in
  let h0 = Bp.history p in
  Bp.spec_dir p ~taken:true;
  Bp.spec_dir p ~taken:false;
  check_bool "speculative updates shift history" true (Bp.history p <> h0);
  Bp.set_history p h0;
  check_int "squash restores the checkpoint" h0 (Bp.history p)

(* ---------- BTB ---------- *)

let test_btb_tagging_and_eviction () =
  let p = Bp.create (Bp.Gshare 8) in
  check_bool "cold miss" true (Bp.btb_lookup p ~index:12 = None);
  Bp.btb_update p ~index:12 ~target:345;
  check_bool "hit after update" true (Bp.btb_lookup p ~index:12 = Some 345);
  (* same set, different tag: a tagged BTB must miss, not alias *)
  let alias = 12 + Bp.btb_entries in
  check_bool "tag mismatch misses" true (Bp.btb_lookup p ~index:alias = None);
  (* capacity eviction in the direct-mapped set *)
  Bp.btb_update p ~index:alias ~target:999;
  check_bool "alias now resident" true
    (Bp.btb_lookup p ~index:alias = Some 999);
  check_bool "original evicted" true (Bp.btb_lookup p ~index:12 = None);
  (* retarget in place *)
  Bp.btb_update p ~index:alias ~target:777;
  check_bool "retarget" true (Bp.btb_lookup p ~index:alias = Some 777)

(* ---------- simulator integration ---------- *)

let build f =
  let b = Builder.create () in
  f b;
  Builder.build b

let run ?mconfig ?ext_latency ?ext_eval ?(selfcheck = true)
    ?(init = fun _ _ -> ()) p =
  Sim.run ?mconfig ?ext_latency ?ext_eval ~selfcheck ~init p

let with_bpred bpred = { Mconfig.default with Mconfig.bpred }

(* a counted loop: one mispredict per exit under any history-based
   predictor warmed on the taken back edge *)
let counted_loop ?(iters = 40) body =
  build (fun b ->
      Builder.li b R.t0 iters;
      Builder.label b "top";
      body b;
      Builder.addiu b R.t0 R.t0 (-1);
      Builder.bgtz b R.t0 "top";
      Builder.halt b)

let branch_free =
  build (fun b ->
      Builder.li b R.t0 1;
      for i = 0 to 30 do
        Builder.addu b (Reg.of_int (8 + (i mod 8))) R.t0 R.t0
      done;
      Builder.halt b)

let test_branch_free_byte_identity () =
  (* no branches: a real predictor never redirects, so every statistic
     matches perfect fetch exactly *)
  let s_perfect = run ~mconfig:(with_bpred Bp.Perfect) branch_free in
  let s_bimodal = run ~mconfig:(with_bpred (Bp.Bimodal 11)) branch_free in
  check_bool "identical stats records" true (s_perfect = s_bimodal);
  check_int "no squashes" 0 s_bimodal.Stats.squashes;
  check_int "no wrong-path fetch" 0 s_bimodal.Stats.wrong_path_fetched

let test_branchy_counters_nonzero () =
  let p = counted_loop (fun b -> Builder.addu b R.t1 R.t0 R.t0) in
  let s = run ~mconfig:(with_bpred (Bp.Bimodal 10)) p in
  check_bool "mispredicts seen" true (s.Stats.branch_mispredicts > 0);
  check_bool "squashes seen" true (s.Stats.squashes > 0);
  check_bool "wrong-path instructions fetched" true
    (s.Stats.wrong_path_fetched > 0);
  check_bool "recovery cycles accounted" true (s.Stats.recovery_cycles > 0)

let test_committed_is_predictor_independent () =
  let p = counted_loop (fun b -> Builder.addu b R.t1 R.t0 R.t0) in
  let reference = (run p).Stats.committed in
  let stall =
    { (with_bpred (Bp.Bimodal 8)) with Mconfig.wrong_path_fetch = false }
  in
  List.iter
    (fun (label, mconfig) ->
      check_int label reference (run ~mconfig p).Stats.committed)
    (("bimodal@8/stall", stall)
    :: List.map
         (fun bp -> (Bp.spec_to_string bp, with_bpred bp))
         [ Bp.Static; Bp.Bimodal 8; Bp.Gshare 8; Bp.Gshare 2 ]);
  (* the stall counterpart of squashes = branch_mispredicts: fetch
     blocks at each mispredict, so nothing is ever squashed *)
  let s = run ~mconfig:stall p in
  check_bool "stall: mispredicts seen" true (s.Stats.branch_mispredicts > 0);
  check_int "stall: no squashes" 0 s.Stats.squashes;
  check_int "stall: no recovery cycles" 0 s.Stats.recovery_cycles;
  check_int "stall: no wrong-path fetch" 0 s.Stats.wrong_path_fetched

let test_squash_mid_pfu_execution () =
  (* an extended instruction right after the loop branch: on every
     mispredicted exit iteration the wrong-path ext dispatches, pins a
     PFU configuration, and is squashed before issuing.  Selfcheck
     audits the PFU file at every commit, so a leaked pin fails the
     run; the hit/miss totals must stay architectural (50 uses). *)
  let eval _ v1 _ = Word.add v1 1 in
  let p =
    build (fun b ->
        Builder.li b R.t0 50;
        Builder.label b "top";
        Builder.ext b 0 R.t1 R.t0 R.zero;
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "top";
        Builder.ext b 1 R.t2 R.t1 R.zero;
        Builder.halt b)
  in
  let mconfig =
    Mconfig.with_pfus ~penalty:10 (Some 1)
      (with_bpred (Bp.Bimodal 10))
  in
  let s = run ~mconfig ~ext_eval:eval p in
  check_bool "squashed through the PFU file" true (s.Stats.squashes > 0);
  check_int "architectural ext commits" 51 s.Stats.ext_committed;
  (* same program under perfect fetch commits the same instructions *)
  let sp =
    run
      ~mconfig:(Mconfig.with_pfus ~penalty:10 (Some 1) Mconfig.default)
      ~ext_eval:eval p
  in
  check_int "committed matches perfect" sp.Stats.committed s.Stats.committed

let test_back_to_back_mispredicts () =
  (* alternating short loops: under a tiny gshare the exits keep
     mispredicting, so recoveries chain one right after another *)
  let p =
    build (fun b ->
        Builder.li b R.t3 12;
        Builder.label b "outer";
        Builder.li b R.t0 2;
        Builder.label b "a";
        Builder.addiu b R.t0 R.t0 (-1);
        Builder.bgtz b R.t0 "a";
        Builder.li b R.t1 2;
        Builder.label b "b";
        Builder.addiu b R.t1 R.t1 (-1);
        Builder.bgtz b R.t1 "b";
        Builder.addiu b R.t3 R.t3 (-1);
        Builder.bgtz b R.t3 "outer";
        Builder.halt b)
  in
  let s = run ~mconfig:(with_bpred (Bp.Gshare 2)) p in
  check_bool "many squashes" true (s.Stats.squashes >= 8);
  let sp = run ~mconfig:(with_bpred Bp.Perfect) p in
  check_int "architecture unharmed" sp.Stats.committed s.Stats.committed;
  check_bool "speculation costs cycles" true
    (s.Stats.cycles >= sp.Stats.cycles)

let test_wrong_path_pollutes_icache () =
  (* under a real predictor the wrong path is fetched through the
     instruction cache, so fetch counts exceed commit counts *)
  let p = counted_loop ~iters:60 (fun b -> Builder.addu b R.t1 R.t0 R.t0) in
  let s = run ~mconfig:(with_bpred Bp.Static) p in
  check_bool "wrong path fetched" true (s.Stats.wrong_path_fetched > 0);
  (* at most one unresolved mispredict at a time: recoveries and
     mispredicts pair up exactly *)
  check_int "one squash per mispredict" s.Stats.branch_mispredicts
    s.Stats.squashes

let () =
  Alcotest.run "t1000_bpred"
    [
      ( "spec",
        [ Alcotest.test_case "parse and validate" `Quick test_spec_parse ] );
      ( "direction",
        [
          Alcotest.test_case "static btfn" `Quick test_static_direction;
          Alcotest.test_case "bimodal saturation" `Quick
            test_bimodal_learns_and_saturates;
          Alcotest.test_case "bimodal aliasing" `Quick test_bimodal_aliasing;
          Alcotest.test_case "gshare history" `Quick
            test_gshare_history_disambiguates;
          Alcotest.test_case "history rollback" `Quick test_history_rollback;
        ] );
      ( "btb",
        [
          Alcotest.test_case "tagging and eviction" `Quick
            test_btb_tagging_and_eviction;
        ] );
      ( "sim",
        [
          Alcotest.test_case "branch-free byte identity" `Quick
            test_branch_free_byte_identity;
          Alcotest.test_case "branchy counters nonzero" `Quick
            test_branchy_counters_nonzero;
          Alcotest.test_case "committed predictor-independent" `Quick
            test_committed_is_predictor_independent;
          Alcotest.test_case "squash mid-PFU execution" `Quick
            test_squash_mid_pfu_execution;
          Alcotest.test_case "back-to-back mispredicts" `Quick
            test_back_to_back_mispredicts;
          Alcotest.test_case "wrong-path fetch" `Quick
            test_wrong_path_pollutes_icache;
        ] );
    ]
