(* The benchmark's pure pieces: the exact Stats digest and its ledger,
   percentile selection, the kernel_stream seed mapping and span
   self-time accounting.  They live apart from main.ml so the harness
   tests can reach them. *)

open T1000_ooo

(* ---- exact output check ---- *)

(* Every Stats field, integers in decimal and floats in hexadecimal
   (%h, exact).  The record pattern names every field without a
   wildcard, so a field added to Stats stops this file compiling until
   the digest covers it too. *)
let stats_text (s : Stats.t) =
  let {
    Stats.cycles;
    committed;
    ext_committed;
    ipc;
    pfu_hits;
    pfu_misses;
    pfu_stalls;
    ruu_full_stalls;
    branch_mispredicts;
    squashes;
    squashed_instrs;
    wrong_path_fetched;
    recovery_cycles;
    fetch_stall_cycles;
    avg_ruu_occupancy;
    l1i_miss_rate;
    l1d_miss_rate;
    l2_miss_rate;
    itlb_miss_rate;
    dtlb_miss_rate;
  } =
    s
  in
  Printf.sprintf
    "cycles=%d committed=%d ext_committed=%d ipc=%h pfu_hits=%d \
     pfu_misses=%d pfu_stalls=%d ruu_full_stalls=%d branch_mispredicts=%d \
     squashes=%d squashed_instrs=%d wrong_path_fetched=%d \
     recovery_cycles=%d fetch_stall_cycles=%d avg_ruu_occupancy=%h \
     l1i_miss_rate=%h l1d_miss_rate=%h l2_miss_rate=%h itlb_miss_rate=%h \
     dtlb_miss_rate=%h"
    cycles committed ext_committed ipc pfu_hits pfu_misses pfu_stalls
    ruu_full_stalls branch_mispredicts squashes squashed_instrs
    wrong_path_fetched recovery_cycles fetch_stall_cycles avg_ruu_occupancy
    l1i_miss_rate l1d_miss_rate l2_miss_rate itlb_miss_rate dtlb_miss_rate

let stats_digest s = Digest.to_hex (Digest.string (stats_text s))

(* Recorded digests of one workload, point label -> digest, plus the
   running attempted/failed tally.  A failed point is printed to stderr
   with its workload and label as it happens. *)
type ledger = {
  workload : string;
  expected : (string, string) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
}

let ledger_of_lines ~workload lines =
  let expected = Hashtbl.create 256 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ label; digest ] -> Hashtbl.replace expected label digest
      | [ "" ] -> ()
      | _ -> invalid_arg (Printf.sprintf "bad digest line %S" line))
    lines;
  { workload; expected; attempted = 0; failed = 0 }

let fail ledger ~label reason =
  ledger.failed <- ledger.failed + 1;
  Printf.eprintf "FAILED %s %s: %s\n%!" ledger.workload label reason

(* Count one attempted point; [Error] when it raised or its digest is
   missing or differs from the recorded one. *)
let check ledger ~label (outcome : (Stats.t, string) result) =
  ledger.attempted <- ledger.attempted + 1;
  match outcome with
  | Error reason -> fail ledger ~label reason
  | Ok stats -> (
      let got = stats_digest stats in
      match Hashtbl.find_opt ledger.expected label with
      | Some want when String.equal want got -> ()
      | Some want ->
          fail ledger ~label
            (Printf.sprintf "stats digest %s, recorded %s (%s)" got want
               (stats_text stats))
      | None -> fail ledger ~label "no recorded digest")

(* ---- percentiles ---- *)

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "percentile: no samples";
  let rank = int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the nearest-rank position of [q]. *)
let beyond ~n q = n - int_of_float (Float.ceil (q /. 100.0 *. float_of_int n))

let tail_ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest ladder percentile with at least 10 of [n] samples beyond
   it, or [None] when [n] is too small for even the median. *)
let tail_percentile n = List.find_opt (fun q -> beyond ~n q >= 10) tail_ladder

(* ---- kernel_stream inputs ---- *)

(* Every kernel the stream can draw is one of [kernel_pool] generator
   seeds, so each has a recorded digest; the run's seed picks the
   sequence drawn from the pool. *)
let kernel_pool = 1024

let kernel_ids ~seed ~pass ~n =
  let s = T1000_fuzz.Rng.derive seed pass in
  List.init n (fun i -> T1000_fuzz.Rng.derive s i mod kernel_pool)

(* A permutation of [xs] determined by [seed]. *)
let shuffle ~seed xs =
  let a = Array.of_list xs in
  let rng = T1000_fuzz.Rng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = T1000_fuzz.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- span self time ---- *)

(* Self microseconds per category: each span's duration minus the part
   its direct children cover.  Spans of one domain nest by time, and
   [T1000_obs.Tracer.events] lists parents before their children. *)
let self_time_by_cat (events : T1000_obs.Tracer.event list) =
  let totals = Hashtbl.create 16 in
  let add cat us =
    Hashtbl.replace totals cat
      (us +. Option.value ~default:0.0 (Hashtbl.find_opt totals cat))
  in
  (* stack of (event, end time, children-covered time) *)
  let stack = ref [] in
  let close (e, _, covered) =
    add e.T1000_obs.Tracer.ev_cat (e.T1000_obs.Tracer.ev_dur_us -. covered)
  in
  let rec pop_until ts =
    match !stack with
    | ((_, stop, _) as top) :: rest when stop <= ts ->
        stack := rest;
        close top;
        pop_until ts
    | _ -> ()
  in
  List.iter
    (fun (e : T1000_obs.Tracer.event) ->
      pop_until e.ev_ts_us;
      (match !stack with
      | (p, stop, covered) :: rest ->
          stack := (p, stop, covered +. e.ev_dur_us) :: rest
      | [] -> ());
      stack := (e, e.ev_ts_us +. e.ev_dur_us, 0.0) :: !stack)
    events;
  pop_until infinity;
  Hashtbl.fold (fun cat us acc -> (cat, us) :: acc) totals []
  |> List.sort compare
