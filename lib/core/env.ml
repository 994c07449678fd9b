module Registry = T1000_workloads.Registry
module Predictor = T1000_bpred.Predictor
module Mconfig = T1000_ooo.Mconfig

type addr = Unix_sock of string | Tcp of string * int

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let parse_addr s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "address %S: expected unix:PATH or tcp:HOST:PORT" s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" ->
          if rest = "" then Error "unix address needs a socket path"
          else Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "tcp address %S: expected HOST:PORT" rest)
          | Some j -> (
              let host = String.sub rest 0 j in
              let port_s = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port_s with
              | Some p when p >= 0 && p <= 65535 && host <> "" ->
                  Ok (Tcp (host, p))
              | _ ->
                  Error
                    (Printf.sprintf "tcp address %S: bad host or port" rest)))
      | other ->
          Error
            (Printf.sprintf "unknown address scheme %S (unix: or tcp:)" other))

(* The trimmed value; unset and blank are the same thing. *)
let raw name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> ( match String.trim s with "" -> None | s -> Some s)

let get name ~expect ~default conv =
  match raw name with
  | None -> default
  | Some s -> (
      match conv s with
      | Some v -> v
      | None -> Fault.invalid_config "%s must be %s, got %S" name expect s)

let int_where ok s =
  match int_of_string_opt s with Some n when ok n -> Some n | _ -> None

(* Every comparison with NaN is false, so [ok] rejects it; infinities
   are rejected here. *)
let float_where ok s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x && ok x -> Some x
  | _ -> None

let positive = int_where (fun n -> n >= 1)
let opt conv s = Option.map Option.some (conv s)
let pos_int = "a positive integer"

let flag name =
  get name ~expect:"0/1/true/false/yes/no" ~default:false (fun s ->
      match String.lowercase_ascii s with
      | "0" | "false" | "no" -> Some false
      | "1" | "true" | "yes" -> Some true
      | _ -> None)

let njobs () =
  get "T1000_NJOBS" ~expect:pos_int
    ~default:(Domain.recommended_domain_count ())
    positive

let workloads () =
  let names =
    Option.fold ~none:[] ~some:(String.split_on_char ',') (raw "T1000_WORKLOADS")
    |> List.map String.trim
    |> List.filter (fun n -> n <> "")
  in
  match names with
  | [] -> Registry.all
  | _ ->
      List.map
        (fun n ->
          match Registry.find n with
          | Some w -> w
          | None ->
              Fault.invalid_config
                "unknown workload %S in T1000_WORKLOADS (known: %s)" n
                (String.concat ", " Registry.names))
        names

let max_cycles () =
  get "T1000_MAX_CYCLES" ~expect:pos_int ~default:None (opt positive)

let apply_max_cycles (m : Mconfig.t) =
  match max_cycles () with
  | Some max_cycles -> { m with Mconfig.max_cycles }
  | None -> m

let selfcheck () = flag "T1000_SELFCHECK"
let metrics () = flag "T1000_METRICS"

let bpred () =
  match raw "T1000_BPRED" with
  | None -> Predictor.Perfect
  | Some s -> (
      match Predictor.spec_of_string s with
      | Ok spec -> spec
      | Error e -> Fault.invalid_config "T1000_BPRED: %s" e)

let chaos () =
  get "T1000_CHAOS" ~expect:"a fault probability in [0, 1)" ~default:0.0
    (float_where (fun p -> p >= 0.0 && p < 1.0))

let chaos_seed () =
  get "T1000_CHAOS_SEED" ~expect:"an integer" ~default:1 int_of_string_opt

let retries () =
  get "T1000_RETRIES" ~expect:"a non-negative integer" ~default:None
    (opt (int_where (fun n -> n >= 0)))

let backoff_scale () =
  get "T1000_BACKOFF_SCALE" ~expect:"a non-negative finite float"
    ~default:1.0
    (float_where (fun x -> x >= 0.0))

(* The directory itself is created on demand, but a path naming an
   existing file can only be a misconfiguration: reject it here rather
   than when the first record is flushed mid-sweep. *)
let checkpoint_dir () =
  get "T1000_CHECKPOINT_DIR" ~expect:"a directory" ~default:None (fun d ->
      if Sys.file_exists d && not (Sys.is_directory d) then None
      else Some (Some d))

let fault_inject () =
  get "T1000_FAULT_INJECT"
    ~expect:
      (Printf.sprintf "a workload (%s) or fuzz-oracle"
         (String.concat ", " Registry.names))
    ~default:None
    (fun s ->
      if s = "fuzz-oracle" || Registry.find s <> None then Some (Some s)
      else None)

let memo_cap () =
  get "T1000_MEMO_CAP" ~expect:pos_int ~default:Memo.default_cap positive

let serve_queue () = get "T1000_SERVE_QUEUE" ~expect:pos_int ~default:64 positive

let serve_deadline_ms () =
  get "T1000_SERVE_DEADLINE_MS" ~expect:"a positive number of milliseconds"
    ~default:None
    (opt (float_where (fun d -> d > 0.0)))

let serve_addr () =
  match raw "T1000_SERVE_ADDR" with
  | None -> None
  | Some s -> (
      match parse_addr s with
      | Ok a -> Some a
      | Error msg -> Fault.invalid_config "T1000_SERVE_ADDR: %s" msg)

let serve_bench_requests () =
  get "T1000_SERVE_BENCH_REQUESTS" ~expect:pos_int ~default:8 positive

let knobs =
  let k name read = (name, fun () -> ignore (read ())) in
  [
    k "T1000_NJOBS" njobs;
    k "T1000_WORKLOADS" workloads;
    k "T1000_MAX_CYCLES" max_cycles;
    k "T1000_SELFCHECK" selfcheck;
    k "T1000_METRICS" metrics;
    k "T1000_BPRED" bpred;
    k "T1000_CHAOS" chaos;
    k "T1000_CHAOS_SEED" chaos_seed;
    k "T1000_RETRIES" retries;
    k "T1000_BACKOFF_SCALE" backoff_scale;
    k "T1000_CHECKPOINT_DIR" checkpoint_dir;
    k "T1000_FAULT_INJECT" fault_inject;
    k "T1000_MEMO_CAP" memo_cap;
    k "T1000_SERVE_QUEUE" serve_queue;
    k "T1000_SERVE_DEADLINE_MS" serve_deadline_ms;
    k "T1000_SERVE_ADDR" serve_addr;
    k "T1000_SERVE_BENCH_REQUESTS" serve_bench_requests;
  ]

let validate () = List.iter (fun (_, check) -> check ()) knobs
