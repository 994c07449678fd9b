type t =
  | Invalid_config of string
  | Sim_stuck of T1000_ooo.Sim.stuck
  | Selfcheck_failed of string
  | Interp_fault of string
  | Verify_mismatch of string
  | Injected of string
  | Overloaded of string
  | Deadline_exceeded of string
  | Crashed of { exn : string; backtrace : string }

exception Error of t

let pp ppf = function
  | Invalid_config m -> Format.fprintf ppf "invalid configuration: %s" m
  | Sim_stuck s ->
      Format.fprintf ppf "simulator stuck: %a" T1000_ooo.Sim.pp_stuck s
  | Selfcheck_failed m -> Format.fprintf ppf "self-check failed: %s" m
  | Interp_fault m -> Format.fprintf ppf "architectural fault: %s" m
  | Verify_mismatch m -> Format.fprintf ppf "output verification failed: %s" m
  | Injected m -> Format.fprintf ppf "injected fault: %s" m
  | Overloaded m -> Format.fprintf ppf "overloaded: %s" m
  | Deadline_exceeded m -> Format.fprintf ppf "deadline exceeded: %s" m
  | Crashed { exn; backtrace } ->
      Format.fprintf ppf "crashed: %s%s" exn
        (if backtrace = "" then "" else "\n" ^ backtrace)

let to_string f = Format.asprintf "%a" pp f

let () =
  Printexc.register_printer (function
    | Error f -> Some ("Fault.Error: " ^ to_string f)
    | _ -> None)

let invalid_config fmt =
  Printf.ksprintf (fun s -> raise (Error (Invalid_config s))) fmt

let of_exn ?(backtrace = "") = function
  | Error f -> f
  | T1000_ooo.Sim.Sim_stuck s -> Sim_stuck s
  | T1000_ooo.Sim.Selfcheck_violation m -> Selfcheck_failed m
  | T1000_machine.Interp.Fault m -> Interp_fault m
  | e -> Crashed { exn = Printexc.to_string e; backtrace }

(* Transient faults are worth retrying: an injected chaos fault, a
   crash or a shed request may be environmental (a dying worker, a
   flaky disk, a momentarily full admission queue).  The deterministic
   pipeline faults (bad config, watchdog, self-check, verify) and an
   expired deadline would fail identically on every retry. *)
let transient = function
  | Injected _ | Overloaded _ | Crashed _ -> true
  | _ -> false

(* Exit-code policy shared by the CLI and CI: 2 = the run was
   misconfigured (bad setup field or environment variable), 3 = the run
   was configured fine but some points faulted (partial results). *)
let exit_code = function Invalid_config _ -> 2 | _ -> 3
