(** Cycle-level, trace-driven simulation of the T1000 core.

    Pipeline model per cycle (walked back-to-front so that results
    produced in cycle [c] can feed instructions issuing in cycle [c]
    through the bypass network, and newly dispatched instructions issue
    no earlier than the following cycle):

    + {b commit} — up to [commit_width] completed entries leave the RUU
      head in order;
    + {b issue} — up to [issue_width] ready entries start execution,
      oldest first, subject to functional-unit availability; loads and
      stores probe the data cache here; extended instructions
      additionally require their configuration to be loaded
      ([min_issue]) and their PFU free this cycle;
    + {b dispatch} — up to [decode_width] instructions move from the
      fetch queue into the RUU; extended instructions perform the
      decode-stage configuration check against the {!Pfu_file} (a miss
      starts a reconfiguration; a fully pinned file stalls dispatch);
      register and store-to-load dependences are recorded;
    + {b fetch} — up to [fetch_width] instructions enter the fetch
      queue, stopping at taken branches and stalling on instruction-
      cache misses.  There is one fetch stage for every predictor.
      Under the default [Mconfig.bpred = Perfect] (paper Section 3.1)
      fetch follows the committed path exactly.  Under a real
      predictor ({!T1000_bpred.Predictor}) a mispredicted control
      instruction suspends correct-path fetch until it resolves.  With
      [Mconfig.wrong_path_fetch] (the default) fetch meanwhile follows
      the {e predicted} path: wrong-path instructions are synthesized
      from the static program image, dispatched into the RUU and PFU
      file, and squashed (window truncation, rename-map restore,
      configuration-pin release, history rollback) when the
      mispredicted branch resolves.  Without it fetch stalls
      (stall-on-mispredict) and nothing is squashed.  Squashed
      instructions never commit, so the committed instruction count is
      predictor-independent.  See DESIGN.md Section 5j.

    Memory disambiguation is perfect: effective addresses come from the
    functional interpreter, and a load waits only for older in-flight
    stores to the same word. *)

open T1000_isa
open T1000_asm
open T1000_machine

(** Diagnostic snapshot carried by {!Sim_stuck}: where the simulation
    was when the watchdog fired — program position (RUU head slot and
    instruction), window occupancy, fetch-queue depth and PFU-file
    statistics — so a stuck sweep point can be triaged from the fault
    report alone. *)
type stuck = {
  reason : [ `Cycle_budget | `No_commit ];
      (** [`Cycle_budget]: total cycles exceeded the budget;
          [`No_commit]: the RUU was non-empty but nothing committed for
          {!Mconfig.t.progress_window} cycles (scheduling deadlock) *)
  cycle : int;  (** cycle at which the watchdog fired *)
  limit : int;  (** the budget or window that was exceeded *)
  committed : int;  (** instructions committed so far *)
  head_slot : int;  (** static slot of the RUU head, -1 if empty *)
  head_instr : string;  (** rendered RUU-head instruction *)
  ruu_occupancy : int;
  ruu_size : int;
  ifq_length : int;
  pfu : string;  (** rendered PFU-file statistics *)
}

exception Sim_stuck of stuck
(** The watchdog tripped: runaway or deadlocked simulation. *)

exception Selfcheck_violation of string
(** An RUU or PFU-file structural invariant failed, or a cycle inside
    a quiet-cycle skip was not quiet, under [~selfcheck:true] — always
    a simulator bug, never a property of the simulated program. *)

val pp_stuck : Format.formatter -> stuck -> unit

val run :
  ?mconfig:Mconfig.t ->
  ?ext_latency:(int -> int) ->
  ?ext_eval:(int -> Word.t -> Word.t -> Word.t) ->
  ?selfcheck:bool ->
  init:(Memory.t -> Regfile.t -> unit) ->
  Program.t ->
  Stats.t
(** Simulate the program to completion.

    Two watchdogs bound every run: a total cycle budget
    ([mconfig.max_cycles]) and a forward-progress check (no commit for
    [mconfig.progress_window] cycles while instructions are in flight).
    Either tripping raises {!Sim_stuck} with a diagnostic snapshot
    instead of looping forever.

    The simulation is event-driven over quiet cycles: after a cycle in
    which no stage changed anything but the per-cycle accumulators, it
    jumps to the next cycle at which fetch resumes, a result becomes
    available or a configuration load finishes (never past the cycle
    at which a watchdog fires), charging the skipped cycles in bulk.
    The statistics are identical to stepping every cycle; the
    [sim.skipped_cycles] metric counts the cycles jumped over.

    [~selfcheck:true] additionally audits the RUU and PFU-file
    structural invariants after every committing cycle
    ({!Ruu.selfcheck}, {!Pfu_file.selfcheck}), and steps through every
    cycle a skip would have covered instead of jumping, checking that
    each repeats the quiet cycle exactly.  It raises
    {!Selfcheck_violation} on the first violation.  Statistics are
    unaffected.
    @raise T1000_machine.Interp.Fault on architectural faults.
    @raise Sim_stuck when a watchdog fires.
    @raise Selfcheck_violation under [~selfcheck:true] on an invariant
      violation. *)
