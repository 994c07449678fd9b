(** Simulation statistics.

    The per-cycle counters ([fetch_stall_cycles], [ruu_full_stalls],
    [pfu_stalls] and the occupancy sum behind [avg_ruu_occupancy]) are
    charged in bulk across a quiet-cycle skip ({!Sim.run}): the skipped
    cycle count times the quiet cycle's delta, which is exactly what
    stepping those cycles would add. *)

type t = {
  cycles : int;
  committed : int;  (** instructions committed (extended instructions
                        count as one, as in the paper) *)
  ext_committed : int;
  ipc : float;
  pfu_hits : int;
  pfu_misses : int;  (** = reconfigurations *)
  pfu_stalls : int;  (** dispatch stalls waiting for an unpinned PFU *)
  ruu_full_stalls : int;  (** dispatch attempts blocked by a full RUU *)
  branch_mispredicts : int;  (** always 0 under perfect prediction *)
  squashes : int;
      (** misprediction recoveries that flushed the window (wrong-path
          fetch only; always 0 under [Mconfig.bpred = Perfect] and under
          stall-on-mispredict, [Mconfig.wrong_path_fetch = false]) *)
  squashed_instrs : int;
      (** wrong-path instructions dropped from the RUU and IFQ by
          squashes *)
  wrong_path_fetched : int;
      (** instructions synthesized down mispredicted paths *)
  recovery_cycles : int;
      (** cycles between misprediction detection at fetch and the
          resolving squash, summed over all mispredictions (0 wherever
          [squashes] is) *)
  fetch_stall_cycles : int;
      (** cycles the fetch stage spent blocked on instruction-cache
          misses or branch-redirect resolution *)
  avg_ruu_occupancy : float;  (** mean in-flight instructions per cycle *)
  l1i_miss_rate : float;
  l1d_miss_rate : float;
  l2_miss_rate : float;
  itlb_miss_rate : float;
  dtlb_miss_rate : float;
}

val speedup : baseline:t -> t -> float
(** [baseline.cycles / t.cycles] — execution-time speedup as plotted in
    the paper's figures. *)

val pp : Format.formatter -> t -> unit
