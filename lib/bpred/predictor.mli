(** Branch direction and target prediction for the speculative front
    end of {!T1000_ooo.Sim}.

    The paper simulates with perfect prediction; this module supplies
    the realistic alternatives used by the branch-prediction ablations
    (a7, a9) and the [bpred] DSE axis:

    - [Perfect]: every control transfer predicted correctly (the
      default — the simulator's original exact trace-driven mode).
    - [Static]: backward-taken / forward-not-taken; no state.
    - [Bimodal n]: classic per-index 2-bit saturating counters,
      [2^n] entries.
    - [Gshare n]: global-history XOR-indexed 2-bit counters,
      [2^n] entries, history length [min n 16].

    Every non-perfect predictor also carries a tagged direct-mapped
    BTB ({!btb_entries} entries) for indirect-jump ([jr]/[jalr])
    targets; direct targets ([branch]/[j]/[jal]) are static slot
    indexes and never need it.

    All tables are preallocated at {!create}: prediction, training and
    history checkpoint/restore are allocation-free.  This library sits
    below [lib/core], so invalid specs raise [Invalid_argument]
    (mapped to the exit-2 misconfiguration policy by callers). *)

type spec =
  | Perfect
  | Static
  | Bimodal of int  (** [log2] table entries *)
  | Gshare of int  (** [log2] table entries *)

val min_bits : int
(** Smallest accepted table size exponent (1). *)

val max_bits : int
(** Largest accepted table size exponent (20, a 1M-entry table). *)

val default_bits : int
(** Table size exponent used when [KIND] is given without [:bits]
    (11, i.e. 2048 entries — the a7 ablation's bimodal size). *)

val btb_entries : int
(** Fixed BTB capacity (direct-mapped, tagged). *)

val validate_spec : spec -> unit
(** @raise Invalid_argument when table bits fall outside
    [\[min_bits, max_bits\]]. *)

val spec_of_string : string -> (spec, string) result
(** Parses ["perfect"], ["static"], ["bimodal"], ["gshare"], with an
    optional [:BITS] or [@BITS] suffix on the table-backed kinds
    (['@'] is the separator used inside DSE axis specs, where [':']
    delimits axes). *)

val spec_to_string : spec -> string
(** Canonical rendering, ['@'] separator: ["gshare@12"].  Inverse of
    {!spec_of_string}. *)

val pp_spec : Format.formatter -> spec -> unit

val is_perfect : spec -> bool

type t

val create : spec -> t
(** @raise Invalid_argument as {!validate_spec}. *)

val spec : t -> spec

val predict_dir : t -> index:int -> target:int -> bool
(** Predicted direction for a conditional branch at static slot
    [index] with (static) taken-target [target].  Pure: no state is
    updated. *)

val train_dir : t -> index:int -> taken:bool -> unit
(** Resolve a correct-path conditional branch: update the 2-bit
    counter toward [taken] and shift [taken] into the global
    history. *)

val spec_dir : t -> taken:bool -> unit
(** Speculatively shift a wrong-path branch's predicted direction
    into the global history (no counter update — the outcome is never
    architecturally known). *)

val history : t -> int
(** Global-history checkpoint, taken when a misprediction is
    detected. *)

val set_history : t -> int -> unit
(** Restore a {!history} checkpoint on squash. *)

val btb_lookup : t -> index:int -> int option
(** Predicted target of the indirect jump at [index], if the tagged
    entry matches. *)

val btb_update : t -> index:int -> target:int -> unit
(** Record the resolved target of a correct-path indirect jump
    (direct-mapped: evicts whatever aliases the set). *)
