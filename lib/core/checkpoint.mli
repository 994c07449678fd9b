(** Checkpoint/resume journal for the experiment engine.

    A sweep driver records each completed (workload x point) result as
    it arrives; a re-run of the same sweep with the same journal skips
    every recorded point and recomputes only the rest, so a killed
    multi-hour sweep resumes instead of restarting from zero — and the
    resumed rows are byte-identical to an uninterrupted run (marshalled
    OCaml values round-trip exactly; the test suite asserts this).

    Robustness properties:
    - every write is a full rewrite into a temp file followed by an
      atomic [rename], so a kill at any instant leaves either the old
      or the new journal, never a torn one;
    - every record carries an MD5 checksum over its key and payload;
      records that fail the check at load time are dropped (reported
      via {!corrupt}) and their points recomputed;
    - {!record} is mutex-protected and safe to call concurrently from
      the {!Pool} workers' completion callback.

    Journals live under a directory the caller names explicitly, or the
    [T1000_CHECKPOINT_DIR] environment variable ({!Env.checkpoint_dir}), one
    [<run>.journal] file per sweep. *)

type t

val create : ?fresh:bool -> dir:string -> run:string -> unit -> t
(** Open (creating [dir] as needed) the journal for [run].  An existing
    journal is loaded, dropping corrupted records; [~fresh:true]
    discards it instead, for a from-scratch run. *)

val path : t -> string

val completed : t -> int
(** Number of valid records currently held. *)

val corrupt : t -> string list
(** One diagnostic per record dropped at load time (checksum mismatch,
    undecodable or malformed line).  Empty for a healthy journal. *)

val mem : t -> key:string -> bool

val find : t -> key:string -> 'a option
(** The recorded value for [key], if any.  The value is unmarshalled at
    the type the caller expects; as with any [Marshal] round-trip the
    caller must read at the type it wrote — the {!Experiment} drivers
    guarantee this by deriving keys from the driver id, workload and
    point label. *)

val record : t -> key:string -> 'a -> unit
(** Record (or overwrite) the value for [key] and atomically persist
    the journal. *)
