(** Tuning flight recorder: a structured, append-only journal of every
    tuning trial's and compile job's full lifecycle.

    Each trial produces up to four kinds of records, keyed by a
    process-unique trial id ([uid]):

    - {b propose} — the explorer emitted the configuration: canonical
      config text, origin ([seed] / [random] / [sa] / [ga] /
      [compiler]), the simulated-annealing chain that found it, and the
      cost model's predicted score;
    - {b prepare} — lowering + featurization: whether this run had
      already compiled this configuration ([hit]/[miss], run-local, so
      a pre-warmed feature memo does not change it) and whether it
      compiled to a valid program;
    - {b dispatch} — one record per measurement attempt on the device
      pool: device id and name, attempt number, outcome ([ok] /
      [timeout] / [crash] / [corrupt] / [invalid_config] /
      [cancelled]), the attempt's simulated cost and queue wait;
    - {b measure} — the trial's final status and time, with the total
      attempt count.

    Determinism is the core contract, inherited from the PR-4/5 logs:
    every record is written on the coordinator domain, in input order —
    proposals and prepare outcomes during the tuner's sequential merge
    loops, dispatches during the device pool's sequential replay, and
    measure records during trial bookkeeping — and no record contains a
    wall-clock timestamp. A journal for a fixed seed is therefore
    byte-identical at any [-j] and with the compile cache on or off.

    The journal is disabled by default; when disabled every recording
    call is a single flag check. *)

type entry =
  | Run of { r_name : string; r_method : string; r_trials : int }
      (** a tuning run (or compile job group) started *)
  | Propose of {
      p_uid : int;
      p_origin : string;
      p_chain : int;  (** SA chain index, [-1] when not from SA *)
      p_score : float;  (** predicted score, [nan] when unpredicted *)
      p_config : string;
    }
  | Prepare of {
      q_uid : int;
      q_cache : string;  (** ["hit"] or ["miss"] (feature level) *)
      q_valid : bool;  (** compiled to a program *)
    }
  | Dispatch of {
      d_uid : int;
      d_dev : int;
      d_device : string;  (** device kind name *)
      d_attempt : int;  (** 0-based attempt number within the trial *)
      d_outcome : string;
      d_cost_s : float;  (** simulated cost charged to the device *)
      d_queue_s : float;  (** simulated wait for the device to free up *)
    }
  | Measure of {
      m_uid : int;
      m_status : string;
      m_time_s : float option;  (** [Some t] iff the status is [ok] *)
      m_attempts : int;
    }

val set_enabled : bool -> unit
(** Enabling an off journal also {!reset}s it. *)

val enabled : unit -> bool
val reset : unit -> unit

val fresh_uid : unit -> int
(** Next trial id. Always live (enabled or not) so uid sequences don't
    depend on observability flags; allocation order on the coordinator
    is what makes them deterministic. *)

(** Recording. Each call appends one record (no-op when disabled). *)

val run : name:string -> method_:string -> trials:int -> unit
val propose :
  uid:int -> origin:string -> chain:int -> score:float -> config:string -> unit
val prepare : uid:int -> cache:string -> valid:bool -> unit
val dispatch :
  uid:int ->
  dev:int ->
  device:string ->
  attempt:int ->
  outcome:string ->
  cost_s:float ->
  queue_s:float ->
  unit

val measure :
  uid:int -> status:string -> time_s:float option -> attempts:int -> unit

(** Job tags correlate device-pool jobs with trials: before submitting
    a measurement batch the tuner publishes the per-job trial ids for
    the current domain; the pool looks its job index up to attribute
    dispatch records. *)

val set_job_tags : int array -> unit
(** [tags.(j)] is the uid of batch job [j] on this domain. *)

val clear_job_tags : unit -> unit

val job_tag : int -> int
(** Uid for job [j], or [-1] when untagged (no dispatch records). *)

(** Access and serialization. *)

val entries : unit -> entry list
(** In record order. *)

val size : unit -> int

val entry_to_line : entry -> string
(** One JSON object, no trailing newline. Floats print at full
    precision ([%.17g]); [nan]/absent floats print as [null]. *)

val to_jsonl : unit -> string
val write_jsonl : string -> unit

val parse_line : string -> entry option
(** Inverse of {!entry_to_line}; [None] on blank/foreign lines. *)

val load_jsonl : string -> entry list
(** Parse a journal file, skipping unparseable lines. *)
