(** The automated optimization loop (§5, Fig 11).

    [tune] alternates between proposing candidate configurations
    (random search, a genetic algorithm, or the paper's ML-guided
    simulated annealing) and measuring them through a [measure_fn] —
    in the full system the RPC device pool. Measurements come back as
    structured {!Measure_result.t} values; failed trials are recorded
    with their failure category and never train the cost model. *)

exception Invalid_config of string
(** A template rejects a configuration it cannot build (a tile that
    does not divide its axis, too many threads): the moral equivalent
    of a failed on-device build. *)

type template = {
  tpl_name : string;
  tpl_space : Cfg_space.t;
  tpl_instantiate : Cfg_space.config -> Tvm_tir.Stmt.t;
      (** lowered program for a configuration; raises {!Invalid_config}
          on invalid ones *)
}

val try_instantiate : template -> Cfg_space.config -> Tvm_tir.Stmt.t option
(** [tpl_instantiate], with {!Invalid_config} as [None]. Any other
    exception is a bug and propagates. *)

type method_ = Ml_model | Random_search | Genetic_algorithm

val method_to_string : method_ -> string

(** [Job_spec.method_name] → method: accepts ["ml"]/["ml-based"],
    ["random"], ["genetic"]/["ga"]; raises [Invalid_argument]
    otherwise. *)
val method_of_name : string -> method_

type trial = {
  trial_index : int;  (** 1-based position in measurement order *)
  config : Cfg_space.config;
  result : Measure_result.t;
  best_so_far : float;  (** best successful time up to this trial *)
}

type result = {
  best_config : Cfg_space.config;
  best_time : float;  (** always finite: [tune] raises if no trial succeeded *)
  history : trial list;  (** in measurement order *)
  best_stmt : Tvm_tir.Stmt.t option;
      (** the program the best trial measured, handed forward so the
          caller need not re-lower [best_config]; [None] when that
          trial was replayed from the [db] *)
}

type measure_fn = Cfg_space.config -> Tvm_tir.Stmt.t -> Measure_result.t
(** Measure one instantiated configuration; failure is expressed only
    through [Measure_result.status], never as a sentinel float. *)

type batch_measure_fn =
  (Cfg_space.config * Tvm_tir.Stmt.t) array -> Measure_result.t array
(** Measure a whole batch at once — the device pool overlaps jobs on
    free devices (§5.4) — returning result [i] for job [i]. *)

(** A database of measurement records (§5.4's log), shared across
    tuning jobs so related workloads benefit from history. Keeps the
    complete record log, an O(1) first-measurement-per-configuration
    index (the replay resume path), and a per-status tally of failure
    categories.
    Domain-safe: every operation takes the database's mutex, so
    concurrent [add]s from different domains stay consistent. *)
module Db : sig
  type record = {
    db_key : string;
    db_config : Cfg_space.config;
    db_result : Measure_result.t;
  }

  type t

  val create : unit -> t
  val add : t -> string -> Cfg_space.config -> Measure_result.t -> unit

  (** First result ever recorded for (key, configuration) — the record
      a replaying tune run reuses instead of re-dispatching the
      measurement. Keyed on {!Cfg_space.canonical}, O(1). *)
  val find : t -> string -> Cfg_space.config -> Measure_result.t option

  val size : t -> int

  (** The complete log in chronological (oldest-first) order — what the
      persistent store serializes. *)
  val records : t -> record list

  (** Count of records with the given status name (see
      [Measure_result.status_name]). *)
  val status_count : t -> string -> int

  (** All (status name, count) pairs, sorted by name. *)
  val status_counts : t -> (string * int) list
end

(** Run the optimization loop for [n_trials] measurements (failed
    trials consume budget too). When [measure_batch] is given it is
    preferred over [measure]: each batch of valid candidates is handed
    to it whole, so the device pool can overlap jobs on free devices.

    [spec] supplies the loop knobs — [seed], [batch], [sa_steps],
    [n_chains], [jobs], [replay]; [method_] and
    [n_trials] stay explicit because callers split budgets and sweep
    methods independently of one spec ([Job_spec.trials] and
    [Job_spec.method_name] are for those callers to interpret).

    [db] is the shared measurement log; [cache] a shared feature memo
    (the compiler's per-group memo, or tvmd's per-template memo
    restored from its store) — [None] = a private memo per [tune]
    call; neither changes results.

    With [spec.replay] set, configurations whose measurement is already
    recorded in [db] (for this template, valid in [cache]) reuse
    the recorded result instead of dispatching to the device pool — the
    warm-restart resume path. On a clean fleet the trial history is
    byte-identical to an uninterrupted run; replayed trials skip the
    duplicate [Db.add] and count the [tuner.replayed] metric.

    Raises [Invalid_argument] if no configuration ever measured
    successfully. *)
val tune :
  ?spec:Tvm_spec.Job_spec.t ->
  ?db:Db.t ->
  ?cache:Compile_cache.t ->
  ?measure_batch:batch_measure_fn ->
  method_:method_ ->
  measure:measure_fn ->
  n_trials:int ->
  template ->
  result
