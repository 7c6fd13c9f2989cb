(** Deterministic, seed-driven fault injection for the device pool.

    A [plan] reproduces measurement misbehaviour — transient timeouts,
    crashed runs, corrupted/outlier measurements. Outcomes are a pure
    hash of (plan seed, job, attempt number), so a plan injects exactly
    the same fault sequence on every run. *)

type rates = {
  timeout_rate : float;  (** transient: the job hangs until killed *)
  crash_rate : float;  (** transient: the run dies before reporting *)
  corrupt_rate : float;
      (** transient: the timed runs disagree wildly (an outlier) *)
}

(** All rates zero. *)
val no_fault_rates : rates

type outcome =
  | No_fault
  | Timeout
  | Crash
  | Corrupt of float  (** multiplier applied to the true measurement *)

type plan = { plan_seed : int; rates : rates }

(** The fault-free plan (the pool's default). *)
val none : plan

(** Transient faults at total rate [rate], split 50/30/20 between
    timeouts, crashes and corrupted measurements. *)
val transient : ?seed:int -> rate:float -> unit -> plan

(** Fault outcome for attempt number [attempt] of job [job] — a pure
    function of the plan, so fault sequences replay exactly. *)
val draw : plan -> job:int -> attempt:int -> outcome
