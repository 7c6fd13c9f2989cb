(** Simulated measurement device pool behind an RPC tracker (§5.4,
    Fig 11), from a handful of replicas of one board up to fleets of a
    thousand heterogeneous devices.

    A pool is a roster of devices (kind + host-side speed factor).
    Each measurement batch is pinned to one device kind and put on
    {b one FIFO pull queue}: every idle device of that kind, in
    device-id order, takes the oldest queued job, and a retried job
    re-enters at the back. Each device pays the upload/RPC overhead
    once per batch, and each attempt runs exactly once, on one device.
    Measurements come from the analytical machine models plus
    deterministic noise keyed by the configuration, returned as
    structured {!Measure_result.t} values.

    The pool is fault-tolerant: a {!Fault.plan} injects deterministic
    transient timeouts, crashes and corrupted measurements, and a
    {!Retry_policy.t} governs bounded retries with backoff and the
    per-job budget.

    {b Determinism.} Pure model times fan out over a {!Tvm_par.Pool};
    the whole virtual-time schedule (an {!Event_queue} of run
    completions and one of retries, fault draws, journal records)
    then replays sequentially on the calling domain. Results
    are made {e placement-invariant}:

    - fault draws are keyed by the job's {e submission ordinal}, never
      by the device that happens to run it;
    - every job is pinned to one device {e kind}, so the model time
      does not depend on which device runs it;
    - per-device speed factors scale only the {e charged} duration,
      never the measured value nor the deterministic-overrun check;
    - backoff is charged to the job's ready time
      ({!Retry_policy.retry_at}), never to a device.

    Consequently trial results (and thus tuning logs at a fixed batch
    width) are byte-identical across [-j], device count and
    stragglers; the journal additionally records placement, so it is
    byte-identical across [-j] at a fixed roster. *)

module Machine = Tvm_sim.Machine
module Measure_result = Tvm_autotune.Measure_result

type device_kind =
  | Cpu_dev of Machine.cpu
  | Gpu_dev of Machine.gpu

val kind_name : device_kind -> string
val is_gpu : device_kind -> bool
val is_cpu : device_kind -> bool

(** Immutable pool description: the device roster and policies,
    shareable across tuning jobs. *)
type catalog

type t
(** A pool session: one virtual-time schedule over a catalog. Sessions
    are cheap; concurrent tuning jobs each run their own salted session
    of a shared catalog. *)

val catalog :
  ?noise:float ->
  ?overhead_s:float ->
  ?per_job_s:float ->
  ?fault_plan:Fault.plan ->
  ?retry:Retry_policy.t ->
  (device_kind * float) list ->
  catalog
(** [catalog roster] with [(kind, speed)] per device; [speed >= 1] is a
    host-side slowness multiplier on charged time. [overhead_s] (default 0.5) is paid once per device
    per batch; [per_job_s] (default 0.05) is the per-job dispatch cost;
    [noise] defaults to 0.02. Each measurement is timed 3 times. *)

val mixed_kinds :
  ?primary:device_kind -> ?straggler:int -> int -> (device_kind * float) list
(** A deterministic heterogeneous roster of [n] devices: every even
    slot is [primary] (default Titan X), odd slots cycle through the
    other kinds; mild deterministic speed variation, plus one
    [straggler] device slowed 12× if given. The straggler is always of
    the primary kind, so it runs the target's jobs and [tvmc report]
    can flag it. *)

val catalog_of_spec : ?kind:device_kind -> Tvm_spec.Job_spec.t -> catalog
(** The roster a spec asks for, of kind [kind] (default: the board
    [Target.of_name spec.target] would pick — [cuda] → Titan X,
    [mali] → Mali T860, [arm] → A53, [llvm] → Xeon; any other name
    raises [Invalid_argument]):
    - [spec.fleet > 0]: [spec.fleet] devices from {!mixed_kinds};
    - otherwise [spec.devices] replicas of [kind] with single-board
      tracker costs: noise 0.05, 0.5 s per job, no per-batch upload.

    [spec.straggler] slows that device 12×. Both rosters share the
    transient faults at [spec.fault_rate] seeded by [spec.seed], the
    retries/budget from [spec.max_retries]/[spec.timeout_s]. *)

val session : ?salt:int -> catalog -> t
(** Fresh schedule state over [cat]. [salt] (default 0) decorrelates
    fault sequences between concurrent tuning jobs sharing a catalog;
    results depend on it, so callers must derive it deterministically
    (tvmd uses the job id). *)

val of_spec : ?kind:device_kind -> Tvm_spec.Job_spec.t -> t
(** [session ~salt:spec.seed (catalog_of_spec ?kind spec)]. *)

val usable : t -> kind:device_kind -> int
(** Devices whose kind matches [kind] by name. *)

val suggested_batch : t -> kind:device_kind -> base:int -> int
(** Measurement batch size that keeps the matching devices busy:
    [max base (2 × usable)], capped at 512. *)

val makespan : t -> float
(** Virtual time at which everything submitted so far has finished. *)

type stats = {
  fs_devices : int;
  fs_jobs : int;  (** measurement jobs submitted *)
  fs_attempts : int;
  fs_retries : int;
}

val stats : t -> stats

val measure_batch :
  ?par:Tvm_par.Pool.t ->
  t ->
  kind_pred:(device_kind -> bool) ->
  (int * Tvm_tir.Stmt.t) array ->
  Measure_result.t array
(** Measure a batch of (noise key, program) jobs, pinned to the first
    roster kind [kind_pred] accepts. Model times fan out over [par];
    the schedule replays on the caller. Result [i] belongs to job [i]
    and is independent of [par] and roster size. With no
    matching kind every job gets a [Pool_error] result. *)

val simulate :
  t -> kind:device_kind -> cost_s:float array -> Measure_result.t array
(** Drive the engine with synthetic model times instead of lowered
    programs (no noise applied) — the fleet bench's workload. It
    publishes no metrics, so synthetic jobs never mix into the
    tuning runs' [pool.*] histograms; read {!stats} instead. *)

val measure_fn :
  t -> kind_pred:(device_kind -> bool) -> Tvm_autotune.Tuner.measure_fn

val batch_measure_fn :
  ?par:Tvm_par.Pool.t ->
  t ->
  kind_pred:(device_kind -> bool) ->
  Tvm_autotune.Tuner.batch_measure_fn
(** Tuner-ready callbacks; noise keys come from the config hash. *)
