(** The one description of "a job" that every layer consumes.

    Before [tvmd], the same knobs were smeared across three surfaces:
    [Compiler.options], [Tuner.Options.t] and a pile of [tvmc] flags —
    adding one knob meant touching all three and keeping their defaults
    in sync by hand. A [Job_spec.t] is the single declarative record
    describing a compile/tune/profile job: what to build ([op],
    [workload], [target], [fusion]), how hard to search ([trials],
    [method_name], [seed], [batch], [sa_steps], [n_chains]), what
    resources to use ([jobs] host domains, [devices] simulated
    devices, or a [fleet] roster), the replay policy ([replay]) and the
    fault/retry policy ([fault_rate], [max_retries], [timeout_s]).
    [straggler] slows one device down; like [jobs] and [devices] it
    changes only the simulated makespan, never a result. Output
    sinks (journal, trace, metrics, tune log) are not part of a job:
    [tvmc] opens them around the run.

    [Compiler.build], [Tuner.tune], [tvmc] and the [tvmd] daemon all
    take this record; runtime handles that cannot be part of a
    declarative spec (a shared {e Tuner.Db}, a shared feature memo)
    stay explicit optional arguments at the call sites that own them.

    Specs serialize to single-line JSON ({!to_json}/{!of_json}), which
    is how [tvmc submit] hands jobs to [tvmd]'s trace queue. *)

type op =
  | Compile  (** build a whole network end to end *)
  | Tune  (** optimize one Table-2 operator workload *)
  | Profile
      (** compile, then price one inference from the kernels' modelled
          times without executing it *)

val op_name : op -> string
(** ["compile"] / ["tune"] / ["profile"]. *)

val op_of_name : string -> op
(** Inverse of {!op_name}; raises [Invalid_argument] on unknown. *)

type t = {
  op : op;
  workload : string;
      (** network name ([resnet18], [mobilenet], ...) for
          compile/profile jobs; Table-2 workload ([C1]..[C12],
          [D1]..[D9]) for tune jobs *)
  target : string;  (** [cuda] | [arm] | [mali] | [llvm] *)
  fusion : bool;  (** operator fusion on (§3) *)
  trials : int;
      (** tuning budget: measurements per tune job, or per kernel for a
          compile job (0 = heuristic default schedules) *)
  method_name : string;  (** [ml] | [random] | [genetic] *)
  seed : int;  (** fixed seed = fixed results at any [jobs] count *)
  batch : int;  (** configurations measured per model update *)
  sa_steps : int;  (** simulated-annealing walk length (§5.3) *)
  n_chains : int;  (** parallel annealing chains *)
  jobs : int;
      (** host domains for the parallel tuning phases; never changes
          which configurations are chosen *)
  devices : int;
      (** simulated replicas of the target board in the measurement
          pool. Like [jobs] it never changes outcomes (fault draws are
          keyed by job, not device), only the simulated makespan. *)
  validate : bool;  (** fail on provable TIR defects *)
  verbose : bool;
  use_compile_cache : bool;
      (** ignored: nothing reads it. Kept so that callers which still
          pass it, and stored specs which still carry it, keep
          building and parsing. *)
  replay : bool;
      (** reuse measurements recorded in a persisted [Tuner.Db] instead
          of re-dispatching them to the device pool — the warm-restart
          resume path. On a clean (fault-free) fleet the trial history
          is byte-identical to a live re-run. *)
  fault_rate : float;  (** per-attempt transient fault rate, 0 = off *)
  straggler : int option;  (** device to slow down 12x, if any *)
  max_retries : int;  (** extra measurement attempts after a fault *)
  timeout_s : float;  (** per-job budget on the simulated clock *)
  fleet : int;
      (** size of a heterogeneous measurement roster
          ({!Tvm_rpc.Device_pool.mixed_kinds}); 0 = [devices] replicas
          of the target *)
}

val default : t
(** [Tune] of [C7] on [cuda]: 64 trials, ML-guided, seed 42, batch 16,
    [jobs = Domain.recommended_domain_count ()], one device, caches on,
    no faults. *)

val make :
  ?op:op ->
  ?workload:string ->
  ?target:string ->
  ?fusion:bool ->
  ?trials:int ->
  ?method_name:string ->
  ?seed:int ->
  ?batch:int ->
  ?sa_steps:int ->
  ?n_chains:int ->
  ?jobs:int ->
  ?devices:int ->
  ?validate:bool ->
  ?verbose:bool ->
  ?use_compile_cache:bool ->
  ?replay:bool ->
  ?fault_rate:float ->
  ?straggler:int ->
  ?max_retries:int ->
  ?timeout_s:float ->
  ?fleet:int ->
  unit ->
  t
(** The one constructor: every field defaults to {!default}'s value. *)

(** {2 Envelope caps}

    The largest value {!of_json} accepts for each field that sizes an
    up-front allocation, so one hostile spool line cannot make [tvmd]
    build a billion-entry list. Each is well above what any caller in
    this repository passes. {!make} does not check them. *)

val max_batch : int
(** 1024: configurations per measurement batch (the genetic explorer's
    population). The device pool widens a tvmd batch to at most 512. *)

val max_n_chains : int
(** 1024: simulated-annealing chains. *)

val max_jobs : int
(** 128: host domains, the most an OCaml 5 program can run at once. *)

val max_devices : int
(** 10,000: replicas in the measurement pool. *)

val max_fleet : int
(** 10,000: devices in a heterogeneous roster ([make check-fleet]
    drives 1,000). *)

(** [int_of_num ?lo ?hi what v] is [v] as an int. Raises
    [Invalid_argument], naming [what], unless [v] is an integer in
    [[lo, hi]] (default [±2^53], where a JSON number is exact). Every
    integer field of a spec or a tvmd envelope is read through it. *)
val int_of_num : ?lo:int -> ?hi:int -> string -> float -> int

val to_json : t -> Tvm_obs.Json.t
val of_json : Tvm_obs.Json.t -> t
(** Missing fields take {!default}'s value and unknown fields are
    ignored, so specs stay readable across versions (an envelope that
    still carries a removed key, such as [journal_out], [trace_out],
    [metrics_out], [tune_log] or [speculate], parses).

    Raises [Invalid_argument] on non-object JSON, and on an integer
    field whose number is not an integer or is out of range: [trials],
    [sa_steps], [max_retries], [straggler] and [fleet] must be [>= 0];
    [batch], [n_chains], [jobs] and [devices] [>= 1]; the five capped
    fields at most their cap above; and every other integer field,
    like [seed], within [±2^53], where a JSON number is exact. *)

val to_string : t -> string
(** Single-line JSON (the [tvmc submit] wire format). *)

val of_string : string -> t
