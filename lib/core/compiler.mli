(** The end-to-end compiler (§2): graph in, deployable module out.

    Pipeline: high-level graph rewriting (operator fusion, §3) →
    per-fused-group tensor-expression construction → schedule-template
    instantiation → ML-based automated optimization (§5) over the RPC
    device pool → lowered kernels packaged with their I/O signature.

    Every knob comes in through one {!Tvm_spec.Job_spec.t}; tuned
    configurations are cached by workload signature (anchor op + shapes
    + target), so the twelve distinct ResNet convolutions are tuned
    once each however many times they repeat — and the cache contents
    round-trip through {!tuned_entries}/{!restore_tuned} so a service
    restart keeps them. *)

exception Validation_failed of string * Tvm_tir.Validate.violation list
(** Raised by {!build} when [spec.validate] is set and the named
    kernel's lowered program has provable defects. *)

type build_result = {
  module_ : Tvm_runtime.Rt_module.t;
  groups : Tvm_graph.Fusion.group list;
  graph : Tvm_graph.Graph_ir.t;
  tuning_trials_run : int;
}

type tuned_cache
(** A tuned-configuration cache: workload signature → (best config,
    best model time). [build] defaults to one process-global instance
    — the paper's shared history database; a caller needing isolation
    ([tvmd]'s private-by-default tenants) creates its own. *)

val create_tuned_cache : unit -> tuned_cache

(** Compile a graph for a target: the paper's
    [graph, lib, params = t.compiler.build (graph, target, params)].

    [spec] supplies every knob — fusion mode, tuning budget and method,
    seed, host domains, device fleet and fault/retry policy, cache
    policy ({!Tvm_spec.Job_spec.t}). [db] is a shared measurement log
    the per-kernel tuning runs record into and, with [spec.replay],
    resume from. [tuned] selects the tuned-configuration cache
    consulted and filled (default: the process-global one).
    Deterministic: a fixed spec gives bit-identical results at any
    [spec.jobs]. *)
val build :
  ?spec:Tvm_spec.Job_spec.t ->
  ?db:Tvm_autotune.Tuner.Db.t ->
  ?tuned:tuned_cache ->
  Tvm_graph.Graph_ir.t ->
  Target.t ->
  build_result

(** {!build} + wrap in a graph executor ([runtime.create] of §2). *)
val build_executor :
  ?spec:Tvm_spec.Job_spec.t ->
  ?db:Tvm_autotune.Tuner.Db.t ->
  ?tuned:tuned_cache ->
  Tvm_graph.Graph_ir.t ->
  Target.t ->
  build_result * Tvm_runtime.Graph_executor.t

(** Drop the process-global tuned-configuration cache (test hygiene,
    or to force a full re-tune). *)
val clear_cache : unit -> unit

(** Tuned-cache contents — (workload signature, best configuration,
    best model time), sorted by signature — what the persistent store
    serializes so a warm restart skips repeat tuning. [cache] defaults
    to the process-global instance. *)
val tuned_entries :
  ?cache:tuned_cache ->
  unit ->
  (string * Tvm_autotune.Cfg_space.config * float) list

(** Preload a tuned cache (a store load on daemon startup). Existing
    in-process entries win: they were tuned live by this process. *)
val restore_tuned :
  ?cache:tuned_cache ->
  (string * Tvm_autotune.Cfg_space.config * float) list ->
  unit
