(** Multi-model serving executor: several compiled networks loaded at
    once, concurrent requests served on the deterministic virtual
    clock (Fig 21's serving scenario).

    Three serving-time optimizations over the single-request
    {!Tvm_runtime.Graph_executor}:

    - {b dynamic batching}: compatible same-model requests coalesce
      along the batch axis under a max-batch / max-delay policy;
    - {b cross-request slab reuse}: activation storage comes from a
      shared {!Tvm_graph.Mem_plan.Arena} spanning all in-flight
      requests instead of private per-request buffers;
    - {b heterogeneous dispatch}: a graph's fused groups split across
      cpu + gpu + vdla by per-group estimated cost plus cross-device
      transfer.

    Determinism: model loading fans out over [lanes] domains (private
    caches, sequential host parallelism); the schedule itself is a
    sequential virtual-clock simulation on the coordinator — results
    are byte-identical at any lane count. *)

type device = Cpu | Gpu | Vdla

val device_name : device -> string

(** Batch efficiency on [dev]: time(k) = time(1) · {!batch_eff} dev k. *)
val batch_eff : device -> int -> float

type config = {
  cf_max_batch : int;  (** coalescing cap; 1 disables batching *)
  cf_max_delay_s : float;  (** max wait before a partial batch launches *)
  cf_max_inflight : int;  (** concurrent batches admitted *)
  cf_hetero : bool;  (** heterogeneous dispatch (off: all groups on gpu) *)
}

val config :
  ?max_batch:int ->
  ?max_delay_s:float ->
  ?max_inflight:int ->
  ?hetero:bool ->
  unit ->
  config

type group_exec = {
  ge_device : device;
  ge_time1_s : float;  (** batch-1 estimate on the chosen device *)
  ge_xfer_s : float;  (** cross-device input transfer charged per launch *)
}

type model = {
  mv_name : string;
  mv_groups : group_exec list;  (** executable order *)
  mv_plan : Tvm_graph.Mem_plan.plan;
  mv_naive_bytes : float;
  mv_time1_s : float;  (** batch-1 service estimate, transfers included *)
  mv_placement : (string * int) list;  (** device name → groups placed *)
}

type t

val models : t -> model list
val find : t -> string -> model

(** Compile and place every named graph (default target: cuda).
    [lanes] parallelizes the compiles; the loaded server is identical
    at any lane count. [spec] is forced to sequential host parallelism
    and private caches per model. *)
val load :
  ?lanes:int ->
  ?spec:Tvm_spec.Job_spec.t ->
  ?target:Tvm.Target.t ->
  config ->
  (string * Tvm_graph.Graph_ir.t) list ->
  t

type completion = {
  rc_id : int;
  rc_tenant : string;
  rc_model : string;
  rc_submit_s : float;
  rc_start_s : float;  (** batch dispatch time *)
  rc_finish_s : float;
  rc_latency_s : float;
  rc_batch : int;  (** id of the coalesced batch *)
  rc_batch_size : int;
  rc_slo_s : float;
  rc_slo_ok : bool;
}

type batch_info = {
  bt_id : int;
  bt_model : string;
  bt_size : int;
  bt_start_s : float;
  bt_finish_s : float;
}

type outcome = {
  oc_completions : completion list;  (** finish order *)
  oc_batches : batch_info list;  (** launch order *)
  oc_makespan_s : float;
  oc_throughput_rps : float;
  oc_mean_batch : float;
  oc_slab_bytes : float;  (** arena footprint (high water) *)
  oc_naive_bytes : float;  (** peak Σ in-flight naive bytes *)
  oc_slab_saving : float;  (** [1 - slab/naive] *)
  oc_slab_reuses : int;
  oc_slo_misses : int;
  oc_p50_s : float;
  oc_p90_s : float;
  oc_p99_s : float;
}

(** Serve a request trace to completion. Pure function of the trace
    and the loaded models; publishes [serve_rt.*] metrics. *)
val run : t -> Traffic.request list -> outcome

(** One line per completion, [%h] floats — byte-comparable across lane
    counts. *)
val results_lines : outcome -> string list

(** Serving flight recorder (JSONL, [serve_rt.*] kinds) — the input to
    [tvmc report]'s request-latency digest. *)
val journal_lines : t -> outcome -> string list

val write_results : outcome -> string -> unit
val write_journal : t -> outcome -> string -> unit
