(** Deterministic multi-tenant job scheduler — the heart of [tvmd].

    Jobs from several tenants compete for a fixed number of executor
    slots (the simulated device fleet lanes). Dispatch is weighted
    fair-share in virtual time: each tenant accumulates
    [service / weight] as it consumes the fleet, and the next free
    slot always goes to the eligible tenant with the least accumulated
    share — so over any busy interval tenants receive device time in
    proportion to their weights, regardless of submission pattern.
    Within a tenant, higher [jb_priority] runs first, then FIFO.

    Everything runs on a virtual clock derived from the jobs' service
    times — never the wall clock — so a schedule is a pure function of
    the trace: bit-identical at any domain count, reproducible across
    restarts (which is what lets a warm [tvmd] replay a done job's
    recorded service time and keep every other job's latency
    unchanged).

    Job-level reliability reuses the device-pool retry machinery
    ({!Tvm_rpc.Retry_policy}): a failed execution retries with
    exponential backoff charged to the virtual clock, an attempt whose
    service exceeds [retry.timeout_s] counts as a timeout, and a job
    that exhausts its attempts completes with [cp_error] set — the
    scheduler itself never raises on a failing job.

    The implementation is built for long traces. One submit-ordered
    arrival list feeds per-tenant priority-then-FIFO
    {!Tvm_rpc.Event_queue}s, and one in-flight queue keyed by finish
    time releases quotas as the virtual clock passes them. A dispatch
    costs O(tenants + log n) rather than a rescan of the backlog, and
    resident state is bounded by true concurrency — the
    [sched.running_peak] gauge records the largest number of jobs in
    flight at once during a run. *)

type tenant = {
  tn_name : string;
  tn_weight : float;  (** fair-share weight; must be positive *)
  tn_quota : int option;  (** max jobs of this tenant in flight at once *)
}

val tenant : ?weight:float -> ?quota:int -> string -> tenant

type 'a job = {
  jb_id : int;  (** unique; FIFO tie-break within a tenant *)
  jb_tenant : string;
  jb_priority : int;  (** higher dispatches first within the tenant *)
  jb_submit_s : float;  (** arrival on the virtual clock *)
  jb_payload : 'a;
}

type 'a completion = {
  cp_job : 'a job;
  cp_slot : int;  (** executor lane the job ran on *)
  cp_attempts : int;  (** 1 + retries consumed *)
  cp_start_s : float;  (** dispatch time (virtual) *)
  cp_service_s : float;  (** total charged time, retries + backoff included *)
  cp_finish_s : float;  (** [cp_start_s +. cp_service_s] *)
  cp_queue_wait_s : float;  (** [cp_start_s -. jb_submit_s] *)
  cp_error : string option;  (** [None] iff the job succeeded *)
}

(** Run a trace to completion and return completions in dispatch
    order.

    [execute job ~attempt] performs the actual work and returns its
    service time on the virtual clock ([Ok]) or a failure ([Error]);
    exceptions it raises are caught and treated as [Error]. It is
    called once per attempt, in dispatch order, always on the calling
    domain — so its own internal parallelism (the tuner's [-j]) never
    reorders the schedule.

    Raises [Invalid_argument] for a job naming an unregistered tenant
    or a tenant with a non-positive weight. *)
val run :
  ?slots:int ->
  ?retry:Tvm_rpc.Retry_policy.t ->
  tenants:tenant list ->
  execute:('a job -> attempt:int -> (float, string) result) ->
  'a job list ->
  'a completion list
