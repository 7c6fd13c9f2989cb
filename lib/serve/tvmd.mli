(** [tvmd] — the long-running multi-tenant compilation service.

    Clients submit {!request} envelopes (a tenant identity plus one
    {!Tvm_spec.Job_spec.t}); the daemon multiplexes the host domain
    pool and the simulated RPC device fleet across tenants with the
    weighted fair-share {!Scheduler}, executes each job (compile, tune
    or profile), and accounts per-tenant usage through labeled
    {!Tvm_obs.Metrics}.

    {2 Isolation}

    Tuning state is private by default: each tenant gets its own
    {!Tvm_autotune.Tuner.Db} trial log, tuned-configuration cache and
    per-template {!Tvm_autotune.Compile_cache} — one tenant's history
    never changes another's results or bills. An envelope with
    [share = true] opts into the communal [shared] scope instead (the
    paper's cross-workload history database). The scope is also the
    unit of concurrency: one scope's jobs execute sequentially in
    submission order, different scopes run on different lanes.

    {2 Concurrency}

    Execution is two-phase. Phase one fans the live jobs' isolation
    scopes out over up to [slots] lane domains
    ({!Tvm_par.Pool.run_lanes}) and memoizes each job's (service,
    summary); phase two replays the memoized results through the
    sequential virtual-clock scheduler on the coordinator — the PR 4
    replay-on-coordinator pattern — so the authoritative schedule,
    accounting and results file are byte-identical at any lane count
    and any [-j]. Within a lane, ops run with sequential host
    parallelism ([jobs = 1]): tvmd parallelizes across jobs, not
    within one. A retried job observes its one memoized execution on
    every attempt.

    {2 Durability}

    With [~store] set, every piece of expensive state is flushed to
    the versioned on-disk {!Tvm_autotune.Store} incrementally, after
    each completed job:

    - the scope's {!Tvm_autotune.Tuner.Db} trial log (so an
      interrupted tuning job resumes via [spec.replay] instead of
      re-measuring), as scope-tagged [db.scoped] blocks;
    - the scope's tuned-configuration cache ([tuned.scoped] blocks, so
      a repeat compile of an already-tuned workload runs zero trials);
    - per-template {!Tvm_autotune.Compile_cache} feature entries,
      tagged [<scope>|<template>];
    - a [done] record per completed job: its fingerprint, charged
      service time and result summary.

    On startup the store is read once and every scope is restored
    from that one block list; a job whose fingerprint has a
    [done] record is not re-executed — its recorded service time is
    injected into the scheduler, so the restarted run's schedule (and
    every other job's latency) is byte-identical to an uninterrupted
    run, and the record is re-appended as a freshness refresh (the
    superseded copies are what {!Tvm_autotune.Store.compact} drops,
    using {!store_rules}). Corrupt or version-mismatched store blocks
    are skipped with one warning each, never a crash.

    A store file is byte-reproducible only at [slots = 1]
    ([tvmc serve --slots 1]). At 2 or more slots, lanes append each
    finished job's blocks in wall-clock order, so two runs of one trace
    can write the same blocks in different orders. Every block is
    scope-tagged, so loading either file restores the same state, and
    the results file stays byte-identical at any slot count. Compare
    store files across runs at one slot, or compare their sorted
    blocks.

    A fingerprint covers the spec's JSON, so a change to
    {!Tvm_spec.Job_spec.t}'s fields changes every fingerprint: [done]
    records written before the spec dropped its four output-sink
    fields ([journal_out], [trace_out], [metrics_out], [tune_log]),
    its [speculate] field or its [shards] field match no job, and
    those jobs re-execute once. A re-executed tune job replays its measurements from the
    store's trial log, so it picks the same best configuration, but it
    is charged the service time of a replayed run, not the recorded
    one.

    {2 Determinism}

    Everything is driven by the virtual clock: service times come from
    the simulated fleet's makespan, the compiler's trial counts and
    the executor's cost model — never the wall clock. A fixed request
    trace produces a byte-identical results file at any [-j], with or
    without a warm store. *)

type request = {
  rq_tenant : string;
  rq_weight : float;  (** fair-share weight (first request wins per tenant) *)
  rq_quota : int option;  (** max in-flight jobs for this tenant *)
  rq_priority : int;
  rq_submit_s : float;  (** arrival on the virtual clock *)
  rq_share : bool;  (** opt into the shared cross-tenant cache scope *)
  rq_spec : Tvm_spec.Job_spec.t;
}

(** Raises [Invalid_argument] unless [weight] is finite and positive
    and [quota] (when given) is at least 1 — values the fair-share
    scheduler cannot serve. *)
val request :
  ?tenant:string ->
  ?weight:float ->
  ?quota:int ->
  ?priority:int ->
  ?submit_s:float ->
  ?share:bool ->
  Tvm_spec.Job_spec.t ->
  request

(** Single-line JSON envelope:
    [{"tenant":…,"weight":…,"quota":…,"priority":…,"submit_s":…,"share":…,"spec":{…}}].
    Floats print with full precision, so [of_string (to_string r)]
    round-trips and fingerprints are stable across processes. *)
val to_string : request -> string

(** Inverse of {!to_string}; missing fields take defaults (tenant
    ["default"], weight 1, no quota, priority 0, submit 0, share
    false). Raises [Failure] on malformed JSON, and [Invalid_argument]
    on a [quota] or [priority] that is not an integer within [±2^53]
    ({!Tvm_spec.Job_spec.int_of_num}) or on a weight or quota
    {!request} rejects. *)
val of_string : string -> request

(** {!Tvm_autotune.Store.compact} rules covering every kind a [tvmd]
    store contains: the standard rules plus last-wins [done] records
    keyed by fingerprint. *)
val store_rules : Tvm_autotune.Store.rule list

type outcome = {
  oc_lines : string list;
      (** one tab-separated line per job, sorted by job id — the
          deterministic results artifact ([cmp]-stable across
          restarts) *)
  oc_completions : request Scheduler.completion list;  (** dispatch order *)
  oc_executed : int;  (** jobs run live this process *)
  oc_restored : int;  (** jobs answered from the store's [done] records *)
  oc_failed : int;  (** jobs that exhausted their retry budget *)
}

(** Run a request trace to completion.

    [slots] is the number of executor lanes, both virtual (scheduler
    slots) and physical (phase-one lane domains; default 2). [store]
    names the durable store file: loaded on entry, flushed after every
    completed job. [max_jobs] is the kill switch the restart test
    uses: at most that many live (un-restored) jobs execute, taken in
    submission (id) order; the rest are abandoned without a results
    line. [retry] is the job-level reliability policy (default
    {!Tvm_rpc.Retry_policy.default}). [compact_above] compacts the
    store on entry when it exceeds that many bytes (never mid-run, so
    incremental flush counters stay honest).

    Also records service metrics: [tvmd.queue_wait_s] and
    [tvmd.completion_s] histograms (p50/p90/p99 in the metrics dump),
    per-tenant [tvmd.tenant.<name>.jobs] / [.service_s] counters, and
    [tvmd.jobs.done] / [.failed] / [.restored]. *)
val serve :
  ?slots:int ->
  ?store:string ->
  ?max_jobs:int ->
  ?retry:Tvm_rpc.Retry_policy.t ->
  ?compact_above:int ->
  request list ->
  outcome

(** Watch a spool directory and serve envelope files as they arrive —
    the streaming request source.

    Each scan picks up every regular file in [dir] (dotfiles, the
    [stop] file and subdirectories excluded), sorted by filename —
    deterministic ingestion order. A non-empty scan is one batch: the
    files' envelope lines (malformed lines are skipped with a warning)
    are served as one trace via {!serve}, [on_batch] receives the
    batch index and outcome, and the files are then moved to
    [dir/archive/]. The durable store carries state across batches, so
    a re-dropped envelope is answered from its [done] record.

    The loop exits when a file named [stop] exists in [dir] and a
    final scan finds no pending envelopes (graceful drain), when
    [stopped] returns true (a signal flag — the current batch still
    finishes). Between empty scans it
    sleeps [poll_s] (default 0.05 s) of wall time — the only wall
    clock in the daemon; everything inside a batch stays virtual.
    Returns the number of batches served. *)
val serve_spool :
  ?slots:int ->
  ?store:string ->
  ?retry:Tvm_rpc.Retry_policy.t ->
  ?compact_above:int ->
  ?poll_s:float ->
  ?stopped:(unit -> bool) ->
  dir:string ->
  on_batch:(int -> outcome -> unit) ->
  unit ->
  int
