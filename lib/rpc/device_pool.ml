(* See device_pool.mli. The engine is an event-driven virtual-time
   scheduler run entirely on the calling domain: pure model times are
   the only thing computed in parallel, and every stateful decision
   (placement, fault draws, retries, journal records) replays
   sequentially in a deterministic order — an {!Event_queue} of run
   completions keyed (finish time, push sequence). A job has at most
   one attempt in flight, so every completion is processed. *)

module Machine = Tvm_sim.Machine
module Cpu_model = Tvm_sim.Cpu_model
module Gpu_model = Tvm_sim.Gpu_model
module Measure_result = Tvm_autotune.Measure_result
module Stmt = Tvm_tir.Stmt
module Journal = Tvm_obs.Journal
module Metrics = Tvm_obs.Metrics
module Trace = Tvm_obs.Trace

type device_kind =
  | Cpu_dev of Machine.cpu
  | Gpu_dev of Machine.gpu

let kind_name = function
  | Cpu_dev c -> c.Machine.cpu_name
  | Gpu_dev g -> g.Machine.gpu_name

let is_gpu = function Gpu_dev _ -> true | Cpu_dev _ -> false
let is_cpu = function Cpu_dev _ -> true | Gpu_dev _ -> false

(* [catalog_of_spec]'s default when the caller passes no kind. Callers
   holding a [Target.t] pass [Target.device_kind] instead; this module
   sits below [Target], so it cannot call [Target.of_name]. *)
let kind_of_target = function
  | "cuda" -> Gpu_dev Machine.titan_x
  | "mali" -> Gpu_dev Machine.mali_t860
  | "arm" -> Cpu_dev Machine.arm_a53
  | "llvm" -> Cpu_dev Machine.xeon_host
  | s -> invalid_arg ("unknown target " ^ s ^ " (cuda|arm|mali|llvm)")

(* Model run time of [stmt] on a device kind: pure, so a batch computes
   it in parallel. *)
let kind_time kind stmt =
  match kind with
  | Cpu_dev cpu -> Cpu_model.time_s cpu stmt
  | Gpu_dev gpu -> Gpu_model.time_s gpu stmt

(* Deterministic noise in [-1, 1] from a key (config hash). *)
let noise_of_key key =
  let h = ref (key land 0x3FFFFFFF) in
  h := (!h * 1103515245 + 12345) land 0x3FFFFFFF;
  h := (!h * 1103515245 + 12345) land 0x3FFFFFFF;
  (float_of_int !h /. float_of_int 0x3FFFFFFF *. 2.) -. 1.

type catalog = {
  c_roster : (device_kind * float) array;
  c_noise : float;
  c_overhead_s : float;  (* once per device per batch *)
  c_per_job_s : float;  (* per-job dispatch cost *)
  c_fault_plan : Fault.plan;
  c_retry : Retry_policy.t;
}

(* Timed repetitions per measurement. *)
let repeats = 3

type fdevice = {
  fd_id : int;
  fd_kname : string;
  fd_speed : float;
  mutable fd_free_at : float;
  mutable fd_epoch : int;  (* last batch whose upload overhead is paid *)
  mutable fd_lane_named : bool;  (* trace lane labelled *)
}

type t = {
  cat : catalog;
  devs : fdevice array;  (* the roster, in id order *)
  salt : int;
  mutable clock : float;
  mutable epoch : int;
  mutable jobs_submitted : int;
  mutable attempts_n : int;
  mutable retries_n : int;
}

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let catalog ?(noise = 0.02) ?(overhead_s = 0.5) ?(per_job_s = 0.05)
    ?(fault_plan = Fault.none) ?(retry = Retry_policy.default) roster =
  if roster = [] then invalid_arg "Device_pool.catalog: empty roster";
  {
    c_roster = Array.of_list roster;
    c_noise = noise;
    c_overhead_s = overhead_s;
    c_per_job_s = per_job_s;
    c_fault_plan = fault_plan;
    c_retry = retry;
  }

let palette =
  [|
    Gpu_dev Machine.titan_x;
    Gpu_dev Machine.mali_t860;
    Cpu_dev Machine.arm_a53;
    Cpu_dev Machine.xeon_host;
  |]

(* Host-side slowness of the [straggler] device, on either roster. *)
let straggler_speed = 12.

let mixed_kinds ?(primary = Gpu_dev Machine.titan_x) ?straggler n =
  let pname = kind_name primary in
  let others =
    Array.of_list
      (List.filter
         (fun k -> kind_name k <> pname)
         (Array.to_list palette))
  in
  let others = if Array.length others = 0 then [| primary |] else others in
  List.init n (fun i ->
      (* The straggler slot is forced to the primary kind: `tvmc
         report` can only flag a slow device that runs the target's
         jobs. *)
      let k =
        if straggler = Some i then primary
        else if i mod 2 = 0 then primary
        else others.((i / 2) mod Array.length others)
      in
      let speed =
        if straggler = Some i then straggler_speed
        else if i mod 13 = 6 then 2.0
        else if i mod 7 = 3 then 1.4
        else 1.0
      in
      (k, speed))

let catalog_of_spec ?kind (spec : Tvm_spec.Job_spec.t) =
  let kind = match kind with Some k -> k | None -> kind_of_target spec.target in
  (* A straggler is slowness (a speed factor), not extra faults:
     per-device fault rates cannot apply when draws are keyed by job
     ordinal. *)
  let fault_plan =
    if spec.fault_rate > 0. then
      Fault.transient ~seed:spec.seed ~rate:spec.fault_rate ()
    else Fault.none
  in
  let retry =
    {
      Retry_policy.default with
      Retry_policy.max_retries = spec.max_retries;
      timeout_s = spec.timeout_s;
    }
  in
  let with_policies = catalog ~fault_plan ~retry in
  if spec.fleet > 0 then
    with_policies (mixed_kinds ~primary:kind ?straggler:spec.straggler spec.fleet)
  else
    (* Replicas of one board pay the whole 0.5 s dispatch per job and
       no per-batch upload: the costs the replica tuning histories are
       pinned to (test/test_golden.ml). *)
    with_policies ~noise:0.05 ~per_job_s:0.5 ~overhead_s:0.
      (List.init (max 1 spec.devices) (fun i ->
           (kind, if spec.straggler = Some i then straggler_speed else 1.)))

let session ?(salt = 0) cat =
  {
    cat;
    devs =
      Array.mapi
        (fun id (kind, speed) ->
          {
            fd_id = id;
            fd_kname = kind_name kind;
            fd_speed = speed;
            fd_free_at = 0.;
            fd_epoch = -1;
            fd_lane_named = false;
          })
        cat.c_roster;
    salt;
    clock = 0.;
    epoch = 0;
    jobs_submitted = 0;
    attempts_n = 0;
    retries_n = 0;
  }

let of_spec ?kind (spec : Tvm_spec.Job_spec.t) =
  session ~salt:spec.seed (catalog_of_spec ?kind spec)

let usable t ~kind =
  let kname = kind_name kind in
  Array.fold_left
    (fun acc d -> if d.fd_kname = kname then acc + 1 else acc)
    0 t.devs

let suggested_batch t ~kind ~base =
  min 512 (max base (2 * usable t ~kind))

let makespan t =
  Array.fold_left (fun acc d -> Float.max acc d.fd_free_at) t.clock t.devs

type stats = {
  fs_devices : int;
  fs_jobs : int;
  fs_attempts : int;
  fs_retries : int;
}

let stats t =
  {
    fs_devices = Array.length t.devs;
    fs_jobs = t.jobs_submitted;
    fs_attempts = t.attempts_n;
    fs_retries = t.retries_n;
  }

(* ------------------------------------------------------------------ *)
(* The schedule engine                                                 *)
(* ------------------------------------------------------------------ *)

(* A job's deterministic description. [jd_measured] already includes
   the config-keyed noise; non-finite means the machine model rejected
   the schedule. [jd_fid] is the fault identity: salt + submission
   ordinal, so the fault sequence a job sees is independent of which
   device ran it. *)
type jobdef = {
  jd_measured : float;
  jd_err : string option;  (* the model raised *)
  jd_uid : int;  (* journal trial uid, -1 = untagged *)
  jd_fid : int;
}

(* Per-(job, attempt) outcome: a pure function of the jobdef and the
   attempt number, whichever device runs it. *)
type joutcome =
  | O_ok of float  (* measured seconds *)
  | O_timeout  (* injected hang, killed at the budget *)
  | O_crash
  | O_corrupt of float  (* charged run seconds (outlier repeats) *)
  | O_overrun  (* deterministically slower than the budget *)
  | O_invalid
  | O_error of string

type run_rec = {
  rn_job : int;
  rn_attempt : int;
  rn_dev : fdevice;
  rn_start : float;
  rn_finish : float;
  rn_outcome : joutcome;
  rn_start_ns : int64;  (* host clock at launch, for the trace slice *)
}

type jstate = {
  mutable js_attempt : int;
  mutable js_ready : float;  (* when it (re-)entered the queue *)
}

let outcome_of t jd ~attempt =
  match jd.jd_err with
  | Some m -> O_error m
  | None -> (
      match Fault.draw t.cat.c_fault_plan ~job:jd.jd_fid ~attempt with
      | Fault.Crash -> O_crash
      | Fault.Timeout -> O_timeout
      | (Fault.No_fault | Fault.Corrupt _) as o ->
          if not (Float.is_finite jd.jd_measured) then O_invalid
          else
            let run = float_of_int repeats *. jd.jd_measured in
            (match o with
            | Fault.Corrupt factor -> O_corrupt (run *. factor)
            | _ ->
                (* The budget check uses the unscaled cost: the budget
                   bounds the measured kernel, host-side slowness does
                   not — which keeps the verdict placement-invariant. *)
                if t.cat.c_per_job_s +. run > t.cat.c_retry.Retry_policy.timeout_s
                then O_overrun
                else O_ok jd.jd_measured))

(* Charged device-seconds for running [outcome] on [dev], excluding
   the batch-upload surcharge. Speed scales everything
   except budget kills, which the tracker enforces in wall time. *)
let charge_on t dev = function
  | O_ok m ->
      (t.cat.c_per_job_s +. (float_of_int repeats *. m)) *. dev.fd_speed
  | O_corrupt run_s -> (t.cat.c_per_job_s +. run_s) *. dev.fd_speed
  | O_crash -> t.cat.c_per_job_s *. dev.fd_speed
  | O_timeout | O_overrun -> t.cat.c_retry.Retry_policy.timeout_s
  | O_invalid | O_error _ -> 0.01

let outcome_name = function
  | O_ok _ -> "ok"
  | O_timeout | O_overrun -> "timeout"
  | O_crash -> "crash"
  | O_corrupt _ -> "corrupt"
  | O_invalid -> "invalid_config"
  | O_error _ -> "error"

let result_of ~attempts = function
  | O_ok m -> Measure_result.ok ~attempts m
  | O_timeout | O_overrun -> Measure_result.fail ~attempts Measure_result.Timeout
  | O_crash -> Measure_result.fail ~attempts Measure_result.Crash
  | O_corrupt _ ->
      Measure_result.fail ~attempts
        (Measure_result.Pool_error "unstable measurement")
  | O_invalid -> Measure_result.fail ~attempts Measure_result.Invalid_config
  | O_error m -> Measure_result.fail ~attempts (Measure_result.Pool_error m)

let retryable = function
  | O_timeout | O_crash | O_corrupt _ -> true
  | O_ok _ | O_overrun | O_invalid | O_error _ -> false

(* Label a device's trace lane the first time it runs a traced
   attempt (labels survive trace resets). *)
let name_lane dev =
  if not dev.fd_lane_named then begin
    dev.fd_lane_named <- true;
    Trace.name_process ~pid:(fst (Trace.device_lane 0)) "device pool";
    Trace.name_thread ~lane:(Trace.device_lane dev.fd_id)
      (Printf.sprintf "dev %d (%s)" dev.fd_id dev.fd_kname)
  end

(* Run the schedule for [defs], every job pinned to kind [kname] (which
   the roster has). [publish] = false keeps the run out of the metrics
   registry. Returns the results in job order. *)
let run_defs t ~publish ~kname (defs : jobdef array) : Measure_result.t array =
  let c = t.cat in
  let n = Array.length defs in
  let res : Measure_result.t option array = Array.make n None in
  let count ?by name = if publish then Metrics.incr ?by name in
  let observe name v = if publish then Metrics.observe name v in
  t.jobs_submitted <- t.jobs_submitted + n;
  count ~by:(float_of_int n) "pool.jobs";
  if n = 0 then [||]
  else begin
    t.epoch <- t.epoch + 1;
    let epoch = t.epoch in
    let submit_clock = t.clock in
    let done_n = ref 0 in
    let resolve j r =
      res.(j) <- Some r;
      incr done_n
    in
    (* One FIFO of job indices for the whole batch: idle devices of
       the batch's kind pull the oldest job, and retries re-enter at
       the back. *)
    let states =
      Array.init n (fun _ -> { js_attempt = 0; js_ready = submit_clock })
    in
    let queue = Queue.create () in
    for j = 0 to n - 1 do
      Queue.push j queue
    done;
    (* Run completions and retry-ready jobs, each in (time, push
       order). Two queues, not one: at equal times a completion is
       processed first and the retries it makes due are drained after
       it. *)
    let events = Event_queue.create () and retryq = Event_queue.create () in
    let launch dev j =
      let st = states.(j) and jd = defs.(j) in
      let attempt = st.js_attempt in
      let oc = outcome_of t jd ~attempt in
      let upload =
        if dev.fd_epoch <> epoch then begin
          dev.fd_epoch <- epoch;
          c.c_overhead_s *. dev.fd_speed
        end
        else 0.
      in
      let charge = Float.max 1e-9 (charge_on t dev oc +. upload) in
      let start = t.clock in
      let r =
        {
          rn_job = j;
          rn_attempt = attempt;
          rn_dev = dev;
          rn_start = start;
          rn_finish = start +. charge;
          rn_outcome = oc;
          rn_start_ns = (if Trace.enabled () then Trace.now_ns () else 0L);
        }
      in
      dev.fd_free_at <- r.rn_finish;
      t.attempts_n <- t.attempts_n + 1;
      count "pool.attempts";
      observe "pool.queue_wait_s" (start -. st.js_ready);
      Event_queue.push events ~at:r.rn_finish r
    in
    let fill_all () =
      (* Every launch makes the device busy (charges are strictly
         positive), so each device takes at most one job per pass. *)
      Array.iter
        (fun d ->
          if d.fd_kname = kname && d.fd_free_at <= t.clock then
            Option.iter (launch d) (Queue.take_opt queue))
        t.devs
    in
    let drain_retries () =
      while Event_queue.top_time retryq <= t.clock do
        let at = Event_queue.top_time retryq in
        let j = Option.get (Event_queue.pop retryq) in
        let st = states.(j) in
        (* A job enters the retry queue only from [process], while it is
           unresolved and has no other run, and stays out of the batch
           queue until it leaves the retry queue here. *)
        assert (res.(j) = None);
        st.js_ready <- at;
        Queue.push j queue
      done
    in
    (* One record per attempt, however it ended: a journal dispatch
       record (simulated clock only, so deterministic) and, when
       tracing, a slice on the device's lane carrying the simulated
       cost, with a flow step tying it into the trial's propose ->
       dispatch -> measure arrow. *)
    let record_attempt r ~outcome ~cost =
      let uid = defs.(r.rn_job).jd_uid in
      let queue_s = r.rn_start -. states.(r.rn_job).js_ready in
      if uid >= 0 then
        Journal.dispatch ~uid ~dev:r.rn_dev.fd_id ~device:r.rn_dev.fd_kname
          ~attempt:r.rn_attempt ~outcome ~cost_s:cost ~queue_s;
      if Trace.enabled () then begin
        name_lane r.rn_dev;
        let lane = Trace.device_lane r.rn_dev.fd_id in
        if uid >= 0 then Trace.flow ~lane ~id:uid Trace.Flow_step "trial";
        Trace.slice ~lane ~start_ns:r.rn_start_ns
          ~attrs:
            [
              ("outcome", outcome);
              ("trial", if uid >= 0 then string_of_int uid else "-");
              ("attempt", string_of_int r.rn_attempt);
              ("sim_cost_s", Printf.sprintf "%.6f" cost);
              ("sim_queue_s", Printf.sprintf "%.3f" queue_s);
            ]
          (if uid >= 0 then Printf.sprintf "job %d" uid else "job")
      end
    in
    let process r =
      let st = states.(r.rn_job) in
      let j = r.rn_job in
      record_attempt r ~outcome:(outcome_name r.rn_outcome)
        ~cost:(r.rn_finish -. r.rn_start);
      observe "pool.job_cost_s" (r.rn_finish -. r.rn_start);
      (match r.rn_outcome with
      | O_timeout | O_overrun -> count "pool.timeouts"
      | O_crash -> count "pool.crashes"
      | O_corrupt _ -> count "pool.corrupt"
      | O_invalid -> count "pool.invalid_configs"
      | O_ok _ | O_error _ -> ());
      let attempts = r.rn_attempt + 1 in
      if retryable r.rn_outcome && r.rn_attempt < c.c_retry.Retry_policy.max_retries
      then begin
        st.js_attempt <- r.rn_attempt + 1;
        t.retries_n <- t.retries_n + 1;
        count "pool.retries";
        Event_queue.push retryq
          ~at:(Retry_policy.retry_at c.c_retry ~now:t.clock ~attempt:r.rn_attempt) j
      end
      else resolve j (result_of ~attempts r.rn_outcome)
    in
    fill_all ();
    while !done_n < n do
      let retry_at = Event_queue.top_time retryq in
      (match Event_queue.top events with
      | Some r when not (retry_at < r.rn_finish) ->
          ignore (Event_queue.pop events);
          t.clock <- Float.max t.clock r.rn_finish;
          process r
      | None when retry_at = infinity ->
          failwith "Device_pool: schedule stuck (no events, no retries)"
      | _ -> t.clock <- Float.max t.clock retry_at);
      drain_retries ();
      fill_all ()
    done;
    t.clock <- makespan t;
    if publish then Metrics.set_gauge "pool.makespan_s" t.clock;
    Array.map (function Some r -> r | None -> assert false) res
  end

(* ------------------------------------------------------------------ *)
(* Submission fronts                                                   *)
(* ------------------------------------------------------------------ *)

(* Jobdefs for one batch: model times fan out over [par] in contiguous
   chunks (thousands of sub-ms pure tasks), everything else is assigned
   in input order on the caller. [time] is the unnoised model time. *)
let defs_of ?(par = Tvm_par.Pool.sequential) t ~noise n time =
  let timed =
    Tvm_par.Pool.parallel_init_chunked par n (fun i ->
        match time i with
        | v -> Ok v
        | exception e -> Error (Printexc.to_string e))
  in
  Array.init n (fun i ->
      let jd_uid = Journal.job_tag i and jd_fid = t.salt + t.jobs_submitted + i in
      match timed.(i) with
      | Ok base ->
          { jd_measured = base *. (1. +. noise i); jd_err = None; jd_uid; jd_fid }
      | Error m -> { jd_measured = Float.nan; jd_err = Some m; jd_uid; jd_fid })

(* Pin the batch to the first roster kind [kind_pred] accepts and run
   it; with no such kind every job fails without reaching a device. *)
let submit ?par t ~publish ~kind_pred ~noise n time =
  match Array.find_opt (fun (k, _) -> kind_pred k) t.cat.c_roster with
  | None ->
      Array.make n
        (Measure_result.fail
           (Measure_result.Pool_error "device pool: no device of requested type"))
  | Some (kind, _) ->
      run_defs t ~publish ~kname:(kind_name kind)
        (defs_of ?par t ~noise n (time kind))

let measure_batch ?par t ~kind_pred (jobs : (int * Stmt.t) array) =
  submit ?par t ~publish:true ~kind_pred (Array.length jobs)
    ~noise:(fun i -> t.cat.c_noise *. noise_of_key (fst jobs.(i)))
    (fun kind i -> kind_time kind (snd jobs.(i)))

let simulate t ~kind ~cost_s =
  submit t ~publish:false
    ~kind_pred:(fun k -> kind_name k = kind_name kind)
    (Array.length cost_s) ~noise:(fun _ -> 0.)
    (fun _ i -> cost_s.(i))

let measure_fn t ~kind_pred : Tvm_autotune.Tuner.measure_fn =
 fun cfg stmt ->
  (measure_batch t ~kind_pred [| (Tvm_autotune.Cfg_space.hash cfg, stmt) |]).(0)

let batch_measure_fn ?par t ~kind_pred : Tvm_autotune.Tuner.batch_measure_fn =
 fun jobs ->
  measure_batch ?par t ~kind_pred
    (Array.map (fun (cfg, stmt) -> (Tvm_autotune.Cfg_space.hash cfg, stmt)) jobs)
