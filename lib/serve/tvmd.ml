(* See tvmd.mli. *)

module Spec = Tvm_spec.Job_spec
module Sched = Scheduler
module Json = Tvm_obs.Json
module Metrics = Tvm_obs.Metrics
module Store = Tvm_autotune.Store
module Tuner = Tvm_autotune.Tuner
module Compile_cache = Tvm_autotune.Compile_cache
module Templates = Tvm_autotune.Templates
module Cfg_space = Tvm_autotune.Cfg_space
module Device_pool = Tvm_rpc.Device_pool
module Workloads = Tvm_models.Workloads
module Models = Tvm_models.Models
module Compiler = Tvm.Compiler
module Exec = Tvm_runtime.Graph_executor
module Par = Tvm_par.Pool
module Fig_e2e = Tvm_experiments.Fig_e2e

type request = {
  rq_tenant : string;
  rq_weight : float;
  rq_quota : int option;
  rq_priority : int;
  rq_submit_s : float;
  rq_share : bool;
  rq_spec : Spec.t;
}

let request ?(tenant = "default") ?(weight = 1.) ?quota ?(priority = 0)
    ?(submit_s = 0.) ?(share = false) spec =
  if not (Float.is_finite weight && weight > 0.) then
    invalid_arg (Printf.sprintf "tvmd: weight must be finite and positive, got %g" weight);
  (match quota with
  | Some q when q < 1 -> invalid_arg (Printf.sprintf "tvmd: quota must be >= 1, got %d" q)
  | _ -> ());
  {
    rq_tenant = tenant;
    rq_weight = weight;
    rq_quota = quota;
    rq_priority = priority;
    rq_submit_s = submit_s;
    rq_share = share;
    rq_spec = spec;
  }

let to_string r =
  Json.to_string
    (Json.Obj
       [
         ("tenant", Json.Str r.rq_tenant);
         ("weight", Json.num r.rq_weight);
         ( "quota",
           match r.rq_quota with
           | Some q -> Json.num (float_of_int q)
           | None -> Json.Null );
         ("priority", Json.num (float_of_int r.rq_priority));
         ("submit_s", Json.num r.rq_submit_s);
         ("share", Json.Bool r.rq_share);
         ("spec", Spec.to_json r.rq_spec);
       ])

let of_string s =
  let j = Json.parse s in
  let num key d =
    match Option.bind (Json.member key j) Json.to_num_opt with
    | Some v -> v
    | None -> d
  in
  request
    ~tenant:
      (match Json.member "tenant" j with
      | Some (Json.Str t) -> t
      | _ -> "default")
    ~weight:(num "weight" 1.)
    ?quota:
      (Option.map (Spec.int_of_num "tvmd: quota")
         (Option.bind (Json.member "quota" j) Json.to_num_opt))
    ~priority:(Spec.int_of_num "tvmd: priority" (num "priority" 0.))
    ~submit_s:(num "submit_s" 0.)
    ~share:
      (match Json.member "share" j with
      | Some (Json.Bool b) -> b
      | _ -> false)
    (match Json.member "spec" j with
    | Some sj -> Spec.of_json sj
    | None -> Spec.default)

type outcome = {
  oc_lines : string list;
  oc_completions : request Sched.completion list;
  oc_executed : int;
  oc_restored : int;
  oc_failed : int;
}

(* ------------------------------------------------------------------ *)
(* Job identity and isolation scopes                                   *)
(* ------------------------------------------------------------------ *)

(* A job's fingerprint is its envelope rendered canonically (the spec
   JSON has a fixed field order, floats print bit-exactly) plus an
   occurrence index, so two byte-identical submissions are distinct
   jobs and each matches its own [done] record across a restart. *)
let fingerprints requests =
  let occ = Hashtbl.create 16 in
  Array.of_list
    (List.map
       (fun r ->
         let base =
           Printf.sprintf "%s|%d|%h|%b|%s" r.rq_tenant r.rq_priority
             r.rq_submit_s r.rq_share
             (Spec.to_string r.rq_spec)
         in
         let n = Option.value ~default:0 (Hashtbl.find_opt occ base) in
         Hashtbl.replace occ base (n + 1);
         Printf.sprintf "%s#%d" base n)
       requests)

(* Isolation scope: which Tuner.Db / tuned cache / feature memos a
   job reads and fills. Private by default — one scope per tenant —
   with the envelope's [share] flag opting into the cross-tenant
   shared scope (the paper's communal history database). The scope is
   also the unit of concurrency: jobs in one scope execute
   sequentially in submission (id) order, so state evolution inside a
   scope is independent of lane interleaving. *)
let shared_scope = "shared"
let scope_of r = if r.rq_share then shared_scope else "tenant:" ^ r.rq_tenant

(* [done] store records: fingerprint, charged service, attempts,
   result summary. Only first-attempt successes within the retry
   budget are recorded — anything else re-executes deterministically
   after a restart. A warm restart re-appends the records it restores
   (freshness refresh), so long-lived stores accumulate superseded
   copies for [Store.compact] to drop (last-wins per fingerprint). *)
let done_kind = "done"

let store_rules =
  { Store.rl_kind = done_kind; rl_scoped = false; rl_keep = Store.Last_per_key }
  :: Store.default_rules

let done_out fp service attempts summary =
  Printf.sprintf "%s\t%h\t%d\t%s" (String.escaped fp) service attempts
    (String.escaped summary)

let done_in line =
  match String.split_on_char '\t' line with
  | [ fp; service; attempts; summary ] -> (
      match float_of_string_opt service with
      | Some s ->
          ( Scanf.unescaped fp,
            (s, int_of_string attempts, Scanf.unescaped summary) )
      | None -> failwith ("bad done record: " ^ line))
  | _ -> failwith ("bad done record: " ^ line)

(* ------------------------------------------------------------------ *)
(* Per-scope state                                                     *)
(* ------------------------------------------------------------------ *)

type scope_state = {
  sc_scope : string;
  sc_db : Tuner.Db.t;
  mutable sc_db_hw : int;  (** records already flushed to the store *)
  sc_tuned : Compiler.tuned_cache;
  sc_flushed_sigs : (string, unit) Hashtbl.t;
  sc_caches : (string, Compile_cache.t * int ref) Hashtbl.t;
      (** template name → (feature memo, entries already saved) *)
}

(* ------------------------------------------------------------------ *)
(* The daemon loop                                                     *)
(* ------------------------------------------------------------------ *)

let serve ?(slots = 2) ?store ?max_jobs ?(retry = Tvm_rpc.Retry_policy.default)
    ?compact_above requests =
  (* Startup compaction: the store only ever shrinks between runs —
     never while incremental flush counters are live. *)
  (match (store, compact_above) with
  | Some path, Some threshold ->
      ignore
        (Store.compact ~rules:store_rules ~threshold_bytes:threshold path)
  | _ -> ());
  (* One mutex serializes every store access: lanes append finished
     state concurrently. *)
  let store_mu = Mutex.create () in
  (* The store is read once. Every scope is created on the coordinator
     before the lanes start, and a scope's feature-memo blocks are
     written only by its own lane after that memo was loaded, so no
     later read could see a block this one misses. *)
  let blocks =
    match store with Some path -> Store.load_blocks path | None -> []
  in
  let done_map : (string, float * int * string) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (fp, v) -> Hashtbl.replace done_map fp v)
    (Store.load_records blocks ~kind:done_kind done_in);
  let scopes : (string, scope_state) Hashtbl.t = Hashtbl.create 8 in
  (* Warm start, per scope: replay the store into the scope's trial
     log and tuned cache. *)
  let get_scope scope =
    match Hashtbl.find_opt scopes scope with
    | Some st -> st
    | None ->
        let st =
          {
            sc_scope = scope;
            sc_db = Tuner.Db.create ();
            sc_db_hw = 0;
            sc_tuned = Compiler.create_tuned_cache ();
            sc_flushed_sigs = Hashtbl.create 16;
            sc_caches = Hashtbl.create 8;
          }
        in
        st.sc_db_hw <- Store.load_db_scope blocks ~scope ~into:st.sc_db;
        Compiler.restore_tuned ~cache:st.sc_tuned
          (Store.load_tuned_scope blocks ~scope);
        List.iter
          (fun (s, _, _) -> Hashtbl.replace st.sc_flushed_sigs s ())
          (Compiler.tuned_entries ~cache:st.sc_tuned ());
        Hashtbl.add scopes scope st;
        st
  in
  (* Caller holds [store_mu]. *)
  let get_cache st name =
    match Hashtbl.find_opt st.sc_caches name with
    | Some (c, _) -> c
    | None ->
        let c = Compile_cache.create () in
        let n =
          Store.load_cache blocks ~scope:(st.sc_scope ^ "|" ^ name) ~into:c
        in
        Hashtbl.add st.sc_caches name (c, ref n);
        c
  in
  (* Caller holds [store_mu]. *)
  let flush_scope st =
    match store with
    | None -> ()
    | Some path ->
        st.sc_db_hw <-
          Store.flush_db_scope path ~scope:st.sc_scope ~from:st.sc_db_hw
            st.sc_db;
        let delta =
          List.filter
            (fun (s, _, _) -> not (Hashtbl.mem st.sc_flushed_sigs s))
            (Compiler.tuned_entries ~cache:st.sc_tuned ())
        in
        Store.append_tuned_scope path ~scope:st.sc_scope delta;
        List.iter
          (fun (s, _, _) -> Hashtbl.replace st.sc_flushed_sigs s ())
          delta;
        List.iter
          (fun name ->
            let c, saved = Hashtbl.find st.sc_caches name in
            saved :=
              Store.save_cache path
                ~scope:(st.sc_scope ^ "|" ^ name)
                ~from:!saved c)
          (List.sort compare
             (Hashtbl.fold (fun k _ acc -> k :: acc) st.sc_caches []))
  in
  (* Inside a lane every op runs with sequential host parallelism
     ([jobs = 1]): tvmd parallelizes across jobs, not within one, and
     the determinism contract makes [-j] invisible in results. Each job
     runs its own session of a fresh catalog; [salt] (the scheduler job
     id) decorrelates fault sequences between jobs with equal rosters. *)
  let run_tune st ~salt (spec : Spec.t) =
    let spec = { spec with Spec.replay = true; jobs = 1 } in
    let w = Workloads.find spec.Spec.workload in
    let out = Fig_e2e.conv_tensor w in
    let name = "tvmd:" ^ spec.Spec.workload ^ "@" ^ spec.Spec.target in
    let tpl = Templates.gpu_flat ~name out in
    let kind = Tvm.Target.(device_kind (of_name spec.Spec.target)) in
    let pool =
      Device_pool.session ~salt (Device_pool.catalog_of_spec ~kind spec)
    in
    let spec =
      { spec with Spec.batch = Device_pool.suggested_batch pool ~kind ~base:spec.Spec.batch }
    in
    let kind_pred _ = true in
    let cache = Mutex.protect store_mu (fun () -> get_cache st name) in
    let res =
      Tuner.tune ~spec ~db:st.sc_db ~cache
        ~measure_batch:
          (Device_pool.batch_measure_fn ~par:Par.sequential pool ~kind_pred)
        ~method_:(Tuner.method_of_name spec.Spec.method_name)
        ~measure:(Device_pool.measure_fn pool ~kind_pred)
        ~n_trials:spec.Spec.trials tpl
    in
    ( Device_pool.makespan pool,
      Printf.sprintf "best %h s with %s" res.Tuner.best_time
        (Cfg_space.to_string res.Tuner.best_config) )
  in
  let run_compile st (spec : Spec.t) =
    let graph = Models.of_name spec.Spec.workload in
    let tgt = Tvm.Target.of_name spec.Spec.target in
    let r =
      Compiler.build ~spec:{ spec with Spec.jobs = 1 } ~db:st.sc_db
        ~tuned:st.sc_tuned graph tgt
    in
    let groups = List.length r.Compiler.groups in
    ( (0.02 *. float_of_int groups)
      +. (0.1 *. float_of_int r.Compiler.tuning_trials_run),
      Printf.sprintf "%d groups, %d trials" groups r.Compiler.tuning_trials_run
    )
  in
  let run_profile st (spec : Spec.t) =
    let graph = Models.of_name spec.Spec.workload in
    let tgt = Tvm.Target.of_name spec.Spec.target in
    let _r, exec =
      Compiler.build_executor ~spec:{ spec with Spec.jobs = 1 } ~db:st.sc_db
        ~tuned:st.sc_tuned graph tgt
    in
    let t = Exec.estimated_time_s exec in
    (0.05 +. t, Printf.sprintf "estimated %h s/run" t)
  in
  let fps = fingerprints requests in
  let jobs =
    List.mapi
      (fun i r ->
        {
          Sched.jb_id = i;
          jb_tenant = r.rq_tenant;
          jb_priority = r.rq_priority;
          jb_submit_s = r.rq_submit_s;
          jb_payload = r;
        })
      requests
  in
  (* ---------------- Phase 1: concurrent lane execution ------------ *)
  (* Live jobs (no [done] record) partition into isolation scopes;
     each scope's jobs run sequentially in id order on one lane at a
     time, and scopes fan out over up to [slots] lane domains. The
     kill switch caps how many live jobs run, counted in global id
     order — an id-prefix per scope, so a partial run's state is a
     prefix of the full run's. *)
  let live =
    List.filter (fun j -> not (Hashtbl.mem done_map fps.(j.Sched.jb_id))) jobs
  in
  let capped =
    match max_jobs with
    | Some n -> List.filteri (fun i _ -> i < n) live
    | None -> live
  in
  let capped_ids = Hashtbl.create 64 in
  List.iter (fun j -> Hashtbl.replace capped_ids j.Sched.jb_id ()) capped;
  let streams =
    let by_scope = Hashtbl.create 8 in
    let scope_order = ref [] in
    List.iter
      (fun j ->
        let scope = scope_of j.Sched.jb_payload in
        match Hashtbl.find_opt by_scope scope with
        | Some acc -> acc := j :: !acc
        | None ->
            Hashtbl.add by_scope scope (ref [ j ]);
            scope_order := scope :: !scope_order)
      capped;
    List.sort compare !scope_order
    |> List.map (fun scope -> (scope, List.rev !(Hashtbl.find by_scope scope)))
    |> Array.of_list
  in
  (* Scope states are created (and warm-loaded) on the coordinator;
     lanes only touch their own stream's scope. *)
  Array.iter (fun (scope, _) -> ignore (get_scope scope)) streams;
  let memo : (int, (float * string, string) result) Hashtbl.t =
    Hashtbl.create 64
  in
  let memo_mu = Mutex.create () in
  let lanes = Par.create ~domains:(max 1 slots) () in
  ignore
    (Par.run_lanes lanes
       (fun (scope, stream) ->
         let st = get_scope scope in
         List.iter
           (fun (j : request Sched.job) ->
             let fp = fps.(j.Sched.jb_id) in
             let spec = j.Sched.jb_payload.rq_spec in
             let r =
               match
                 match spec.Spec.op with
                 | Spec.Tune -> run_tune st ~salt:j.Sched.jb_id spec
                 | Spec.Compile -> run_compile st spec
                 | Spec.Profile -> run_profile st spec
               with
               | service, summary ->
                   if service <= retry.Tvm_rpc.Retry_policy.timeout_s then
                     Mutex.protect store_mu (fun () ->
                         flush_scope st;
                         match store with
                         | Some path ->
                             Store.append_block path ~kind:done_kind
                               [ done_out fp service 1 summary ]
                         | None -> ());
                   Ok (service, summary)
               | exception e -> Error (Printexc.to_string e)
             in
             Mutex.protect memo_mu (fun () ->
                 Hashtbl.replace memo j.Sched.jb_id r))
           stream)
       streams);
  (* ---------------- Phase 2: authoritative schedule --------------- *)
  (* The virtual-clock weighted-fair-share schedule replays every
     result on the coordinator (the PR 4 replay pattern): dispatch
     order, per-tenant accounting and the results file are computed
     sequentially from memoized services, so they are byte-identical
     at any lane count. Every attempt of a job observes its one
     memoized execution. *)
  let tenants =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun r ->
        if Hashtbl.mem seen r.rq_tenant then None
        else begin
          Hashtbl.add seen r.rq_tenant ();
          Some
            {
              Sched.tn_name = r.rq_tenant;
              tn_weight = r.rq_weight;
              tn_quota = r.rq_quota;
            }
        end)
      requests
  in
  let sched_jobs =
    List.filter
      (fun j ->
        Hashtbl.mem done_map fps.(j.Sched.jb_id)
        || Hashtbl.mem capped_ids j.Sched.jb_id)
      jobs
  in
  let summaries : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let restored = ref 0 in
  let execute (job : request Sched.job) ~attempt =
    let fp = fps.(job.Sched.jb_id) in
    match Hashtbl.find_opt done_map fp with
    | Some (service, attempts, summary) ->
        (* Answered from the store: inject the recorded service time so
           the schedule matches an uninterrupted run byte for byte, and
           refresh the record so compaction sees it as current. *)
        Hashtbl.replace summaries job.Sched.jb_id summary;
        if attempt = 0 then begin
          incr restored;
          match store with
          | Some path ->
              Store.append_block path ~kind:done_kind
                [ done_out fp service attempts summary ]
          | None -> ()
        end;
        Ok service
    | None -> (
        ignore attempt;
        match Hashtbl.find_opt memo job.Sched.jb_id with
        | Some (Ok (service, summary)) ->
            Hashtbl.replace summaries job.Sched.jb_id summary;
            Ok service
        | Some (Error e) -> Error e
        | None -> assert false (* capped jobs are always memoized *))
  in
  let completions = Sched.run ~slots ~retry ~tenants ~execute sched_jobs in
  (* Service accounting: queue-wait and completion latency histograms
     (p50/p90/p99 in the metrics dump) plus per-tenant usage. *)
  let failed = ref 0 in
  List.iter
    (fun (c : request Sched.completion) ->
      let j = c.Sched.cp_job in
      Metrics.observe "tvmd.queue_wait_s" c.Sched.cp_queue_wait_s;
      Metrics.observe "tvmd.completion_s"
        (c.Sched.cp_finish_s -. j.Sched.jb_submit_s);
      Metrics.incr ("tvmd.tenant." ^ j.Sched.jb_tenant ^ ".jobs");
      Metrics.incr
        ~by:c.Sched.cp_service_s
        ("tvmd.tenant." ^ j.Sched.jb_tenant ^ ".service_s");
      match c.Sched.cp_error with
      | None -> Metrics.incr "tvmd.jobs.done"
      | Some _ ->
          incr failed;
          Metrics.incr "tvmd.jobs.failed")
    completions;
  Metrics.incr ~by:(float_of_int !restored) "tvmd.jobs.restored";
  let lines =
    List.map
      (fun (c : request Sched.completion) ->
        let j = c.Sched.cp_job in
        let spec = j.Sched.jb_payload.rq_spec in
        let status =
          match c.Sched.cp_error with None -> "ok" | Some _ -> "failed"
        in
        let summary =
          match (Hashtbl.find_opt summaries j.Sched.jb_id, c.Sched.cp_error) with
          | Some s, None -> s
          | _, Some e -> e
          | None, None -> ""
        in
        Printf.sprintf "%d\t%s\t%s\t%s\t%s\t%d\t%h\t%h\t%h\t%h\t%h\t%d\t%s\t%s"
          j.Sched.jb_id j.Sched.jb_tenant
          (Spec.op_name spec.Spec.op)
          spec.Spec.workload spec.Spec.target j.Sched.jb_priority
          j.Sched.jb_submit_s c.Sched.cp_start_s c.Sched.cp_queue_wait_s
          c.Sched.cp_service_s c.Sched.cp_finish_s c.Sched.cp_attempts status
          (String.escaped summary))
      (List.sort
         (fun (a : request Sched.completion) b ->
           compare a.Sched.cp_job.Sched.jb_id b.Sched.cp_job.Sched.jb_id)
         completions)
  in
  {
    oc_lines = lines;
    oc_completions = completions;
    oc_executed = List.length capped;
    oc_restored = !restored;
    oc_failed = !failed;
  }

(* ------------------------------------------------------------------ *)
(* The spool                                                           *)
(* ------------------------------------------------------------------ *)

let stop_file = "stop"

let serve_spool ?(slots = 2) ?store ?retry ?compact_above ?(poll_s = 0.05)
    ?(stopped = fun () -> false) ~dir ~on_batch () =
  let archive = Filename.concat dir "archive" in
  if not (Sys.file_exists archive) then Unix.mkdir archive 0o755;
  (* Deterministic ingestion: one scan's envelope files, sorted by
     filename, are one batch — served in that order, then archived. *)
  let scan () =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f ->
           f <> stop_file
           && (String.length f = 0 || f.[0] <> '.')
           && not (Sys.is_directory (Filename.concat dir f)))
  in
  let batches = ref 0 in
  let running = ref true in
  while !running do
    let files = scan () in
    if files <> [] then begin
      let requests =
        List.concat_map
          (fun f ->
            let path = Filename.concat dir f in
            In_channel.with_open_text path In_channel.input_lines
            |> List.filter_map (fun line ->
                   let line = String.trim line in
                   if line = "" then None
                   else
                     match of_string line with
                     | r -> Some r
                     | exception e ->
                         Printf.eprintf
                           "[tvm] spool %s: skipping envelope: %s\n%!" f
                           (Printexc.to_string e);
                         Metrics.incr "tvmd.spool.rejected";
                         None))
          files
      in
      if requests <> [] then begin
        let oc = serve ~slots ?store ?retry ?compact_above requests in
        on_batch !batches oc;
        incr batches
      end;
      (* Served (or empty): consume — the store's [done] records are
         the durable receipt, the archive keeps the envelope bytes. *)
      List.iter
        (fun f ->
          Sys.rename (Filename.concat dir f) (Filename.concat archive f))
        files;
      Metrics.incr ~by:(float_of_int (List.length files)) "tvmd.spool.files"
    end;
    let drained =
      Sys.file_exists (Filename.concat dir stop_file) && scan () = []
    in
    if stopped () || drained then running := false
    else if files = [] then Unix.sleepf poll_s
  done;
  !batches
