(** The automated optimization loop (§5, Fig 11).

    In each iteration the explorer proposes a batch of candidate
    configurations using the cost model's predictions; the batch is
    measured on the (simulated) device via the measurement callback —
    in the full system this goes through the RPC device pool — and the
    collected data retrains the model. Exploration state persists
    across model updates, as in the paper.

    Measurements come back as structured [Measure_result.t] values:
    failed trials (timeouts, crashes, invalid configurations, pool
    errors) are recorded in the history and database with their
    failure category, but never pollute the cost model's training
    set.

    The loop is multicore (§5.3): candidate lowering (and feature
    extraction when a fit follows), the simulated-annealing chains, and
    the GBT split search all fan out over a {!Tvm_par.Pool.t} of
    [Options.jobs] domains. Every parallel section merges its results in
    a fixed input order, so the tuning log and the best configuration are
    bit-identical for a given seed at any [jobs] count. *)

module Obs_trace = Tvm_obs.Trace
module Obs_metrics = Tvm_obs.Metrics
module Journal = Tvm_obs.Journal

(** Provenance of a proposed configuration, journaled by the flight
    recorder: which explorer emitted it ([seed] for the initial
    known-valid probe, [random], [sa], [ga], [compiler] for the final
    lowering job), which SA chain found it ([-1] elsewhere), and the
    cost model's predicted score ([nan] when there was no model). *)
type origin = { og_kind : string; og_chain : int; og_score : float }

let origin ?(chain = -1) ?(score = Float.nan) kind =
  { og_kind = kind; og_chain = chain; og_score = score }

exception Invalid_config of string

type template = {
  tpl_name : string;
  tpl_space : Cfg_space.t;
  tpl_instantiate : Cfg_space.config -> Tvm_tir.Stmt.t;
      (** lowered program for a configuration *)
}

let try_instantiate template cfg =
  match template.tpl_instantiate cfg with
  | stmt -> Some stmt
  | exception Invalid_config _ -> None

type method_ = Ml_model | Random_search | Genetic_algorithm

let method_to_string = function
  | Ml_model -> "ml-based"
  | Random_search -> "random"
  | Genetic_algorithm -> "genetic"

let method_of_name = function
  | "ml" | "ml-based" -> Ml_model
  | "random" -> Random_search
  | "genetic" | "ga" -> Genetic_algorithm
  | s -> invalid_arg ("tuner: unknown method " ^ s ^ " (ml|random|genetic)")

type trial = {
  trial_index : int;
  config : Cfg_space.config;
  result : Measure_result.t;
  best_so_far : float;
}

type result = {
  best_config : Cfg_space.config;
  best_time : float;
  history : trial list;  (** in measurement order *)
  best_stmt : Tvm_tir.Stmt.t option;
      (** the best trial's program; [None] when it was replayed *)
}

type measure_fn = Cfg_space.config -> Tvm_tir.Stmt.t -> Measure_result.t
(** Measure one instantiated configuration; failure is expressed only
    through [Measure_result.status], never as a sentinel float. *)

type batch_measure_fn =
  (Cfg_space.config * Tvm_tir.Stmt.t) array -> Measure_result.t array
(** Measure a whole batch at once (the device pool overlaps jobs on
    free devices); result [i] belongs to job [i]. *)

(** A database of measurement records (§5.4's log), shared across tuning
    jobs so related workloads benefit from history. The full record log
    is kept for history/training; replay lookups go through a hash
    index so [find] is O(1). Failure categories are tallied per status
    so fleet health is visible from the log alone.

    Domain-safe: every operation takes the database's mutex, so
    concurrent [add]s from tuning jobs running on different domains
    keep the log, the replay index and the tallies consistent. *)
module Db = struct
  type record = {
    db_key : string;
    db_config : Cfg_space.config;
    db_result : Measure_result.t;
  }

  type t = {
    mutable records : record list;  (** complete log, newest first *)
    by_cfg : (string * Cfg_space.config, Measure_result.t) Hashtbl.t;
        (** (key, canonical config) → first recorded result — the
            replay index *)
    mutable n_records : int;
    status_tally : (string, int) Hashtbl.t;  (** status name → count *)
    lock : Mutex.t;
  }

  let create () =
    {
      records = [];
      by_cfg = Hashtbl.create 256;
      n_records = 0;
      status_tally = Hashtbl.create 8;
      lock = Mutex.create ();
    }

  let add t key config (result : Measure_result.t) =
    Mutex.protect t.lock @@ fun () ->
    let r = { db_key = key; db_config = config; db_result = result } in
    t.records <- r :: t.records;
    t.n_records <- t.n_records + 1;
    let ck = (key, Cfg_space.canonical config) in
    (* First record wins: a deterministic re-run measures the same
       configuration to the same result, so replay wants the original. *)
    if not (Hashtbl.mem t.by_cfg ck) then Hashtbl.add t.by_cfg ck result;
    let sname = Measure_result.status_name result.Measure_result.status in
    Hashtbl.replace t.status_tally sname
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.status_tally sname))

  (** First result recorded for (key, config), O(1) — replay resume. *)
  let find t key cfg =
    Mutex.protect t.lock @@ fun () ->
    Hashtbl.find_opt t.by_cfg (key, Cfg_space.canonical cfg)

  let size t = Mutex.protect t.lock @@ fun () -> t.n_records

  (** Complete log, oldest first — the persistence order. *)
  let records t = Mutex.protect t.lock @@ fun () -> List.rev t.records

  (** Count of records with the given status name (see
      [Measure_result.status_name]). *)
  let status_count t name =
    Mutex.protect t.lock @@ fun () ->
    Option.value ~default:0 (Hashtbl.find_opt t.status_tally name)

  (** All (status name, count) pairs, sorted by name. *)
  let status_counts t =
    Mutex.protect t.lock @@ fun () ->
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.status_tally []
    |> List.sort compare
end

let now_s () = Int64.to_float (Obs_trace.now_ns ()) /. 1e9

(** Accumulate wall-clock spent in a tuning phase into a
    [tune.phase.*_s] counter, so per-phase speedups are visible from
    the metrics dump alone. *)
let timed_phase name f =
  let t0 = now_s () in
  Fun.protect
    ~finally:(fun () -> Obs_metrics.incr ~by:(now_s () -. t0) ("tune.phase." ^ name ^ "_s"))
    f

(** Lowering, the layer inside propose and prepare, timed into
    [tune.phase.lower_s] ({!Compile_cache.featurize} times feature
    extraction into [tune.phase.feature_s]). These are busy time summed
    over every domain that runs them (worker domains buffer them under
    [Metrics.with_local_counters]), so at [-j N] they can exceed the
    wall time of the phases they sit in. *)
let instantiate template cfg =
  timed_phase "lower" (fun () -> try_instantiate template cfg)

let tune ?(spec = Tvm_spec.Job_spec.default) ?db ?cache ?measure_batch
    ~(method_ : method_) ~(measure : measure_fn) ~(n_trials : int)
    (template : template) : result =
  Obs_trace.with_span "tune"
    ~attrs:
      [
        ("template", template.tpl_name);
        ("method", method_to_string method_);
        ("trials", string_of_int n_trials);
      ]
  @@ fun () ->
  let { Tvm_spec.Job_spec.seed; batch; sa_steps; n_chains; jobs; replay; _ } =
    spec
  in
  Journal.run ~name:template.tpl_name ~method_:(method_to_string method_)
    ~trials:n_trials;
  let par = Tvm_par.Pool.create ~domains:jobs () in
  let rng = Random.State.make [| seed; Hashtbl.hash template.tpl_name |] in
  let visited : (Cfg_space.config, unit) Hashtbl.t = Hashtbl.create 256 in
  (* Configurations this run has compiled (or deliberately touched) so
     far, by canonical key. The journal's prepare verdict is membership
     here — run-local by construction, so a cache preloaded from the
     persistent store (or shared with an earlier search) cannot flip a
     cold run's "miss" into "hit" and break warm/cold journal
     byte-identity. Mirrors exactly the points where the memo gains
     entries during this run: the seek phase, the post-prepare merge,
     and the SA chains (each chain notes every configuration it
     queried, merged back in chain order). *)
  let known : (Cfg_space.config, unit) Hashtbl.t = Hashtbl.create 256 in
  let note_known cfg = Hashtbl.replace known (Cfg_space.canonical cfg) () in
  (* Training rows, newest first. A row's features are forced only
     when a fit reads them (on the coordinator). *)
  let xs : float array Lazy.t list ref = ref [] and ys = ref [] in
  let history = ref [] in
  let best_time = ref Float.max_float in
  let best_config = ref None in
  let best_stmt = ref None in
  let trial_index = ref 0 in
  (* Shared feature memo (features + validity), keyed by canonical
     config value so distinct configurations can never collide
     (structural equality, not int hash). Written (and forced) only
     between parallel sections; during SA it is read-only. *)
  let memo =
    match cache with
    | Some c -> c
    | None -> Compile_cache.create ~size:1024 ~name:template.tpl_name ()
  in
  let compile cfg =
    match instantiate template cfg with
    | Some s -> Compile_cache.Valid (Compile_cache.featurize s)
    | None -> Compile_cache.Invalid
  in
  (* Record one measured configuration: training set, incumbent, db,
     history, metrics. Sequential bookkeeping — always called on the
     coordinator, in batch order. *)
  let record_trial ~replayed uid cfg stmt (row : float array Lazy.t option)
      (result : Measure_result.t) =
    (match (row, result.Measure_result.time_s) with
    | Some f, Some time ->
        (* Only successful measurements train the cost model. *)
        xs := f :: !xs;
        ys := -.Float.log time :: !ys
    | _ -> ());
    (match result.Measure_result.time_s with
    | Some time when time < !best_time ->
        best_time := time;
        best_config := Some cfg;
        best_stmt := stmt
    | _ -> ());
    incr trial_index;
    (match db with
    | Some db when not replayed -> Db.add db template.tpl_name cfg result
    | _ -> ());
    if replayed then Obs_metrics.incr "tuner.replayed";
    history :=
      { trial_index = !trial_index; config = cfg; result;
        best_so_far = !best_time }
      :: !history;
    Journal.measure ~uid
      ~status:(Measure_result.status_name result.Measure_result.status)
      ~time_s:result.Measure_result.time_s
      ~attempts:result.Measure_result.attempts;
    if Obs_trace.enabled () then Obs_trace.flow ~id:uid Obs_trace.Flow_end "trial";
    Obs_metrics.incr "tuner.trials";
    Obs_metrics.incr
      ("tuner.status." ^ Measure_result.status_name result.Measure_result.status);
    (match result.Measure_result.time_s with
    | Some time -> Obs_metrics.observe "tuner.trial_time_s" time
    | None -> Obs_metrics.incr "tuner.failed_trials");
    if !best_config <> None then
      Obs_metrics.set_gauge "tuner.best_time_s" !best_time;
    (* Guarded so the attribute strings are never built when tracing
       is off — this is the tuner's innermost loop. *)
    if Obs_trace.enabled () then
      Obs_trace.instant "tuner.trial"
        ~attrs:
          [
            ("template", template.tpl_name);
            ("trial", string_of_int !trial_index);
            ("status", Measure_result.status_name result.Measure_result.status);
            ( "time_ms",
              match result.Measure_result.time_s with
              | Some t -> Printf.sprintf "%.6f" (1e3 *. t)
              | None -> "-" );
            ( "best_ms",
              if !best_config = None then "-"
              else Printf.sprintf "%.6f" (1e3 *. !best_time) );
          ]
  in
  (* Measure a batch of configurations (each with its provenance) and
     return each one's result in input order ([None] past the trial
     budget). [lowered] is the program of the batch's only
     configuration when this tune's seek has just lowered it.
     [fit_after] says a fit follows the batch while budget remains: only
     then does prepare extract features, since the fit reads them at
     once. Three stages: prepare (lowering, plus feature extraction when
     a fit follows, fanned out over the domain pool), measure (the batch
     callback overlaps jobs on free devices, or the per-config callback runs
     them one by one), record (sequential bookkeeping in input order).
     Results are independent of the domain count: prepared values land
     in per-index slots and every later stage walks them in input
     order. The flight recorder writes happen only in the sequential
     stages — uids, proposals and the run-local cache verdict before
     the parallel prepare, prepare/dispatch/measure records after it —
     which is what keeps the journal byte-identical at any [-j] and
     whatever the feature memo holds. *)
  let run_batch ?lowered ?(fit_after = false)
      (cfgs : (Cfg_space.config * origin) list) : Measure_result.t option list =
    let take = max 0 (min (List.length cfgs) (n_trials - !trial_index)) in
    let taken = List.filteri (fun i _ -> i < take) cfgs in
    List.iter
      (fun (cfg, _) -> Hashtbl.replace visited (Cfg_space.canonical cfg) ())
      taken;
    let tagged = Array.of_list taken in
    let uids = Array.map (fun _ -> Journal.fresh_uid ()) tagged in
    (* The journal's cache verdict is run-local (had THIS run compiled
       the config before this batch?): a preloaded memo would differ
       from a cold one, the run-local verdict does not. *)
    let cache_state =
      Array.map
        (fun (cfg, _) ->
          if Hashtbl.mem known (Cfg_space.canonical cfg) then "hit" else "miss")
        tagged
    in
    (* Replay resume: a configuration already measured in a persisted
       [db] (and valid in the cache) skips both instantiation and the
       pool dispatch, reusing the recorded result. Its features must
       come from the cache so the cost model trains on the same
       trajectory; without an entry we fall through to a live
       measurement. *)
    let replay_hit =
      Array.map
        (fun (cfg, _) ->
          if not replay then None
          else
            Option.bind db (fun db ->
                match Db.find db template.tpl_name cfg with
                | None -> None
                | Some r -> (
                    match Compile_cache.find ~record:false memo cfg with
                    | Some (Compile_cache.Valid _ | Compile_cache.Pending _) ->
                        Some r
                    | Some Compile_cache.Invalid | None -> None)))
        tagged
    in
    if Journal.enabled () || Obs_trace.enabled () then
      Array.iteri
        (fun i (cfg, og) ->
          Journal.propose ~uid:uids.(i) ~origin:og.og_kind ~chain:og.og_chain
            ~score:og.og_score ~config:(Cfg_space.to_string cfg);
          if Obs_trace.enabled () then
            Obs_trace.flow ~id:uids.(i) Obs_trace.Flow_start "trial")
        tagged;
    let featurize = fit_after && !trial_index + take < n_trials in
    let prepared =
      timed_phase "prepare" @@ fun () ->
      Tvm_par.Pool.parallel_map par
        (fun i ->
          let cfg = fst tagged.(i) in
          if replay_hit.(i) <> None then (cfg, None, None)
          else
            match Compile_cache.find memo cfg with
            | Some Compile_cache.Invalid -> (cfg, None, None)  (* skip *)
            | found ->
                (* Measurement needs the program, so lower it here
                   unless the seek just did; features come from the
                   memo when it has them. *)
                let stmt =
                  if lowered <> None then lowered else instantiate template cfg
                in
                let feats =
                  match found with
                  | Some (Compile_cache.Valid f) -> Some f
                  | _ when featurize -> Option.map Compile_cache.featurize stmt
                  | _ -> None
                in
                (cfg, stmt, feats))
        (Array.init (Array.length tagged) Fun.id)
    in
    (* Merge fresh compilations into the shared memo, in input order
       (all cache writes happen here on the coordinator): features, or
       the program until something reads them. Replay hits are already
       present in the preloaded memo. *)
    Array.iteri
      (fun i (cfg, stmt, feats) ->
        if replay_hit.(i) = None then
          Compile_cache.add memo cfg
            (match (stmt, feats) with
            | None, _ -> Compile_cache.Invalid
            | Some _, Some f -> Compile_cache.Valid f
            | Some s, None -> Compile_cache.Pending s))
      prepared;
    Array.iter (fun (cfg, _, _) -> note_known cfg) prepared;
    (* Each valid row's features: extracted above, or read from the memo
       when a fit first needs them. *)
    let rows =
      Array.mapi
        (fun i (cfg, stmt, feats) ->
          match feats with
          | Some f -> Some (Lazy.from_val f)
          | None when stmt <> None || replay_hit.(i) <> None ->
              Some (lazy (Option.get (Compile_cache.force memo cfg)))
          | None -> None)
        prepared
    in
    Array.iteri
      (fun i row ->
        Journal.prepare ~uid:uids.(i) ~cache:cache_state.(i)
          ~valid:(row <> None))
      rows;
    (* A job is dispatched to the pool iff it has a program: invalid
       configurations and replay hits never leave the coordinator. Pool
       job [j] is tagged with its trial uid so the pool's dispatch
       records attribute device attempts to the right trial. *)
    let dispatched =
      Array.to_list prepared
      |> List.mapi (fun i (cfg, stmt, _) ->
             Option.map (fun s -> (uids.(i), (cfg, s))) stmt)
      |> List.filter_map Fun.id |> Array.of_list
    in
    let tags = Array.map fst dispatched and jobs = Array.map snd dispatched in
    (* Pool exhaustion and other infrastructure failures become trials
       with a pool_error category; the loop keeps going on whatever
       budget remains. *)
    let pool_error e =
      Measure_result.fail (Measure_result.Pool_error (Printexc.to_string e))
    in
    let measured =
      timed_phase "measure" @@ fun () ->
      Fun.protect ~finally:Journal.clear_job_tags @@ fun () ->
      match measure_batch with
      | Some mb -> (
          Journal.set_job_tags tags;
          if Array.length jobs = 0 then [||]
          else
            (* A wholesale batch failure degrades to per-job pool
               errors, like the per-config path would. *)
            try mb jobs with e -> Array.map (fun _ -> pool_error e) jobs)
      | None ->
          Array.mapi
            (fun j (cfg, s) ->
              Journal.set_job_tags [| tags.(j) |];
              try measure cfg s with e -> pool_error e)
            jobs
    in
    let next = ref 0 in
    let results =
      Array.mapi
        (fun i (_, stmt, _) ->
          match (replay_hit.(i), stmt) with
          | Some r, _ -> r
          | None, None -> Measure_result.invalid_config
          | None, Some _ ->
              let r = measured.(!next) in
              incr next;
              r)
        prepared
    in
    Array.iteri
      (fun i (cfg, stmt, _) ->
        record_trial ~replayed:(replay_hit.(i) <> None) uids.(i) cfg stmt
          rows.(i) results.(i))
      prepared;
    List.mapi
      (fun i _ -> if i < take then Some results.(i) else None)
      cfgs
  in
  (* Seed the search with one known-valid configuration: heavily
     constrained spaces (odd shapes) can otherwise yield all-invalid
     random batches. A cheap instantiation check suffices, and its
     program is the one the seed batch measures. A memo hit is lowered
     again by prepare: the memo's program may be another tune's. *)
  (let seed_attempts = min 4000 (4 * Cfg_space.size template.tpl_space) in
   let rec seek i =
     if i < seed_attempts && !trial_index = 0 then begin
       let cfg = Cfg_space.random_config template.tpl_space rng in
       note_known cfg;
       (match Compile_cache.find memo cfg with
       | Some Compile_cache.Invalid -> ()
       | Some _ -> ignore (run_batch [ (cfg, origin "seed") ])
       | None -> (
           match instantiate template cfg with
           | None -> Compile_cache.add memo cfg Compile_cache.Invalid
           | Some s ->
               Compile_cache.add memo cfg (Compile_cache.Pending s);
               ignore (run_batch ~lowered:s [ (cfg, origin "seed") ])));
       seek (i + 1)
     end
   in
   seek 0);
  let sa_state = Explorers.sa_init template.tpl_space rng ~n_chains in
  let ga_state = Explorers.Genetic.init template.tpl_space rng ~pop_size:batch in
  let model = ref None in
  let exhausted = ref false in
  while (not !exhausted) && !trial_index < n_trials do
    let remaining = n_trials - !trial_index in
    let batch_now = min batch remaining in
    let before = !trial_index in
    (match method_ with
    | Random_search ->
        let cfgs = Explorers.random_batch template.tpl_space rng ~visited ~batch:batch_now in
        ignore (run_batch (List.map (fun c -> (c, origin "random")) cfgs))
    | Genetic_algorithm ->
        let cfgs =
          if !trial_index = 0 then
            List.map (fun ind -> ind.Explorers.Genetic.cfg) ga_state.Explorers.Genetic.population
          else Explorers.Genetic.next_generation template.tpl_space rng ga_state ~mutation_rate:0.3
        in
        let cfgs = List.filteri (fun i _ -> i < batch_now) cfgs in
        let results = run_batch (List.map (fun c -> (c, origin "ga")) cfgs) in
        let fitness =
          List.map
            (fun r ->
              match Option.bind r Measure_result.time with
              | Some t -> -.Float.log t
              | None -> -1e9  (* failed or unmeasured: minimal fitness *))
            results
        in
        (* Population and measured prefix may differ on the last round. *)
        if List.length fitness = List.length ga_state.Explorers.Genetic.population then
          Explorers.Genetic.record_fitness ga_state fitness
    | Ml_model ->
        let cfgs =
          match !model with
          | None ->
              (* No training data yet: random candidates (§5.3). *)
              List.map
                (fun c -> (c, origin "random"))
                (Explorers.random_batch template.tpl_space rng ~visited
                   ~batch:batch_now)
          | Some m ->
              (* The shared memo is read-only while the chains run: each
                 chain lists the configurations it queries, with the
                 entry it compiled on a miss or featurized from a pending
                 program. The explorer scores each
                 configuration once per chain, so one recording probe
                 per query counts it exactly once. Afterwards the lists
                 fold into [known] and the memo in chain-index order, so
                 the memo's contents never depend on the domain count. *)
              let queried = Array.make n_chains [] in
              let predict_for_chain ci cfg =
                let entry, compiled =
                  match Compile_cache.find memo cfg with
                  | Some (Compile_cache.Pending s) ->
                      (* Featurized here; the coordinator stores it. *)
                      let e = Compile_cache.Valid (Compile_cache.featurize s) in
                      (e, Some e)
                  | Some e -> (e, None)
                  | None ->
                      let e = compile cfg in
                      (e, Some e)
                in
                queried.(ci) <- (cfg, compiled) :: queried.(ci);
                match Compile_cache.feats entry with
                | Some f -> Gbt.predict m f
                | None -> neg_infinity
              in
              (* ε-greedy: reserve part of the batch for uniform random
                 exploration so the model keeps seeing fresh regions. *)
              let n_random = max 1 (batch_now / 4) in
              let proposed =
                timed_phase "propose" @@ fun () ->
                Explorers.simulated_annealing ~pool:par template.tpl_space rng
                  sa_state ~predict_for_chain ~visited ~n_steps:sa_steps
                  ~temp:1.0
                  ~batch:(max 0 (batch_now - n_random))
                |> List.map (fun (c, chain, score) ->
                       (c, origin ~chain ~score "sa"))
              in
              Array.iter
                (fun q ->
                  List.iter
                    (fun (cfg, compiled) ->
                      note_known cfg;
                      Option.iter (Compile_cache.add memo cfg) compiled)
                    (List.rev q))
                queried;
              let filler =
                Explorers.random_batch template.tpl_space rng ~visited
                  ~batch:(batch_now - List.length proposed)
                |> List.map (fun c -> (c, origin "random"))
              in
              if proposed = [] && filler = [] then
                List.map
                  (fun c -> (c, origin "random"))
                  (Explorers.random_batch template.tpl_space rng ~visited
                     ~batch:batch_now)
              else proposed @ filler
        in
        ignore (run_batch ~fit_after:true cfgs);
        (* Refit only for a proposal round still to come: a model fitted
           after the last batch would never be read. Rows whose features
           are still pending are featurized here, on the coordinator. *)
        if !xs <> [] && !trial_index > before && !trial_index < n_trials then begin
          let rows = Array.of_list (List.map Lazy.force !xs) in
          model :=
            Some
              (timed_phase "fit" @@ fun () ->
               Gbt.fit ~pool:par rows (Array.of_list !ys))
        end);
    (* A round with no new measurements means the space is exhausted. *)
    if !trial_index = before then exhausted := true
  done;
  match !best_config with
  | Some cfg ->
      { best_config = cfg; best_time = !best_time; history = List.rev !history;
        best_stmt = !best_stmt }
  | None ->
      invalid_arg
        (Printf.sprintf "tune(%s): no valid configuration found in %d trials"
           template.tpl_name n_trials)
