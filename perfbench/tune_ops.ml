(* tune_ops: ML-guided tuning (the Fig 12 loop) of four Table-2 ops on
   the classic titan-x pool at two host domains. The propose phase
   (lower + feature + predict) dominates the wall time here, the
   compile cache is reused heavily, and it is the only workload where
   simulated annealing, GBT prediction and multi-domain parallelism
   do real work. *)

open Common
module Tuner = Tvm_autotune.Tuner
module Pool = Tvm_rpc.Device_pool
module Spec = Tvm_spec.Job_spec
module Workloads = Tvm_models.Workloads

(* C2: 3×3 at large spatial size; C7: the ROADMAP's reference op;
   C11: 1×1 and deep; D4: depthwise. *)
let ops = [ "C2"; "C7"; "C11"; "D4" ]

(* One random batch of 16, then two simulated-annealing rounds. *)
let trials = 48
let domains = 2

(* A run tunes every op from [seeds_per_run] seeds derived from the
   run's seed, one pass per seed: the cost of one search trajectory
   varies by about 15% with the seed, so a run averages over several.
   A round is one pass per seed; a run repeats whole rounds, at least
   two, so every unit (op, seed) is repeated equally often. *)
let seeds_per_run = 3
let pass_seed seed i = seed + (104729 * i)

type env = { templates : (string * Tuner.template) list }

let setup () =
  {
    templates =
      List.map
        (fun name ->
          let out = Tvm_experiments.Fig_e2e.conv_tensor (Workloads.find name) in
          (name, Tvm_autotune.Templates.gpu_flat ~name:("bench_" ^ name) out))
        ops;
  }

type wraps = { lower : acc; rpc : acc; programs : Tvm_tir.Stmt.t list ref }

let max_captured = 64

let tune_op ?wraps ~seed tpl =
  let spec =
    Spec.make ~op:Spec.Tune ~workload:tpl.Tuner.tpl_name ~trials ~seed ~jobs:domains ()
  in
  let par = Tvm_par.Pool.create ~domains () in
  let pool = Pool.of_spec spec in
  let measure = Pool.measure_fn pool ~kind_pred:(fun _ -> true) in
  let measure_batch = Pool.batch_measure_fn ~par pool ~kind_pred:(fun _ -> true) in
  let tpl, measure_batch =
    match wraps with
    | None -> (tpl, measure_batch)
    | Some w ->
        let instantiate cfg =
          let s = wrap w.lower tpl.Tuner.tpl_instantiate cfg in
          Mutex.protect w.lower.lock (fun () ->
              if List.compare_length_with !(w.programs) max_captured < 0 then
                w.programs := s :: !(w.programs));
          s
        in
        ({ tpl with Tuner.tpl_instantiate = instantiate }, wrap w.rpc measure_batch)
  in
  Tuner.tune ~spec ~measure_batch ~method_:Tuner.Ml_model ~measure ~n_trials:trials tpl

type job = { op : string; seed : int; cost : cost; result : Tuner.result }

(* One pass: every op tuned from [seed], each tuning timed. *)
let run_pass ?wraps env ~seed =
  List.map
    (fun (op, tpl) ->
      let result, cost = timed_unit ~domains (fun () -> tune_op ?wraps ~seed tpl) in
      { op; seed; cost; result })
    env.templates

let pass_trials pass =
  List.fold_left (fun n j -> n + List.length j.result.Tuner.history) 0 pass

let pass_seconds pass = sum (List.map (fun j -> j.cost.wall_s) pass)

(* Virtual outputs: each tuning's best configuration and its simulated
   time, exactly. *)
let digest pass =
  String.concat "\n"
    (List.map
       (fun j ->
         Printf.sprintf "%s %d %h %s" j.op j.seed j.result.Tuner.best_time
           (Tvm_autotune.Cfg_space.to_string j.result.Tuner.best_config))
       pass)

(* Each tuning's best configuration must lower to a program the static
   validator passes with zero errors. *)
let check_pass env pass =
  List.iter
    (fun j ->
      let tpl = List.assoc j.op env.templates in
      let errors =
        match tpl.Tuner.tpl_instantiate j.result.Tuner.best_config with
        | stmt -> List.length (Tvm_tir.Validate.errors (Tvm_tir.Validate.check stmt))
        | exception _ -> 1
      in
      check (Printf.sprintf "%s seed %d: best config validates" j.op j.seed) (errors = 0))
    pass

(* Geomean over ops of the best kernel time found from the run's
   seed. *)
let record_virtual pass =
  record "kernel_us" (geomean (List.map (fun j -> 1e6 *. j.result.Tuner.best_time) pass))

let measure env ~seed ~seconds =
  let rounds =
    repeat_for ~min_passes:2 ~seconds (fun _ ->
        List.init seeds_per_run (fun i ->
            let p = run_pass env ~seed:(pass_seed seed i) in
            check_pass env p;
            p))
  in
  (* The repetitions of each seed's pass; their virtual outputs must
     agree. *)
  let by_seed = List.init seeds_per_run (fun i -> List.map (fun r -> List.nth r i) rounds) in
  List.iter
    (fun reps ->
      let d0 = digest (List.hd reps) in
      List.iteri
        (fun k p -> same_virtual_output (Printf.sprintf "tune_ops repetition %d" k) d0 (digest p))
        reps)
    by_seed;
  let once = List.map List.hd by_seed in
  let trials = float_of_int (List.fold_left (fun n p -> n + pass_trials p) 0 once) in
  let per_trial clock = sum (List.concat_map (median_units clock) by_seed) /. trials in
  record "cpu_ms_per_op" (1e3 *. per_trial (fun j -> calibrated j.cost));
  record "tune_ms_per_trial" (1e3 *. per_trial (fun j -> j.cost.wall_s));
  record_cal (List.concat_map (List.concat_map (List.map (fun j -> j.cost))) rounds);
  record "alloc_kwords_per_op"
    (sum (List.concat_map (List.map (fun j -> j.cost.words)) once) /. trials /. 1e3);
  record_virtual (List.hd once)

(* A tuning's final training set, rebuilt from its trial history:
   features of every successful trial against -log time. *)
let training_set tpl (r : Tuner.result) =
  List.filter_map
    (fun (t : Tuner.trial) ->
      match t.Tuner.result.Tvm_autotune.Measure_result.time_s with
      | Some time -> (
          match tpl.Tuner.tpl_instantiate t.Tuner.config with
          | stmt -> Some (Tvm_autotune.Feature.extract stmt, -.log time)
          | exception _ -> None)
      | None -> None)
    r.Tuner.history

let traced env ~seed ~seconds =
  let w = { lower = acc (); rpc = acc (); programs = ref [] } in
  let pairs =
    repeat_for ~seconds (fun k ->
        let seed = pass_seed seed (k mod seeds_per_run) in
        let u = run_pass env ~seed in
        let t, deltas =
          counter_delta Layers.tuner_counters (fun () -> run_pass ~wraps:w env ~seed)
        in
        check_pass env t;
        same_virtual_output (Printf.sprintf "tune_ops pass %d" k) (digest u) (digest t);
        (u, (t, deltas)))
  in
  let traced = List.map snd pairs in
  let first = fst (List.hd pairs) in
  let sum_t f = sum (List.map f traced) in
  let sum_d n = sum_t (fun (_, d) -> List.assoc n d) in
  let traced_s = sum_t (fun (t, _) -> pass_seconds t) in
  let n_trials = sum_t (fun (t, _) -> float_of_int (pass_trials t)) in
  record_virtual first;
  Layers.record_overhead ~untraced_s:(sum (List.map (fun (u, _) -> pass_seconds u) pairs)) ~traced_s;
  (* Wrapped layers. *)
  let calls = float_of_int w.lower.calls in
  record "lower.ms_per_call" (1e3 *. ratio w.lower.busy_s calls);
  record "lower.calls_per_trial" (ratio calls n_trials);
  record "lower.invalid_ratio" (ratio (float_of_int w.lower.fails) calls);
  record "lower.minor_kwords_per_call" (ratio w.lower.words calls /. 1e3);
  record "rpc.measure_ms_per_job" (1e3 *. ratio w.rpc.busy_s (sum_d "pool.jobs"));
  (* The tuner's own phase timers and cache counters. *)
  Layers.record_tuner_counters (List.map (fun n -> (n, sum_d n)) Layers.tuner_counters);
  let ok =
    List.fold_left
      (fun n j ->
        n
        + List.length
            (List.filter
               (fun (t : Tuner.trial) ->
                 t.Tuner.result.Tvm_autotune.Measure_result.time_s <> None)
               j.result.Tuner.history))
      0 first
  in
  record "tuner.ok_ratio" (ratio (float_of_int ok) (float_of_int (pass_trials first)));
  (* Replays on the captured programs and on the final training set of
     C7's tuning at the run's seed. *)
  let feature_s = Layers.replay_programs !(w.programs) in
  Layers.replay_model (Tvm.Target.cuda ()) !(w.programs);
  let c7 = List.find (fun j -> j.op = "C7") first in
  let rows = training_set (List.assoc "C7" env.templates) c7.result in
  let xs = Array.of_list (List.map fst rows) and ys = Array.of_list (List.map snd rows) in
  let par = Tvm_par.Pool.create ~domains () in
  let fit_s = per_call [| () |] (fun () -> Tvm_autotune.Gbt.fit ~pool:par xs ys) in
  let model = Tvm_autotune.Gbt.fit ~pool:par xs ys in
  record "gbt.fit_ms" (1e3 *. fit_s);
  record "gbt.fit_rows" (float_of_int (Array.length xs));
  record "gbt.predict_us_per_call" (1e6 *. per_call xs (Tvm_autotune.Gbt.predict model));
  Layers.replay_vdla
    (List.filter_map
       (fun name ->
         let c = Workloads.find name in
         if c.Workloads.depthwise then None
         else
           Some
             ( c.Workloads.hw, c.Workloads.hw, c.Workloads.ic, c.Workloads.oc,
               c.Workloads.kernel, c.Workloads.stride ))
       ops);
  (* Covered host time: wrapped lowering and measurement, feature
     extraction of every valid lowering at its replayed cost, and the
     tuner's own fit timer; the rest is search bookkeeping and idle
     domains. *)
  let valid = float_of_int (w.lower.calls - w.lower.fails) in
  Layers.record_unattributed ~wall_s:traced_s ~domains
    (w.lower.busy_s +. w.rpc.busy_s +. (valid *. feature_s) +. sum_d "tune.phase.fit_s")
