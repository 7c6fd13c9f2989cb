(** Ablation studies for the design choices DESIGN.md calls out. *)

open Tvm_tir
module Tuner = Tvm_autotune.Tuner
module Gbt = Tvm_autotune.Gbt
module Feature = Tvm_autotune.Feature
module Treernn = Tvm_autotune.Treernn
module Cfg = Tvm_autotune.Cfg_space
module Explorers = Tvm_autotune.Explorers
module Pool = Tvm_rpc.Device_pool
module Machine = Tvm_sim.Machine
module Fusion = Tvm_graph.Fusion
module Mem_plan = Tvm_graph.Mem_plan
module Models = Tvm_models.Models
open Exp_util

(* ------------------------------------------------------------------ *)
(* Cost-model features: full set vs counts-only vs TreeRNN              *)
(* ------------------------------------------------------------------ *)

(** Collect a labeled dataset from random configurations of the Fig 12
    conv template, then compare predictive quality and speed of the
    three cost models (the paper's §5.2 comparison). *)
let ablation_features ?(n = 120) () =
  banner "Ablation: cost-model features (GBT full vs counts-only vs TreeRNN)";
  let tpl, _ = Fig_micro.fig12_template () in
  let rng = Random.State.make [| 99 |] in
  let samples = ref [] in
  let attempts = ref 0 in
  while List.length !samples < n && !attempts < n * 30 do
    incr attempts;
    let cfg = Cfg.random_config tpl.Tuner.tpl_space rng in
    match Tuner.try_instantiate tpl cfg with
    | Some stmt ->
        let t = Tvm_sim.Gpu_model.time_s Machine.titan_x stmt in
        if Float.is_finite t then samples := (stmt, -.Float.log t) :: !samples
    | None -> ()
  done;
  let samples = Array.of_list !samples in
  let n = Array.length samples in
  let split = n / 2 in
  let train = Array.sub samples 0 split and test = Array.sub samples split (n - split) in
  let feats arr = Array.map (fun (s, _) -> Feature.extract s) arr in
  let labels arr = Array.map snd arr in
  (* counts-only: zero out everything except access counts *)
  let strip f =
    Array.mapi (fun i v -> if i < 10 then 0. else if (i - 10) mod Feature.per_buffer_feats = 0 then v else 0.) f
  in
  (* Features are extracted outside the timers: each "fit (s)" column
     times only its model's fit. *)
  let train_feats = feats train and test_feats = feats test in
  let t0 = Sys.time () in
  let full = Gbt.fit train_feats (labels train) in
  let t_fit = Sys.time () -. t0 in
  let counts = Gbt.fit (Array.map strip train_feats) (labels train) in
  let t1 = Sys.time () in
  let rnn = Treernn.fit (Array.map fst train) (labels train) in
  let t_rnn_fit = Sys.time () -. t1 in
  let acc_full = Gbt.rank_accuracy full test_feats (labels test) in
  let acc_counts = Gbt.rank_accuracy counts (Array.map strip test_feats) (labels test) in
  (* TreeRNN rank accuracy *)
  let preds = Array.map (fun (s, _) -> Treernn.predict rnn s) test in
  let ys = labels test in
  let correct = ref 0 and total = ref 0 in
  Array.iteri
    (fun i _ ->
      for j = i + 1 to Array.length test - 1 do
        if ys.(i) <> ys.(j) then begin
          incr total;
          if ys.(i) < ys.(j) = (preds.(i) < preds.(j)) then incr correct
        end
      done)
    test;
  let acc_rnn = if !total = 0 then 1. else float_of_int !correct /. float_of_int !total in
  (* prediction speed *)
  let time_pred f =
    let t0 = Sys.time () in
    for _ = 1 to 20 do
      Array.iter (fun x -> ignore (f x)) test
    done;
    (Sys.time () -. t0) /. float_of_int (20 * Array.length test) *. 1e6
  in
  let gbt_us = time_pred (fun (s, _) -> Gbt.predict full (Feature.extract s)) in
  let rnn_us = time_pred (fun (s, _) -> Treernn.predict rnn s) in
  Printf.printf "%-22s%16s%16s%16s\n" "model" "rank accuracy" "predict (us)" "fit (s)";
  Printf.printf "%-22s%16.3f%16.1f%16.2f\n" "GBT, full features" acc_full gbt_us t_fit;
  Printf.printf "%-22s%16.3f%16s%16s\n" "GBT, counts only" acc_counts "-" "-";
  Printf.printf "%-22s%16.3f%16.1f%16.2f\n" "TreeRNN" acc_rnn rnn_us t_rnn_fit;
  (acc_full, acc_counts, acc_rnn)

(* ------------------------------------------------------------------ *)
(* Explorer: simulated annealing vs greedy random-ranked batches        *)
(* ------------------------------------------------------------------ *)

let ablation_explorer ?(n_trials = 240) () =
  banner "Ablation: SA explorer vs greedy ranked-random proposals";
  let tpl, _ = Fig_micro.fig12_template () in
  let pool =
    Pool.of_spec ~kind:(Pool.Gpu_dev Machine.titan_x) Tvm_spec.Job_spec.default
  in
  let measure = Pool.measure_fn pool ~kind_pred:(fun _ -> true) in
  let sa =
    Tuner.tune
      ~spec:(Tvm_spec.Job_spec.make ~seed:5 ())
      ~method_:Tuner.Ml_model ~measure ~n_trials tpl
  in
  (* Greedy: rank a large random pool with the model, measure top-k.
     Approximated here by SA with zero walk steps. *)
  let greedy =
    Tuner.tune
      ~spec:(Tvm_spec.Job_spec.make ~seed:5 ~sa_steps:1 ~n_chains:64 ())
      ~method_:Tuner.Ml_model ~measure ~n_trials tpl
  in
  Printf.printf "SA explorer best:      %.3f ms\n" (ms sa.Tuner.best_time);
  Printf.printf "greedy ranking best:   %.3f ms\n" (ms greedy.Tuner.best_time);
  (sa.Tuner.best_time, greedy.Tuner.best_time)

(* ------------------------------------------------------------------ *)
(* Memory planner                                                       *)
(* ------------------------------------------------------------------ *)

let ablation_memplan () =
  banner "Ablation: static memory planner (pooled vs one-buffer-per-tensor)";
  let rows =
    List.map
      (fun (name, graph) ->
        let groups = Fusion.fuse graph in
        let plan = Mem_plan.plan graph groups in
        ( name,
          [ plan.Mem_plan.naive_bytes /. 1e6; plan.Mem_plan.total_bytes /. 1e6;
            plan.Mem_plan.naive_bytes /. Float.max 1. plan.Mem_plan.total_bytes ] ))
      [ ("ResNet-18", Models.resnet18 ()); ("MobileNet", Models.mobilenet ());
        ("LSTM LM", Models.lstm_lm ()); ("DQN", Models.dqn ());
        ("DCGAN", Models.dcgan ()) ]
  in
  table ~columns:[ "naive MB"; "pooled MB"; "reduction" ] ~fmt:"%.2f" rows;
  rows

(* ------------------------------------------------------------------ *)
(* Data layout (§3): blocked-channel preference vs repacking cost       *)
(* ------------------------------------------------------------------ *)

let ablation_layout () =
  banner "Ablation: data-layout transformation (NCHW -> NCHW[c])";
  let rows =
    List.map
      (fun (name, graph) ->
        let r = Tvm_graph.Layout.annotate ~lanes:4 graph in
        let blocked =
          List.length
            (List.filter (fun (_, l) -> l <> Tvm_graph.Layout.Nchw) r.Tvm_graph.Layout.annotations)
        in
        let total = List.length r.Tvm_graph.Layout.annotations in
        let bytes = Tvm_graph.Layout.transform_bytes graph r in
        ( name,
          [ float_of_int total; float_of_int blocked;
            float_of_int r.Tvm_graph.Layout.transforms_inserted; bytes /. 1e6 ] ))
      [ ("ResNet-18", Models.resnet18 ()); ("MobileNet", Models.mobilenet ());
        ("DQN", Models.dqn ()) ]
  in
  table ~columns:[ "ops"; "blocked"; "transforms"; "repack MB" ] ~fmt:"%.1f" rows;
  rows

(* ------------------------------------------------------------------ *)
(* Fusion rules: full vs injective-only                                 *)
(* ------------------------------------------------------------------ *)

let ablation_fusion () =
  banner "Ablation: fusion coverage (groups per network)";
  let rows =
    List.map
      (fun (name, graph) ->
        let fused = List.length (Fusion.fuse graph) in
        let unfused = List.length (Fusion.no_fusion graph) in
        (name, [ float_of_int unfused; float_of_int fused;
                 float_of_int unfused /. float_of_int fused ]))
      [ ("ResNet-18", Models.resnet18 ()); ("MobileNet", Models.mobilenet ());
        ("LSTM LM", Models.lstm_lm ()); ("DQN", Models.dqn ());
        ("DCGAN", Models.dcgan ()) ]
  in
  table ~columns:[ "ops"; "fused groups"; "kernels saved" ] ~fmt:"%.1f" rows;
  rows
