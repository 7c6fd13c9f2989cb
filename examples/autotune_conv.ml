(* Automated schedule optimization (§5) on one convolution: explore the
   schedule space with the ML cost model, random search, and the
   genetic-algorithm baseline, and watch the ML model's rank accuracy
   improve as measurements accumulate — Fig 11/12's machinery.

   Run with: dune exec examples/autotune_conv.exe *)

open Tvm_tir
module Tensor = Tvm_te.Tensor
module Op = Tvm_te.Operators
module Templates = Tvm_autotune.Templates
module Tuner = Tvm_autotune.Tuner
module Cfg = Tvm_autotune.Cfg_space
module Pool = Tvm_rpc.Device_pool
module Spec = Tvm_spec.Job_spec
module Machine = Tvm_sim.Machine

let () =
  (* The C7 workload from Table 2: conv2d 28x28, 128->256, 3x3 stride 2. *)
  let data = Tensor.placeholder "data" (List.map Expr.int [ 1; 128; 28; 28 ]) in
  let weight = Tensor.placeholder "weight" (List.map Expr.int [ 256; 128; 3; 3 ]) in
  let conv = Op.conv2d ~name:"c7" ~stride:2 data weight in
  let tpl = Templates.gpu_flat ~name:"autotune_c7" conv in
  Printf.printf "schedule space: %d configurations, knobs:\n"
    (Cfg.size tpl.Tuner.tpl_space);
  List.iter
    (fun k ->
      Printf.printf "  %-12s %d choices\n" k.Cfg.k_name (Array.length k.Cfg.k_choices))
    tpl.Tuner.tpl_space.Cfg.knobs;

  (* The measurement side: a simulated RPC device pool with one GPU
     (Fig 11's device cluster). *)
  let pool = Pool.of_spec ~kind:(Pool.Gpu_dev Machine.titan_x) Spec.default in
  let measure = Pool.measure_fn pool ~kind_pred:Pool.is_gpu in

  let budget = 128 in
  List.iter
    (fun method_ ->
      let res = Tuner.tune ~method_ ~measure ~n_trials:budget tpl in
      Printf.printf "\n%-10s best %.3f ms after %d trials\n"
        (Tuner.method_to_string method_)
        (1e3 *. res.Tuner.best_time) budget;
      Printf.printf "  best config: %s\n" (Cfg.to_string res.Tuner.best_config))
    [ Tuner.Ml_model; Tuner.Random_search; Tuner.Genetic_algorithm ];

  let print_pool pool =
    let st = Pool.stats pool in
    Printf.printf "device pool: %d jobs, %d attempts, %d retries, %.1fs makespan\n"
      st.Pool.fs_jobs st.Pool.fs_attempts st.Pool.fs_retries (Pool.makespan pool)
  in
  print_newline ();
  print_pool pool;

  (* The same search on an unreliable pool: two GPUs with 20% transient
     faults (timeouts, crashes, corrupted runs). Bounded retries keep
     the loop converging; a job that exhausts its retries becomes a
     failed trial instead of stopping the search. *)
  Printf.printf "\n--- fault-tolerant tuning on a flaky pool ---\n";
  let flaky =
    Pool.of_spec ~kind:(Pool.Gpu_dev Machine.titan_x)
      (Spec.make ~devices:2 ~fault_rate:0.2 ~seed:1 ())
  in
  let db = Tuner.Db.create () in
  let res =
    Tuner.tune ~db
      ~method_:Tuner.Ml_model
      ~measure:(Pool.measure_fn flaky ~kind_pred:Pool.is_gpu)
      ~n_trials:budget tpl
  in
  Printf.printf "best on flaky pool: %.3f ms\n" (1e3 *. res.Tuner.best_time);
  Printf.printf "trial outcomes: %s\n"
    (String.concat ", "
       (List.map (fun (s, n) -> Printf.sprintf "%s=%d" s n) (Tuner.Db.status_counts db)));
  print_pool flaky
