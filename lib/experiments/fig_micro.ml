(** Component-level experiments: Figs 4, 6, 7, 10, 12 and Tables 1–2. *)

open Tvm_tir
module Tensor = Tvm_te.Tensor
module Op = Tvm_te.Operators
module Machine = Tvm_sim.Machine
module Gpu_model = Tvm_sim.Gpu_model
module Templates = Tvm_autotune.Templates
module Tuner = Tvm_autotune.Tuner
module Cfg = Tvm_autotune.Cfg_space
module Pool = Tvm_rpc.Device_pool
module G = Tvm_graph.Graph_ir
module Attrs = Tvm_graph.Attrs
module Workloads = Tvm_models.Workloads
module Vendor = Tvm_baselines.Vendor
module V = Tvm_vdla.Vdla_schedule
module Des = Tvm_vdla.Des
open Exp_util

let titan = Machine.titan_x

(** Override a knob in every configuration a template instantiates. *)
let force_knob (tpl : Tuner.template) (k, v) =
  {
    tpl with
    Tuner.tpl_instantiate =
      (fun cfg -> tpl.Tuner.tpl_instantiate ((k, v) :: List.remove_assoc k cfg));
  }

let tune_gpu ?(method_ = Tuner.Ml_model) ?(seed = 42) ~trials tpl =
  let spec = Tvm_spec.Job_spec.make ~seed () in
  let pool = Pool.of_spec ~kind:(Pool.Gpu_dev titan) spec in
  let measure = Pool.measure_fn pool ~kind_pred:Pool.is_gpu in
  Tuner.tune ~spec ~method_ ~measure ~n_trials:trials tpl

(* ------------------------------------------------------------------ *)
(* Fig 4: operator fusion                                               *)
(* ------------------------------------------------------------------ *)

let attr_i n = Attrs.Int n
let attr_s s = Attrs.Str s

(** The four fusion workloads of Fig 4, as single-block graphs. *)
let fig4_workloads () =
  let conv_bn_relu () =
    (* conv+bn+relu: 1x1x128x256 conv on 128x28x28. *)
    let b = G.builder () in
    let d = G.input b "d" [ 1; 128; 28; 28 ] in
    let w = G.param b "w" [ 256; 128; 1; 1 ] in
    let c = G.op b "conv2d" ~attrs:[ ("stride", attr_i 1); ("padding", attr_s "same") ] [ d; w ] in
    let sc = G.param b "sc" [ 256 ] and sh = G.param b "sh" [ 256 ] in
    let bn = G.op b "batch_norm" [ c; sc; sh ] in
    let r = G.op b "relu" [ bn ] in
    G.finalize b [ r ]
  in
  let dw_bn_relu () =
    let b = G.builder () in
    let d = G.input b "d" [ 1; 512; 14; 14 ] in
    let w = G.param b "w" [ 512; 1; 3; 3 ] in
    let c =
      G.op b "depthwise_conv2d" ~attrs:[ ("stride", attr_i 1); ("padding", attr_s "same") ] [ d; w ]
    in
    let sc = G.param b "sc" [ 512 ] and sh = G.param b "sh" [ 512 ] in
    let bn = G.op b "batch_norm" [ c; sc; sh ] in
    let r = G.op b "relu" [ bn ] in
    G.finalize b [ r ]
  in
  let rnn_cell () =
    (* h' = tanh(x·W + h·U + b), hidden 128. *)
    let b = G.builder () in
    let x = G.input b "x" [ 1; 128 ] in
    let h = G.input b "h" [ 1; 128 ] in
    let w = G.param b "w" [ 128; 128 ] and u = G.param b "u" [ 128; 128 ] in
    let xb = G.op b "dense" [ x; w ] and hb = G.op b "dense" [ h; u ] in
    let s = G.op b "add" [ xb; hb ] in
    let bias = G.param b "b" [ 128 ] in
    let s = G.op b "bias_add" [ s; bias ] in
    let out = G.op b "tanh" [ s ] in
    G.finalize b [ out ]
  in
  let lstm_cell () =
    let g = Tvm_models.Models.lstm_lm ~hidden:128 ~layers:1 ~vocab:128 ~steps:1 () in
    g
  in
  [
    ("conv+bn+relu 128x28x28", conv_bn_relu ());
    ("dwconv+bn+relu 512x14x14", dw_bn_relu ());
    ("rnn cell h=128", rnn_cell ());
    ("lstm cell h=128", lstm_cell ());
  ]

let fig4 () =
  banner "Figure 4: fused vs non-fused operations (Titan X)";
  let target = Tvm.Target.cuda () in
  let rows =
    List.map
      (fun (name, graph) ->
        Tvm.Compiler.clear_cache ();
        let spec = Tvm_spec.Job_spec.make ~trials:(trials 48) () in
        let fused, ef =
          Tvm.Compiler.build_executor ~spec graph target
        in
        ignore fused;
        let unfused, eu =
          Tvm.Compiler.build_executor
            ~spec:{ spec with Tvm_spec.Job_spec.fusion = false }
            graph target
        in
        ignore unfused;
        let tf = Tvm_runtime.Graph_executor.estimated_time_s ef in
        let tu = Tvm_runtime.Graph_executor.estimated_time_s eu in
        (name, [ tu /. tf ]))
      (fig4_workloads ())
  in
  table ~columns:[ "fusion speedup" ] ~fmt:"%.2f" rows;
  rows

(* ------------------------------------------------------------------ *)
(* Fig 6: schedule-primitive capability matrix                          *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  banner "Figure 6: schedule primitives used per back-end";
  let rows =
    [
      ("[Halide] loop transformations", [ "yes"; "yes"; "yes" ]);
      ("[Halide] thread binding", [ "yes"; "yes"; "yes" ]);
      ("[Halide] compute locality", [ "yes"; "yes"; "yes" ]);
      ("[TVM] special memory scope", [ "-"; "yes"; "yes" ]);
      ("[TVM] tensorization", [ "yes"; "yes"; "yes" ]);
      ("[TVM] latency hiding", [ "-"; "-"; "yes" ]);
    ]
  in
  Printf.printf "%-34s%10s%10s%10s\n" "" "CPU" "GPU" "Accel";
  List.iter
    (fun (name, cells) ->
      Printf.printf "%-34s" name;
      List.iter (fun c -> Printf.printf "%10s" c) cells;
      print_newline ())
    rows

(* ------------------------------------------------------------------ *)
(* Fig 7: cooperative shared-memory fetching                            *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  banner "Figure 7: matmul — cuBLAS vs TVM vs TVM w/o cooperation (Titan X)";
  let rows =
    List.map
      (fun size ->
        let a = Tensor.placeholder (Printf.sprintf "A%d" size) [ Expr.int size; Expr.int size ] in
        let b = Tensor.placeholder (Printf.sprintf "B%d" size) [ Expr.int size; Expr.int size ] in
        let c = Op.dense ~name:(Printf.sprintf "mm%d" size) a b in
        let tpl = Templates.gpu_matmul ~name:(Printf.sprintf "matmul%d" size) c in
        let with_coop = tune_gpu ~trials:(trials 96) (force_knob tpl ("coop", 1)) in
        let without = tune_gpu ~trials:(trials 96) (force_knob tpl ("coop", 0)) in
        let flops = 2. *. (float_of_int size ** 3.) in
        let cublas =
          Vendor.op_time Vendor.Cublas (Vendor.Gpu_m titan) ~op:"dense"
            ~in_shapes:[ [ size; size ]; [ size; size ] ]
            ~out_shape:[ size; size ] ~attrs:[] ~dtype:Dtype.Float32
        in
        ignore flops;
        ( string_of_int size,
          [ ms cublas; ms without.Tuner.best_time; ms with_coop.Tuner.best_time ] ))
      [ 1024; 2048 ]
  in
  table ~columns:[ "cuBLAS"; "TVM w/o coop"; "TVM" ] ~fmt:"%.3f" rows;
  rows

(* ------------------------------------------------------------------ *)
(* Fig 10: VDLA roofline / latency hiding                               *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  banner "Figure 10: VDLA roofline — ResNet conv layers, latency hiding on/off";
  let layers =
    List.filter (fun w -> not w.Workloads.depthwise && w.Workloads.name <> "C1")
      Workloads.resnet_convs
  in
  Printf.printf "%-6s%12s%14s%14s%14s%14s\n" "layer" "ops/byte"
    "GOPS (vt=1)" "util (vt=1)" "GOPS (vt=2)" "util (vt=2)";
  let utils =
    List.map
      (fun w ->
        let run vt =
          let m, n, k =
            V.conv_as_gemm ~h:w.Workloads.hw ~w:w.Workloads.hw ~ic:w.Workloads.ic
              ~oc:w.Workloads.oc ~kernel:w.Workloads.kernel ~stride:w.Workloads.stride
          in
          let wl =
            V.gemm_workload
              ~name:(Printf.sprintf "f10_%s_vt%d" w.Workloads.name vt)
              ~m ~n ~k ()
          in
          let stream, stats = V.simulate ~vthreads:vt wl in
          let intensity, gops = Des.roofline_point Machine.vdla stream stats in
          (intensity, gops, stats.Des.compute_utilization)
        in
        let intensity, gops1, util1 = run 1 in
        let _, gops2, util2 = run 2 in
        Printf.printf "%-6s%12.1f%14.1f%14.2f%14.1f%14.2f\n" w.Workloads.name
          intensity gops1 util1 gops2 util2;
        (util1, util2))
      layers
  in
  let peak1 = List.fold_left (fun acc (u, _) -> Float.max acc u) 0. utils in
  let peak2 = List.fold_left (fun acc (_, u) -> Float.max acc u) 0. utils in
  Printf.printf "peak compute utilization: %.0f%% without hiding -> %.0f%% with hiding\n"
    (100. *. peak1) (100. *. peak2);
  (peak1, peak2)

(* ------------------------------------------------------------------ *)
(* Fig 12 + Table 1: automation methods                                 *)
(* ------------------------------------------------------------------ *)

let table1 () =
  banner "Table 1: comparison of automation methods";
  Printf.printf "%-24s%14s%12s%16s%14s\n" "Method" "Data Cost" "Model Bias"
    "Need HW Info" "Learn History";
  Printf.printf "%-24s%14s%12s%16s%14s\n" "Blackbox auto-tuning" "high" "none" "no" "no";
  Printf.printf "%-24s%14s%12s%16s%14s\n" "Predefined cost model" "none" "high" "yes" "no";
  Printf.printf "%-24s%14s%12s%16s%14s\n" "ML based cost model" "low" "low" "no" "yes"

let table2 () =
  banner "Table 2: single-kernel workload configurations";
  List.iter
    (fun w -> print_endline ("  " ^ Workloads.to_string w))
    (Workloads.resnet_convs @ Workloads.mobilenet_depthwise)

(** The conv2d operator used for the Fig 12 trial-convergence study. *)
let fig12_template () =
  let w = Workloads.find "C7" in
  let data =
    Tensor.placeholder "f12_d" (List.map Expr.int [ 1; w.Workloads.ic; w.Workloads.hw; w.Workloads.hw ])
  in
  let weight =
    Tensor.placeholder "f12_w"
      (List.map Expr.int [ w.Workloads.oc; w.Workloads.ic; w.Workloads.kernel; w.Workloads.kernel ])
  in
  let conv = Op.conv2d ~name:"f12_conv" ~stride:w.Workloads.stride data weight in
  (Templates.gpu_flat ~name:"fig12_c7" conv, w)

let fig12 ?(n_trials = 800) () =
  banner "Figure 12: automation methods on a ResNet-18 conv2d (C7, Titan X)";
  let tpl, w = fig12_template () in
  let cudnn =
    Vendor.op_time Vendor.Cudnn (Vendor.Gpu_m titan) ~op:"conv2d"
      ~in_shapes:
        [ [ 1; w.Workloads.ic; w.Workloads.hw; w.Workloads.hw ];
          [ w.Workloads.oc; w.Workloads.ic; w.Workloads.kernel; w.Workloads.kernel ] ]
      ~out_shape:[ 1; w.Workloads.oc; Workloads.out_hw w; Workloads.out_hw w ]
      ~attrs:[ ("stride", attr_i w.Workloads.stride) ]
      ~dtype:Dtype.Float32
  in
  let n_trials = trials n_trials in
  let checkpoints =
    List.filter (fun c -> c <= n_trials) [ 16; 32; 64; 100; 150; 200; 300; 400; 600; 800 ]
  in
  let methods = [ Tuner.Ml_model; Tuner.Random_search; Tuner.Genetic_algorithm ] in
  let curves =
    List.map
      (fun m ->
        let res = tune_gpu ~method_:m ~trials:n_trials ~seed:7 { tpl with Tuner.tpl_name = tpl.Tuner.tpl_name ^ "_" ^ Tuner.method_to_string m } in
        let best_at n =
          List.fold_left
            (fun acc (t : Tuner.trial) ->
              if t.Tuner.trial_index <= n then Float.min acc t.Tuner.best_so_far else acc)
            Float.infinity res.Tuner.history
        in
        (Tuner.method_to_string m, List.map (fun n -> cudnn /. best_at n) checkpoints))
      methods
  in
  Printf.printf "%-12s" "trials:";
  List.iter (fun n -> Printf.printf "%8d" n) checkpoints;
  print_newline ();
  List.iter
    (fun (name, speedups) ->
      Printf.printf "%-12s" name;
      List.iter (fun s -> Printf.printf "%8.2f" s) speedups;
      print_newline ())
    curves;
  print_endline "(speedup relative to cuDNN; >1 = faster than cuDNN)";
  curves

(* ------------------------------------------------------------------ *)
(* Multicore tuning throughput (§5.3 parallel exploration +            *)
(* §5.4 distributed measurement)                                       *)
(* ------------------------------------------------------------------ *)

(** Tuner throughput at [-j 1] vs [-j jobs]: [j] maps to [j] simulated
    devices in the measurement pool {e and} [j] host domains for the
    parallel phases, mirroring the paper's setup where exploration
    fans out over a device fleet. Throughput is trials per second of
    simulated pool time ([Device_pool.makespan], which closes each
    measurement batch at its last job, since the tuner waits for the
    whole batch) — the quantity the device count actually scales —
    with host wall-clock reported
    alongside. Both runs share one seed and no fault plan, so the best
    configuration must come out identical; the comparison is pure
    throughput. *)
let partune ?(jobs = 4) ?(seed = 11) ?(n_trials = 160) () =
  banner
    (Printf.sprintf
       "Multicore tuning: throughput at -j1 vs -j%d (C7 conv2d, Titan X)" jobs);
  let n_trials = trials n_trials in
  let run j =
    let tpl, _ = fig12_template () in
    let spec = Tvm_spec.Job_spec.make ~seed ~jobs:j ~devices:j () in
    let pool = Pool.of_spec ~kind:(Pool.Gpu_dev titan) spec in
    let par = Tvm_par.Pool.create ~domains:j () in
    let measure = Pool.measure_fn pool ~kind_pred:Pool.is_gpu in
    let measure_batch = Pool.batch_measure_fn ~par pool ~kind_pred:Pool.is_gpu in
    let t0 = Unix.gettimeofday () in
    let res =
      Tuner.tune ~spec ~measure_batch ~method_:Tuner.Ml_model ~measure ~n_trials tpl
    in
    let wall = Unix.gettimeofday () -. t0 in
    (res, Pool.makespan pool, wall)
  in
  (* Host wall-clock spent proposing candidates (SA walks over the
     cost model) across both runs: the explorer's hot path, kept honest
     by a generous Lower_better gate rule. *)
  let propose_s () =
    Option.value ~default:0. (Tvm_obs.Metrics.get "tune.phase.propose_s")
  in
  let pr0 = propose_s () in
  let r1, fleet1, wall1 = run 1 in
  let rj, fleetj, wallj = run jobs in
  let propose_total = Float.max 1e-9 (propose_s () -. pr0) in
  let thr fleet = float_of_int n_trials /. Float.max 1e-9 fleet in
  let speedup = thr fleetj /. thr fleet1 in
  let wall_speedup = wall1 /. Float.max 1e-9 wallj in
  let identical = r1.Tuner.best_config = rj.Tuner.best_config in
  table
    ~columns:[ "trials/s (fleet)"; "fleet s"; "host wall s"; "best ms" ]
    ~fmt:"%.3f"
    [
      ("-j1", [ thr fleet1; fleet1; wall1; ms r1.Tuner.best_time ]);
      ( Printf.sprintf "-j%d" jobs,
        [ thr fleetj; fleetj; wallj; ms rj.Tuner.best_time ] );
    ];
  Printf.printf
    "tuner throughput speedup: %.2fx (host wall %.2fx); best config %s\n"
    speedup wall_speedup
    (if identical then "identical" else "DIFFERS (bug!)");
  Printf.printf "propose phase: %.4fs host wall across both runs\n"
    propose_total;
  Tvm_obs.Metrics.set_gauge "bench.partune.propose_s" propose_total;
  Tvm_obs.Metrics.set_gauge "bench.partune.throughput_j1" (thr fleet1);
  Tvm_obs.Metrics.set_gauge
    (Printf.sprintf "bench.partune.throughput_j%d" jobs)
    (thr fleetj);
  Tvm_obs.Metrics.set_gauge "bench.partune.speedup" speedup;
  Tvm_obs.Metrics.set_gauge "bench.partune.wall_speedup" wall_speedup;
  Tvm_obs.Metrics.set_gauge "bench.partune.identical_best"
    (if identical then 1. else 0.);
  (speedup, identical)

(* ------------------------------------------------------------------ *)
(* Compile-cache benchmarks                                             *)
(* ------------------------------------------------------------------ *)

(** Lowering + featurization throughput, cold vs feature-memo warm:
    how much work a memo hit saves per configuration. *)
let bench_lower ?(n = 120) () =
  banner "Lowering throughput: cold vs feature-memo warm (C7 conv2d)";
  let n = trials n in
  let tpl, _ = fig12_template () in
  let rng = Random.State.make [| 23 |] in
  (* [n] distinct valid configurations, fixed up front so cold and warm
     walk the same list. *)
  let seen = Hashtbl.create (4 * n) in
  let cfgs = ref [] in
  let found = ref 0 in
  let attempts = ref 0 in
  while !found < n && !attempts < 100 * n do
    incr attempts;
    let cfg = Cfg.random_config tpl.Tuner.tpl_space rng in
    let k = Cfg.canonical cfg in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      match Tuner.try_instantiate tpl cfg with
      | Some _ ->
          cfgs := cfg :: !cfgs;
          incr found
      | None -> ()
    end
  done;
  let cfgs = List.rev !cfgs in
  let n = List.length cfgs in
  let compile cfg =
    match Tuner.try_instantiate tpl cfg with
    | Some s -> Tvm_autotune.Compile_cache.Valid (Tvm_autotune.Feature.extract s)
    | None -> Tvm_autotune.Compile_cache.Invalid
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Float.max 1e-9 (Unix.gettimeofday () -. t0)
  in
  let cold = time (fun () -> List.iter (fun c -> ignore (compile c)) cfgs) in
  let cache = Tvm_autotune.Compile_cache.create ~size:(2 * n) ~name:"bench_lower" () in
  List.iter
    (fun c ->
      ignore (Tvm_autotune.Compile_cache.find_or_compile cache c ~compile))
    cfgs;
  let warm =
    time (fun () ->
        List.iter
          (fun c ->
            ignore
              (Tvm_autotune.Compile_cache.find_or_compile cache c ~compile))
          cfgs)
  in
  let per_s t = float_of_int n /. t in
  table
    ~columns:[ "lowerings/s"; "total s" ]
    ~fmt:"%.4f"
    [
      ("cold", [ per_s cold; cold ]);
      ("warm (cache hit)", [ per_s warm; warm ]);
    ];
  Printf.printf "cache-hit speedup per configuration: %.1fx over %d configs\n"
    (cold /. warm) n;
  Tvm_obs.Metrics.set_gauge "bench.lower.cold_per_s" (per_s cold);
  Tvm_obs.Metrics.set_gauge "bench.lower.warm_per_s" (per_s warm);
  Tvm_obs.Metrics.set_gauge "bench.lower.warm_speedup" (cold /. warm);
  (per_s cold, per_s warm)

(** Compile-cache hit rate on a real ML-guided tuning run: the SA
    explorer's revisits and the prepare phase's re-lookups are what the
    cache exists for, so measure them on the genuine trace. *)
let bench_cache ?(seed = 11) ?(n_trials = 120) () =
  banner "Compile-cache hit rate on an ML tuning trace (C7 conv2d)";
  let n_trials = trials n_trials in
  let metric name = Option.value ~default:0. (Tvm_obs.Metrics.get name) in
  let h0 = metric "cache.hit" in
  let m0 = metric "cache.miss" in
  let tpl, _ = fig12_template () in
  let res = tune_gpu ~seed ~trials:n_trials tpl in
  let hits = metric "cache.hit" -. h0 in
  let misses = metric "cache.miss" -. m0 in
  let rate = hits /. Float.max 1. (hits +. misses) in
  Printf.printf
    "%d trials: %.0f hits / %.0f misses (%.1f%% hit rate); best %.3f ms\n"
    n_trials hits misses (100. *. rate) (ms res.Tuner.best_time);
  Tvm_obs.Metrics.set_gauge "bench.cache.hits" hits;
  Tvm_obs.Metrics.set_gauge "bench.cache.misses" misses;
  Tvm_obs.Metrics.set_gauge "bench.cache.hit_rate" rate;
  rate
