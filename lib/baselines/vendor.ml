(** Modeled vendor operator libraries (DESIGN.md substitution table).

    Real cuDNN/cuBLAS/TFLite/ACL ship hand-written, shape-specialized
    kernels; we model each library as a *roofline efficiency profile*: a
    kernel runs at [eff × min-roofline-time] on the same machine
    models TVM's generated code is priced on, where [eff] depends on how
    well the library covers that operator/shape class. Profiles encode
    the paper's qualitative facts: cuDNN is extremely strong on common
    3×3/1×1 convolutions and weak on unconventional shapes (DQN's
    4×4 stride-2, §6.1); nobody hand-tuned depthwise convolutions yet
    (§6.1); TFLite's CPU kernels are decent but generic (§6.2); ACL
    supports fp16 (§6.3). *)

open Tvm_tir
module Machine = Tvm_sim.Machine
module Attrs = Tvm_graph.Attrs

type machine = Cpu_m of Machine.cpu | Gpu_m of Machine.gpu

let peak_gflops = function
  | Cpu_m c -> Machine.cpu_peak_gflops c
  | Gpu_m g -> Machine.gpu_peak_gflops g

let bandwidth_gbps = function
  | Cpu_m c -> c.Machine.dram_gbps
  | Gpu_m g -> g.Machine.global_gbps

let launch_s = function
  | Cpu_m _ -> 2e-6
  | Gpu_m g -> g.Machine.kernel_launch_us *. 1e-6

(** Ideal roofline time for an op given its arithmetic and unique
    memory traffic. *)
let roofline_s machine ~flops ~bytes ~dtype =
  let rate =
    match (machine, dtype) with
    | Gpu_m g, Dtype.Float16 -> g.Machine.fp16_rate
    | _ -> 1.
  in
  let compute = flops /. (peak_gflops machine *. 1e9 *. rate) in
  let mem = bytes /. (bandwidth_gbps machine *. 1e9) in
  Float.max compute mem +. launch_s machine

(** Unique bytes moved by an op: inputs + output, once each. *)
let op_bytes ~in_shapes ~out_shape ~dtype =
  let elems shape = float_of_int (List.fold_left ( * ) 1 shape) in
  let total = List.fold_left (fun acc s -> acc +. elems s) (elems out_shape) in_shapes in
  total *. Dtype.bytes dtype

(* ------------------------------------------------------------------ *)
(* Library profiles                                                     *)
(* ------------------------------------------------------------------ *)

type library = Cudnn | Cublas | Tflite | Arm_compute_lib | Mxnet_kernels

(** Shape classes a library may specialize for. *)
type conv_class = Conv_1x1 | Conv_3x3 | Conv_large_kernel | Conv_odd | Depthwise

let conv_class ~kernel ~stride ~depthwise =
  if depthwise then Depthwise
  else if kernel = 1 then Conv_1x1
  else if kernel = 3 && stride <= 2 then Conv_3x3
  else if kernel >= 7 then Conv_large_kernel
  else Conv_odd

(** Efficiency (fraction of machine roofline) per library and class.
    These constants are the substitution's only "free parameters"; they
    are calibrated once against the relative bars the paper reports and
    then frozen (EXPERIMENTS.md). *)
let rec conv_efficiency lib cls =
  match (lib, cls) with
  | Cudnn, Conv_3x3 -> 0.90
  | Cudnn, Conv_1x1 -> 0.55  (* implicit-gemm path, weak at batch 1 *)
  | Cudnn, Conv_large_kernel -> 0.60
  | Cudnn, Conv_odd -> 0.25  (* DQN's 4x4 s2: "not well optimized by cuDNN" *)
  | Cudnn, Depthwise -> 0.20  (* framework-custom kernels, not cuDNN *)
  | Tflite, Conv_3x3 -> 0.45
  | Tflite, Conv_1x1 -> 0.40
  | Tflite, Conv_large_kernel -> 0.40
  | Tflite, Conv_odd -> 0.28
  | Tflite, Depthwise -> 0.35
  | Arm_compute_lib, Conv_3x3 -> 0.65
  | Arm_compute_lib, Conv_1x1 -> 0.60
  | Arm_compute_lib, Conv_large_kernel -> 0.55
  | Arm_compute_lib, Conv_odd -> 0.30
  | Arm_compute_lib, Depthwise -> 0.40
  | Mxnet_kernels, Depthwise -> 0.22
  | Mxnet_kernels, cls -> conv_efficiency Cudnn cls
  | Cublas, _ -> 0.85

let dense_efficiency = function
  | Cublas -> 0.85
  | Cudnn | Mxnet_kernels -> 0.85  (* frameworks call cuBLAS *)
  | Tflite -> 0.55
  | Arm_compute_lib -> 0.60

let elemwise_efficiency = function
  | Tflite -> 0.70
  | Arm_compute_lib -> 0.70
  | Cudnn | Cublas | Mxnet_kernels -> 0.85

(** Time for one graph op served by [lib] on [machine]. *)
let op_time lib machine ~op ~in_shapes ~out_shape ~attrs ~dtype : float =
  let flops =
    (Tvm_graph.Op_registry.find op).Tvm_graph.Op_registry.op_flops in_shapes attrs
  in
  let bytes = op_bytes ~in_shapes ~out_shape ~dtype in
  let ideal = roofline_s machine ~flops ~bytes ~dtype in
  let eff =
    match op with
    | "conv2d" | "conv2d_transpose" ->
        let kernel, stride =
          match in_shapes with
          | [ _; [ _; _; kh; _ ] ] -> (kh, Attrs.get_int ~default:1 attrs "stride")
          | _ -> (3, 1)
        in
        conv_efficiency lib (conv_class ~kernel ~stride ~depthwise:false)
    | "depthwise_conv2d" -> conv_efficiency lib Depthwise
    | "dense" -> dense_efficiency lib
    | _ -> elemwise_efficiency lib
  in
  ideal /. Float.max 0.01 eff
