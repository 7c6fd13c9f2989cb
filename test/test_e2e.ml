(* End-to-end tests: the five networks build, compile through the full
   stack, and the compiled kernels agree with reference execution. *)

module G = Tvm_graph.Graph_ir
module Models = Tvm_models.Models
module Workloads = Tvm_models.Workloads
module Exec = Tvm_runtime.Graph_executor
module Nd = Tvm_nd.Ndarray
module Vendor = Tvm_baselines.Vendor
module Framework = Tvm_baselines.Framework
module Machine = Tvm_sim.Machine
open Test_helpers

let spec = Tvm_spec.Job_spec.make ~trials:12 ()

let compile_and_check ?(tol = 2e-3) name graph target =
  let _, exec = Tvm.Compiler.build_executor ~spec graph target in
  Exec.set_params exec (Models.random_params graph);
  List.iter (fun (n, v) -> Exec.set_input exec n v) (Models.random_inputs graph);
  Exec.run ~mode:`Reference exec;
  let reference = Nd.copy (Exec.get_output exec 0) in
  Exec.run ~mode:`Compiled exec;
  let compiled = Exec.get_output exec 0 in
  checkb (name ^ " compiled == reference") (Nd.equal_approx ~tol reference compiled);
  checkb (name ^ " finite latency") (Float.is_finite (Exec.estimated_time_s exec));
  exec

let test_resnet_gpu () =
  ignore
    (compile_and_check "resnet18"
       (Models.resnet18 ~input_hw:32 ~width:0.125 ~num_classes:10 ())
       (Tvm.Target.cuda ()))

let test_resnet_cpu () =
  ignore
    (compile_and_check "resnet18-cpu"
       (Models.resnet18 ~input_hw:32 ~width:0.125 ~num_classes:10 ())
       (Tvm.Target.arm_cpu ()))

let test_mobilenet () =
  ignore
    (compile_and_check "mobilenet"
       (Models.mobilenet ~input_hw:32 ~width:0.125 ~num_classes:10 ())
       (Tvm.Target.cuda ()))

let test_dqn () =
  ignore (compile_and_check "dqn" (Models.dqn ~input_hw:40 ()) (Tvm.Target.cuda ()))

let test_lstm () =
  ignore
    (compile_and_check "lstm" (Models.lstm_lm ~hidden:32 ~layers:2 ~vocab:50 ())
       (Tvm.Target.cuda ()))

let test_dcgan () =
  ignore
    (compile_and_check "dcgan" (Models.dcgan ~code_dim:8 ~base:4 ())
       (Tvm.Target.cuda ()))

let test_fusion_reduces_kernels () =
  let graph = Models.resnet18 ~input_hw:32 ~width:0.125 ~num_classes:10 () in
  let fused = Tvm.Compiler.build ~spec graph (Tvm.Target.cuda ()) in
  let unfused =
    Tvm.Compiler.build
      ~spec:{ spec with Tvm_spec.Job_spec.fusion = false }
      graph (Tvm.Target.cuda ())
  in
  checkb "fewer kernels with fusion"
    (List.length (Tvm_runtime.Rt_module.kernels fused.Tvm.Compiler.module_)
    < List.length (Tvm_runtime.Rt_module.kernels unfused.Tvm.Compiler.module_))

let test_fusion_faster () =
  let graph = Models.mobilenet ~input_hw:32 ~width:0.25 ~num_classes:10 () in
  let t_fused =
    let _, e = Tvm.Compiler.build_executor ~spec graph (Tvm.Target.cuda ()) in
    Exec.estimated_time_s e
  in
  let t_unfused =
    let _, e =
      Tvm.Compiler.build_executor
        ~spec:{ spec with Tvm_spec.Job_spec.fusion = false }
        graph (Tvm.Target.cuda ())
    in
    Exec.estimated_time_s e
  in
  checkb "fusion speeds up end-to-end" (t_fused < t_unfused)

let test_workloads_table () =
  Alcotest.(check int) "12 resnet convs" 12 (List.length Workloads.resnet_convs);
  Alcotest.(check int) "9 depthwise" 9 (List.length Workloads.mobilenet_depthwise);
  let c7 = Workloads.find "C7" in
  Alcotest.(check int) "C7 oc" 256 c7.Workloads.oc;
  checkb "C7 flops" (Workloads.flops c7 > 1e8)

let test_networks_shapes () =
  let g = Models.resnet18 () in
  let out = G.node g (List.hd g.G.outputs) in
  Alcotest.(check (list int)) "resnet output" [ 1; 1000 ] out.G.shape;
  let d = Models.dqn () in
  let dout = G.node d (List.hd d.G.outputs) in
  Alcotest.(check (list int)) "dqn output" [ 1; 18 ] dout.G.shape;
  let gan = Models.dcgan () in
  let gout = G.node gan (List.hd gan.G.outputs) in
  Alcotest.(check (list int)) "dcgan output" [ 1; 3; 64; 64 ] gout.G.shape

let test_baseline_sanity () =
  (* vendor kernels are roofline-bounded: never faster than ideal *)
  let machine = Vendor.Gpu_m Machine.titan_x in
  let t =
    Vendor.op_time Vendor.Cudnn machine ~op:"conv2d"
      ~in_shapes:[ [ 1; 128; 28; 28 ]; [ 256; 128; 3; 3 ] ]
      ~out_shape:[ 1; 256; 28; 28 ] ~attrs:[] ~dtype:Tvm_tir.Dtype.Float32
  in
  let ideal =
    Vendor.roofline_s machine
      ~flops:(2. *. 256. *. 28. *. 28. *. 128. *. 9.)
      ~bytes:1e6 ~dtype:Tvm_tir.Dtype.Float32
  in
  checkb "cudnn >= roofline" (t >= ideal);
  (* frameworks refuse unsupported models, as in Figs 16/19 *)
  checkb "tflite rejects DCGAN"
    (not (Framework.supports Framework.tflite (Models.dcgan ~code_dim:8 ~base:4 ())))

let test_profile () =
  let graph = Models.dqn ~input_hw:40 () in
  let result, exec = Tvm.Compiler.build_executor ~spec graph (Tvm.Target.cuda ()) in
  (* no params or inputs bound: a profile prices the module, it runs
     nothing *)
  let report = Exec.profile exec in
  let records = report.Tvm_obs.Profile.rp_records in
  Alcotest.(check (list int))
    "one record per group, in execution order"
    (List.map (fun g -> g.Tvm_graph.Fusion.g_id) result.Tvm.Compiler.groups)
    (List.map (fun r -> r.Tvm_obs.Profile.pr_group) records);
  List.iter
    (fun r -> checkb "bytes touched positive" (r.Tvm_obs.Profile.pr_bytes > 0.))
    records;
  (* per-kernel times plus launch overhead must account exactly for the
     executor's end-to-end estimate: the fold runs in the same order as
     [estimated_time_s], so the two are bit-identical *)
  let est = Exec.estimated_time_s exec in
  let sum =
    List.fold_left
      (fun acc r -> acc +. r.Tvm_obs.Profile.pr_time_s +. r.Tvm_obs.Profile.pr_launch_s)
      0. records
  in
  checkb
    (Printf.sprintf "profile sums to estimate (%h vs %h)" sum est)
    (Float.equal sum est);
  checkb "report total is the executor's estimate, bit for bit"
    (Float.equal report.Tvm_obs.Profile.rp_total_s est);
  (* the compiled kernels still agree with the reference operators *)
  Exec.set_params exec (Models.random_params graph);
  List.iter (fun (n, v) -> Exec.set_input exec n v) (Models.random_inputs graph);
  Exec.run ~mode:`Reference exec;
  let reference = Nd.copy (Exec.get_output exec 0) in
  Exec.run ~mode:`Compiled exec;
  checkb "compiled == reference"
    (Nd.equal_approx ~tol:2e-3 reference (Exec.get_output exec 0))

let test_module_source () =
  let graph = Models.dqn ~input_hw:40 () in
  let result = Tvm.Compiler.build ~spec graph (Tvm.Target.cuda ()) in
  let src = Tvm_runtime.Rt_module.source result.Tvm.Compiler.module_ in
  checkb "source contains kernels" (String.length src > 200)

let suite =
  [
    Alcotest.test_case "resnet18 on GPU" `Slow test_resnet_gpu;
    Alcotest.test_case "resnet18 on CPU" `Slow test_resnet_cpu;
    Alcotest.test_case "mobilenet" `Slow test_mobilenet;
    Alcotest.test_case "dqn" `Slow test_dqn;
    Alcotest.test_case "lstm" `Slow test_lstm;
    Alcotest.test_case "dcgan" `Slow test_dcgan;
    Alcotest.test_case "fusion reduces kernels" `Quick test_fusion_reduces_kernels;
    Alcotest.test_case "fusion faster" `Quick test_fusion_faster;
    Alcotest.test_case "workloads table" `Quick test_workloads_table;
    Alcotest.test_case "network shapes" `Quick test_networks_shapes;
    Alcotest.test_case "baseline sanity" `Quick test_baseline_sanity;
    Alcotest.test_case "profile run" `Quick test_profile;
    Alcotest.test_case "module source" `Quick test_module_source;
  ]
