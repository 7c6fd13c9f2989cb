(* Simulator tests: interpreter semantics, CPU/GPU timing-model
   behaviours the schedules rely on, and the device pool. *)

open Tvm_tir
module Interp = Tvm_sim.Interp
module Machine = Tvm_sim.Machine
module Cpu_model = Tvm_sim.Cpu_model
module Gpu_model = Tvm_sim.Gpu_model
module Pool = Tvm_rpc.Device_pool
module Nd = Tvm_nd.Ndarray
module Tensor = Tvm_te.Tensor
module Op = Tvm_te.Operators
module Sched = Tvm_schedule.Sched
module Lower = Tvm_lower.Lower
open Test_helpers

(* ------------------------------------------------------------------ *)
(* Ndarray                                                              *)
(* ------------------------------------------------------------------ *)

let test_nd_basics () =
  let t = Nd.create [ 2; 3 ] in
  Nd.set t [ 1; 2 ] 5.;
  Alcotest.(check (float 0.)) "get/set" 5. (Nd.get t [ 1; 2 ]);
  Alcotest.(check int) "elems" 6 (Nd.num_elems t);
  (try
     ignore (Nd.get t [ 2; 0 ]);
     Alcotest.fail "oob must raise"
   with Invalid_argument _ -> ())

let test_nd_quantize () =
  let t = Nd.create ~dtype:Dtype.Int8 [ 1 ] in
  Nd.set t [ 0 ] 300.;
  Alcotest.(check (float 0.)) "int8 saturates" 127. (Nd.get t [ 0 ]);
  let u = Nd.create ~dtype:Dtype.UInt2 [ 1 ] in
  Nd.set u [ 0 ] 7.;
  Alcotest.(check (float 0.)) "uint2 saturates" 3. (Nd.get u [ 0 ])

let test_nd_random_deterministic () =
  let a = Nd.random ~seed:5 [ 4; 4 ] and b = Nd.random ~seed:5 [ 4; 4 ] in
  checkb "same seed same values" (Nd.to_list a = Nd.to_list b);
  let c = Nd.random ~seed:6 [ 4; 4 ] in
  checkb "different seed differs" (Nd.to_list a <> Nd.to_list c)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                          *)
(* ------------------------------------------------------------------ *)

let test_interp_floor_divmod () =
  let b = Expr.Buffer.create ~dtype:Dtype.Int32 "o" [ Expr.int 2 ] in
  let s =
    Stmt.seq
      [ Stmt.Store (b, [ Expr.zero ], Expr.(int (-7) / int 2));
        Stmt.Store (b, [ Expr.one ], Expr.(int (-7) % int 2)) ]
  in
  let o = Nd.create ~dtype:Dtype.Int32 [ 2 ] in
  Interp.run s ~bindings:[ (b, o) ];
  Alcotest.(check (float 0.)) "floor div" (-4.) (Nd.get o [ 0 ]);
  Alcotest.(check (float 0.)) "floor mod" 1. (Nd.get o [ 1 ])

let test_interp_lazy_select () =
  (* The untaken branch would read out of bounds: must not be evaluated. *)
  let src = Expr.Buffer.create "src" [ Expr.int 2 ] in
  let dst = Expr.Buffer.create "dst" [ Expr.int 4 ] in
  let v = Expr.Var.fresh "i" in
  let body =
    Stmt.Store
      ( dst, [ Expr.Var v ],
        Expr.select Expr.(Var v < int 2) (Expr.load src [ Expr.Var v ]) (Expr.f32 0.) )
  in
  let s = Stmt.for_ v Expr.zero (Expr.int 4) body in
  let sv = Nd.of_list [ 2 ] [ 7.; 8. ] and dv = Nd.create [ 4 ] in
  Interp.run s ~bindings:[ (src, sv); (dst, dv) ];
  checkb "padding semantics" (Nd.to_list dv = [ 7.; 8.; 0.; 0. ])

let test_interp_unbound_fails () =
  let b = Expr.Buffer.create "nope" [ Expr.int 1 ] in
  try
    Interp.run (Stmt.Store (b, [ Expr.zero ], Expr.f32 1.)) ~bindings:[];
    Alcotest.fail "unbound buffer must fail"
  with Interp.Runtime_error _ -> ()

let test_interp_intrinsics () =
  let b = Expr.Buffer.create "o" [ Expr.int 2 ] in
  let s =
    Stmt.seq
      [ Stmt.Store (b, [ Expr.zero ], Expr.call "exp" [ Expr.f32 0. ]);
        Stmt.Store (b, [ Expr.one ], Expr.call "popcount" [ Expr.int 7 ]) ]
  in
  let o = Nd.create [ 2 ] in
  Interp.run s ~bindings:[ (b, o) ];
  Alcotest.(check (float 1e-9)) "exp 0" 1. (Nd.get o [ 0 ]);
  Alcotest.(check (float 0.)) "popcount 7" 3. (Nd.get o [ 1 ])

(* ------------------------------------------------------------------ *)
(* CPU / GPU timing models                                              *)
(* ------------------------------------------------------------------ *)

let lowered_dense ~schedule () =
  let a = Tensor.placeholder "tm_a" [ Expr.int 64; Expr.int 64 ] in
  let b = Tensor.placeholder "tm_b" [ Expr.int 64; Expr.int 64 ] in
  let c = Op.dense ~name:"tm_c" a b in
  let sched = Sched.create [ c ] in
  schedule sched c;
  Lower.lower sched

let test_cpu_vectorize_helps () =
  let scalar =
    lowered_dense ~schedule:(fun _ _ -> ()) ()
  in
  let vectorized =
    lowered_dense
      ~schedule:(fun sched c ->
        let st = Sched.find sched c in
        let _, xi = Sched.split st (Sched.axis st 1) ~factor:8 in
        let k = Sched.reduce_axis st 0 in
        Sched.reorder st [ k; xi ];
        Sched.vectorize st xi)
      ()
  in
  checkb "vectorized faster"
    (Cpu_model.time_s Machine.arm_a53 vectorized < Cpu_model.time_s Machine.arm_a53 scalar)

let test_cpu_parallel_helps () =
  let serial = lowered_dense ~schedule:(fun _ _ -> ()) () in
  let parallel =
    lowered_dense
      ~schedule:(fun sched c ->
        let st = Sched.find sched c in
        Sched.parallel st (Sched.axis st 0))
      ()
  in
  checkb "parallel faster"
    (Cpu_model.time_s Machine.arm_a53 parallel < Cpu_model.time_s Machine.arm_a53 serial)

let gpu_dense ~coop () =
  let a = Tensor.placeholder "gm_a" [ Expr.int 256; Expr.int 256 ] in
  let b = Tensor.placeholder "gm_b" [ Expr.int 256; Expr.int 256 ] in
  let c = Op.dense ~name:"gm_c" a b in
  let cfg =
    [ ("tile_y", 32); ("tile_x", 32); ("wy", 8); ("wx", 8); ("kf", 8);
      ("coop", (if coop then 1 else 0)); ("unroll", 1) ]
  in
  Tvm_autotune.Templates.gpu_matmul_instantiate c cfg

let test_gpu_coop_reduces_traffic () =
  let without = Gpu_model.estimate Machine.titan_x (gpu_dense ~coop:false ()) in
  let with_ = Gpu_model.estimate Machine.titan_x (gpu_dense ~coop:true ()) in
  checkb "coop cuts global bytes"
    (with_.Gpu_model.global_bytes < without.Gpu_model.global_bytes /. 2.);
  checkb "coop uses shared memory" (with_.Gpu_model.shared_bytes > 0.)

let test_gpu_invalid_configs () =
  (* thread oversubscription must be rejected as invalid *)
  let a = Tensor.placeholder "gi_a" [ Expr.int 4096; Expr.int 16 ] in
  let b = Tensor.placeholder "gi_b" [ Expr.int 16; Expr.int 16 ] in
  let c = Op.dense ~name:"gi_c" a b in
  let sched = Sched.create [ c ] in
  let st = Sched.find sched c in
  let _, tx = Sched.split st (Sched.axis st 0) ~factor:2048 in
  Sched.bind st tx "threadIdx.x";
  let bd = Gpu_model.estimate Machine.titan_x (Lower.lower ~target:Lower.Gpu sched) in
  checkb "2048 threads/block invalid" (not bd.Gpu_model.valid)

let test_gpu_fp16_faster_on_mali () =
  let stmt = gpu_dense ~coop:true () in
  let f32 = Gpu_model.time_s ~force_dtype:Dtype.Float32 Machine.mali_t860 stmt in
  let f16 = Gpu_model.time_s ~force_dtype:Dtype.Float16 Machine.mali_t860 stmt in
  checkb "fp16 faster on Mali" (f16 < f32)

let test_machine_peaks () =
  checkb "titan ~6 TFLOPS" (abs_float (Machine.gpu_peak_gflops Machine.titan_x -. 6144.) < 200.);
  checkb "a53 peak" (Machine.cpu_peak_gflops Machine.arm_a53 > 30.);
  Alcotest.(check (float 1e-6)) "vdla peak GOPS" 102.4 (Machine.accel_peak_gops Machine.vdla)

(* ------------------------------------------------------------------ *)
(* Device pool                                                          *)
(* ------------------------------------------------------------------ *)

let test_pool_scheduling () =
  let stmt = gpu_dense ~coop:true () in
  let run devices =
    let pool = Pool.of_spec (Tvm_spec.Job_spec.make ~devices ()) in
    let jobs = Array.init 4 (fun i -> (i, stmt)) in
    let r = Pool.measure_batch pool ~kind_pred:Pool.is_gpu jobs in
    (r, Pool.makespan pool, Pool.stats pool)
  in
  let r1, mk1, _ = run 1 and r2, mk2, st2 = run 2 in
  Alcotest.(check int) "two devices" 2 st2.Pool.fs_devices;
  Alcotest.(check int) "one attempt per job" 4 st2.Pool.fs_attempts;
  checkb "results independent of the device count" (r1 = r2);
  checkb "makespan positive" (mk2 > 0.);
  checkb
    (Printf.sprintf "two devices split the work: %.2f s vs %.2f s" mk2 mk1)
    (mk2 < 0.6 *. mk1)

let test_pool_no_matching_device () =
  let pool =
    Pool.of_spec ~kind:(Pool.Gpu_dev Machine.titan_x) Tvm_spec.Job_spec.default
  in
  let r =
    Pool.measure_batch pool ~kind_pred:Pool.is_cpu [| (0, gpu_dense ~coop:true ()) |]
  in
  match r.(0).Tvm_autotune.Measure_result.status with
  | Tvm_autotune.Measure_result.Pool_error _ -> ()
  | _ -> Alcotest.fail "expected a pool_error result"

let suite =
  [
    Alcotest.test_case "ndarray basics" `Quick test_nd_basics;
    Alcotest.test_case "ndarray quantize" `Quick test_nd_quantize;
    Alcotest.test_case "ndarray determinism" `Quick test_nd_random_deterministic;
    Alcotest.test_case "interp floor div/mod" `Quick test_interp_floor_divmod;
    Alcotest.test_case "interp lazy select" `Quick test_interp_lazy_select;
    Alcotest.test_case "interp unbound buffer" `Quick test_interp_unbound_fails;
    Alcotest.test_case "interp intrinsics" `Quick test_interp_intrinsics;
    Alcotest.test_case "cpu: vectorize helps" `Quick test_cpu_vectorize_helps;
    Alcotest.test_case "cpu: parallel helps" `Quick test_cpu_parallel_helps;
    Alcotest.test_case "gpu: coop cuts traffic" `Quick test_gpu_coop_reduces_traffic;
    Alcotest.test_case "gpu: invalid configs" `Quick test_gpu_invalid_configs;
    Alcotest.test_case "gpu: fp16 on Mali" `Quick test_gpu_fp16_faster_on_mali;
    Alcotest.test_case "machine peaks" `Quick test_machine_peaks;
    Alcotest.test_case "device pool scheduling" `Quick test_pool_scheduling;
    Alcotest.test_case "device pool matching" `Quick test_pool_no_matching_device;
  ]
