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

(* The CPU model as it priced each access before nests were grouped
   once per program: every global access rebuilt its nest's working set
   at each level it scanned, for each cache, and every vectorized store
   filtered all accesses by a loop-stack string. *)
module Per_access_cpu = struct
  let stack_key (a : Analysis.access) =
    String.concat "." (List.map (fun l -> string_of_int l.Analysis.lvar.Expr.vid) a.Analysis.acc_loops)

  let miss_bytes ~size ~nest_mates (a : Analysis.access) =
    let depth = List.length a.Analysis.acc_loops in
    let working_set level =
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (b : Analysis.access) ->
          let lvl = min level (List.length b.Analysis.acc_loops) in
          let fp = Analysis.footprint_bytes_at_level b lvl in
          let key = b.Analysis.acc_buffer.Expr.bid in
          let prev = try Hashtbl.find tbl key with Not_found -> 0. in
          Hashtbl.replace tbl key (Float.max prev fp))
        nest_mates;
      Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
      |> List.sort compare
      |> List.fold_left ( +. ) 0.
    in
    let rec find_level k =
      if k >= depth then depth else if working_set k <= size then k else find_level (k + 1)
    in
    let k = find_level 0 in
    let fp = Analysis.footprint_bytes_at_level a k in
    let dependent_trips =
      List.fold_left
        (fun acc (i, l) ->
          if i >= k then acc
          else
            match Analysis.stride_wrt a l.Analysis.lvar with
            | Some 0 -> acc
            | Some _ | None -> acc * l.Analysis.lextent)
        1
        (List.mapi (fun i l -> (i, l)) a.Analysis.acc_loops)
    in
    fp *. float_of_int dependent_trips *. a.Analysis.acc_weight

  let vector_eff (cpu : Machine.cpu) accesses (store : Analysis.access) =
    match Analysis.innermost_loop store with
    | None -> 1.
    | Some l ->
        if l.Analysis.lkind <> Stmt.Vectorized then 1.
        else
          let lanes = float_of_int cpu.Machine.vector_lanes in
          let store_ok =
            match Analysis.stride_wrt store l.Analysis.lvar with
            | Some s -> abs s <= 1
            | None -> false
          in
          if not store_ok then 1.
          else
            let key = stack_key store in
            let loads =
              List.filter (fun a -> (not a.Analysis.acc_is_store) && stack_key a = key) accesses
            in
            let bad =
              List.exists
                (fun a ->
                  match Analysis.stride_wrt a l.Analysis.lvar with
                  | Some s -> abs s > 1
                  | None -> true)
                loads
            in
            if bad then lanes /. 2. else lanes

  let estimate (cpu : Machine.cpu) (stmt : Stmt.t) : Cpu_model.breakdown =
    let p = Analysis.program ~intrin_flops:Tvm_schedule.Tensor_intrin.flops_of stmt in
    let accesses = Analysis.accesses_exn p in
    let globals =
      List.filter (fun a -> a.Analysis.acc_buffer.Expr.bscope = Expr.Global) accesses
    in
    let by_nest = Hashtbl.create 16 in
    List.iter
      (fun a ->
        let key = stack_key a in
        Hashtbl.replace by_nest key (a :: (try Hashtbl.find by_nest key with Not_found -> [])))
      accesses;
    let nest_mates a = try Hashtbl.find by_nest (stack_key a) with Not_found -> [ a ] in
    let miss size =
      List.fold_left
        (fun acc a -> acc +. miss_bytes ~size ~nest_mates:(nest_mates a) a)
        0. globals
    in
    let dram_bytes = miss cpu.Machine.l2_bytes in
    let l2_bytes = miss cpu.Machine.l1_bytes in
    let scalar_cycles = ref 0. in
    List.iter
      (fun a ->
        if a.Analysis.acc_is_store && a.Analysis.acc_value_flops > 0. then begin
          let eff = vector_eff cpu accesses a in
          let per_cycle = eff *. float_of_int cpu.Machine.fma_per_cycle *. 2. in
          scalar_cycles :=
            !scalar_cycles
            +. (float_of_int a.Analysis.acc_count *. a.Analysis.acc_value_flops /. per_cycle)
        end)
      accesses;
    let store_flops =
      List.fold_left
        (fun acc a ->
          if a.Analysis.acc_is_store then
            acc +. (float_of_int a.Analysis.acc_count *. a.Analysis.acc_value_flops)
          else acc)
        0. accesses
    in
    let intrin_flops_total = Float.max 0. (p.Analysis.flops -. store_flops) in
    let peak_per_cycle =
      float_of_int (cpu.Machine.vector_lanes * cpu.Machine.fma_per_cycle * 2)
    in
    let intrin_cycles = intrin_flops_total /. (peak_per_cycle *. 0.9) in
    let const_extent (site : Analysis.loop_site) =
      Interval.const_of_expr site.Analysis.site_extent
    in
    let overhead_cycles =
      List.fold_right
        (fun (site : Analysis.loop_site) acc ->
          match const_extent site with
          | None -> acc
          | Some extent ->
              let outer =
                List.fold_left
                  (fun m o -> match const_extent o with Some e -> m * e | None -> m)
                  1 site.Analysis.site_outer
              in
              let per =
                match site.Analysis.site_kind with
                | Stmt.Unrolled -> cpu.Machine.loop_overhead_cycles *. 0.15
                | Stmt.Vectorized ->
                    cpu.Machine.loop_overhead_cycles *. 0.15
                    /. float_of_int cpu.Machine.vector_lanes
                | Stmt.Serial | Stmt.Parallel -> cpu.Machine.loop_overhead_cycles
                | Stmt.Thread_binding _ | Stmt.Vthread -> 0.
              in
              acc +. (float_of_int (outer * extent) *. per))
        p.Analysis.loops 0.
    in
    let par_threads =
      List.find_map
        (fun (site : Analysis.loop_site) ->
          match (site.Analysis.site_kind, site.Analysis.site_extent) with
          | Stmt.Parallel, Expr.IntImm e -> Some (min cpu.Machine.cores e)
          | _ -> None)
        p.Analysis.loops
      |> Option.value ~default:1
    in
    let balance = if par_threads <= 1 then 1. else float_of_int par_threads *. 0.92 in
    let hz = cpu.Machine.freq_ghz *. 1e9 in
    let compute_s = (!scalar_cycles +. intrin_cycles) /. hz /. Float.max 1. balance in
    let overhead_s = overhead_cycles /. hz /. Float.max 1. balance in
    let dram_s = dram_bytes /. (cpu.Machine.dram_gbps *. 1e9) in
    let l2_s = l2_bytes /. (cpu.Machine.l2_gbps *. 1e9) in
    let total_s = Float.max (compute_s +. overhead_s) (dram_s +. l2_s) +. 2e-6 in
    { Cpu_model.compute_s; dram_s; l2_s; overhead_s; dram_bytes; l2_bytes;
      flops = p.Analysis.flops; total_s }
end

(* Random valid cpu_flat programs: [per_template] configs of every
   Table-2 workload and [per_group] of every fused group of the reduced
   networks (conv+bn+relu epilogues, dense layers, LSTM cells). *)
let cpu_flat_programs ~per_template ~per_group =
  let module Cfg = Tvm_autotune.Cfg_space in
  let module Tuner = Tvm_autotune.Tuner in
  let module Templates = Tvm_autotune.Templates in
  let module Models = Tvm_models.Models in
  let module Fusion = Tvm_graph.Fusion in
  let programs = ref [] in
  let sample label out ~seed n =
    let tpl = Templates.cpu_flat ~name:("diff_" ^ label) out in
    let rs = Random.State.make [| 4217; seed |] in
    for _ = 1 to n do
      let cfg = Cfg.random_config tpl.Tuner.tpl_space rs in
      Option.iter
        (fun stmt -> programs := (label ^ " " ^ Cfg.to_string cfg, stmt) :: !programs)
        (Tuner.try_instantiate tpl cfg)
    done
  in
  List.iteri
    (fun i (w : Tvm_models.Workloads.conv) ->
      sample w.Tvm_models.Workloads.name (Tvm_experiments.Fig_e2e.conv_tensor w) ~seed:i
        per_template)
    Tvm_models.Workloads.all;
  List.iteri
    (fun ni (net, graph) ->
      List.iteri
        (fun gi g ->
          let out, _ = Fusion.build_group_te graph g in
          sample (Printf.sprintf "%s/g%d" net gi) out ~seed:((1000 * (ni + 1)) + gi) per_group)
        (Fusion.fuse graph))
    [
      ("resnet18", Models.resnet18 ~input_hw:32 ~width:0.125 ~num_classes:10 ());
      ("mobilenet", Models.mobilenet ~input_hw:32 ~width:0.125 ~num_classes:10 ());
      ("lstm", Models.lstm_lm ~hidden:32 ~layers:2 ~vocab:50 ());
      ("dqn", Models.dqn ~input_hw:40 ());
      ("dcgan", Models.dcgan ~code_dim:8 ~base:4 ());
    ];
  List.rev !programs

(* Whether some loop nest of [stmt] (one loop-variable id list) holds
   two stores to one buffer, as a reduction's init and update do when
   they share their loops. *)
let has_shared_nest stmt =
  let p = Analysis.program ~intrin_flops:Tvm_schedule.Tensor_intrin.flops_of stmt in
  let stores = Hashtbl.create 16 in
  List.exists
    (fun (a : Analysis.access) ->
      a.Analysis.acc_is_store
      &&
      let key =
        ( List.map (fun l -> l.Analysis.lvar.Expr.vid) a.Analysis.acc_loops,
          a.Analysis.acc_buffer.Expr.bid )
      in
      Hashtbl.mem stores key || (Hashtbl.add stores key (); false))
    (Analysis.accesses_exn p)

let test_cpu_nest_grouping_differential () =
  let programs = cpu_flat_programs ~per_template:8 ~per_group:4 in
  checkb "sampled many programs" (List.length programs > 400);
  checkb "some program has init and update stores in one nest"
    (List.exists (fun (_, stmt) -> has_shared_nest stmt) programs);
  let fields (r : Cpu_model.breakdown) =
    Cpu_model.
      [ ("compute_s", r.compute_s); ("dram_s", r.dram_s); ("l2_s", r.l2_s);
        ("overhead_s", r.overhead_s); ("dram_bytes", r.dram_bytes);
        ("l2_bytes", r.l2_bytes); ("flops", r.flops); ("total_s", r.total_s) ]
  in
  List.iter
    (fun (label, stmt) ->
      List.iter
        (fun (mname, m) ->
          let want = Per_access_cpu.estimate m stmt and got = Cpu_model.estimate m stmt in
          List.iter2
            (fun (field, w) (_, g) ->
              if not (Float.equal w g) then
                Alcotest.failf "%s on %s: %s is %h, per-access model gives %h" label mname
                  field g w)
            (fields want) (fields got))
        [ ("xeon_host", Machine.xeon_host); ("arm_a53", Machine.arm_a53) ])
    programs

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
    Alcotest.test_case "cpu: nest grouping = per-access pricing" `Quick
      test_cpu_nest_grouping_differential;
    Alcotest.test_case "gpu: coop cuts traffic" `Quick test_gpu_coop_reduces_traffic;
    Alcotest.test_case "gpu: invalid configs" `Quick test_gpu_invalid_configs;
    Alcotest.test_case "gpu: fp16 on Mali" `Quick test_gpu_fp16_faster_on_mali;
    Alcotest.test_case "machine peaks" `Quick test_machine_peaks;
    Alcotest.test_case "device pool scheduling" `Quick test_pool_scheduling;
    Alcotest.test_case "device pool matching" `Quick test_pool_no_matching_device;
  ]
