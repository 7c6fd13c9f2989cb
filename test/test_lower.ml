(* Lowering tests: loop-nest construction, guards for non-dividing
   splits, inlining, compute_at region inference, tensorize — plus the
   central property test: randomly-scheduled matmuls always compute the
   same values as the unscheduled reference ("schedule primitives
   preserve the program's logical equivalence", §4.1). *)

open Tvm_tir
module Tensor = Tvm_te.Tensor
module Op = Tvm_te.Operators
module Sched = Tvm_schedule.Sched
module Iter_var = Tvm_schedule.Iter_var
module Tensor_intrin = Tvm_schedule.Tensor_intrin
module Lower = Tvm_lower.Lower
module Interp = Tvm_sim.Interp
module Nd = Tvm_nd.Ndarray
open Test_helpers

let mk_dense ?(m = 16) ?(n = 16) ?(k = 16) tag =
  let a = Tensor.placeholder ("A" ^ tag) [ Expr.int m; Expr.int k ] in
  let b = Tensor.placeholder ("B" ^ tag) [ Expr.int n; Expr.int k ] in
  let c = Op.dense ~name:("C" ^ tag) a b in
  (a, b, c)

let dense_io ?(m = 16) ?(n = 16) ?(k = 16) ~seed tag =
  let a, b, c = mk_dense ~m ~n ~k tag in
  let av = Nd.random ~seed [ m; k ] and bv = Nd.random ~seed:(seed + 1) [ n; k ] in
  let cv = Nd.create [ m; n ] in
  (a, b, c, av, bv, cv)

let test_guard_non_dividing_split () =
  let a, b, c, av, bv, cv = dense_io ~m:10 ~n:6 ~k:7 ~seed:31 "g" in
  let sched = Sched.create [ c ] in
  let st = Sched.find sched c in
  let _, _ = Sched.split st (Sched.axis st 0) ~factor:3 in
  let _, _ = Sched.split st (Sched.reduce_axis st 0) ~factor:4 in
  ignore (run sched [ (a, av); (b, bv); (c, cv) ]);
  approx "guarded tail iterations" (ref_dense av bv) cv

let test_reorder_semantics () =
  let a, b, c, av, bv, cv = dense_io ~seed:33 "r" in
  let sched = Sched.create [ c ] in
  let st = Sched.find sched c in
  let y = Sched.axis st 0 and x = Sched.axis st 1 in
  let k = Sched.reduce_axis st 0 in
  Sched.reorder st [ x; k; y ];
  ignore (run sched [ (a, av); (b, bv); (c, cv) ]);
  approx "reordered (reduction outside spatial)" (ref_dense av bv) cv

let test_inline_chain () =
  let d = Tensor.placeholder "ic_d" [ Expr.int 8 ] in
  let t1 = Tensor.compute "ic_1" [ Expr.int 8 ] (fun idx ->
      Expr.binop Expr.Add (Tensor.read d idx) (Expr.f32 1.)) in
  let t2 = Tensor.compute "ic_2" [ Expr.int 8 ] (fun idx ->
      Expr.binop Expr.Mul (Tensor.read t1 idx) (Expr.f32 2.)) in
  let t3 = Tensor.compute "ic_3" [ Expr.int 8 ] (fun idx ->
      Expr.binop Expr.Add (Tensor.read t2 idx) (Tensor.read t1 idx)) in
  let sched = Sched.create [ t3 ] in
  Sched.compute_inline (Sched.find sched t1);
  Sched.compute_inline (Sched.find sched t2);
  let stmt = Lower.lower sched in
  (* Only the output allocation should remain. *)
  Alcotest.(check int) "no intermediate allocs" 0 (List.length (Stmt.allocated_buffers stmt));
  let dv = Nd.random ~seed:40 [ 8 ] and ov = Nd.create [ 8 ] in
  Interp.run stmt ~bindings:[ (Tensor.buffer d, dv); (Tensor.buffer t3, ov) ];
  let expect = Nd.map (fun x -> ((x +. 1.) *. 2.) +. (x +. 1.)) dv in
  approx "inline chain values" expect ov

let test_compute_at_region () =
  (* Producer attached inside a tiled consumer: region allocation must
     shrink to the tile. *)
  let d = Tensor.placeholder "ca_d" [ Expr.int 16 ] in
  let p = Tensor.compute "ca_p" [ Expr.int 16 ] (fun idx ->
      Expr.binop Expr.Mul (Tensor.read d idx) (Expr.f32 3.)) in
  let o = Tensor.compute "ca_o" [ Expr.int 16 ] (fun idx ->
      Expr.binop Expr.Add (Tensor.read p idx) (Expr.f32 1.)) in
  let sched = Sched.create [ o ] in
  let so = Sched.find sched o and sp = Sched.find sched p in
  let oo, _oi = Sched.split so (Sched.axis so 0) ~factor:4 in
  Sched.compute_at sp ~target:so ~level:oo;
  let stmt = Lower.lower sched in
  let allocs = Stmt.allocated_buffers stmt in
  Alcotest.(check int) "one region alloc" 1 (List.length allocs);
  Alcotest.(check (list int)) "tile-sized" [ 4 ] (Expr.Buffer.const_shape (List.hd allocs));
  let dv = Nd.random ~seed:41 [ 16 ] and ov = Nd.create [ 16 ] in
  Interp.run stmt ~bindings:[ (Tensor.buffer d, dv); (Tensor.buffer o, ov) ];
  approx "compute_at values" (Nd.map (fun x -> (x *. 3.) +. 1.) dv) ov

let test_tensorize_matmul () =
  let a, b, c, av, bv, cv = dense_io ~m:8 ~n:8 ~k:32 ~seed:42 "tz" in
  let intrin = Tensor_intrin.gemm 8 8 8 in
  let sched = Sched.create [ c ] in
  let st = Sched.find sched c in
  let cl = Sched.cache_write sched st Expr.Local in
  let oo, _ = Sched.split st (Sched.axis st 0) ~factor:8 in
  Sched.compute_at cl ~target:st ~level:oo;
  let ko, ki = Sched.split cl (Sched.reduce_axis cl 0) ~factor:8 in
  ignore ki;
  Sched.reorder cl ((ko :: cl.Sched.s_root_axes) @ [ ki ]);
  (match cl.Sched.s_root_axes with
  | first :: _ -> Sched.tensorize cl first intrin
  | [] -> assert false);
  let stmt = run sched [ (a, av); (b, bv); (c, cv) ] in
  (* the intrinsic must actually appear *)
  let calls = ref 0 in
  Stmt.iter (function Stmt.Call_intrin _ -> incr calls | _ -> ()) stmt;
  checkb "intrinsic calls present" (!calls > 0);
  approx "tensorized matmul" (ref_dense av bv) cv

let test_tensorize_shape_mismatch () =
  let _, _, c = mk_dense ~m:8 ~n:8 ~k:32 "tzbad" in
  let intrin = Tensor_intrin.gemm 4 4 8 in
  let sched = Sched.create [ c ] in
  let st = Sched.find sched c in
  (* full 8x8 region does not match a 4x4 intrinsic *)
  let ko, ki = Sched.split st (Sched.reduce_axis st 0) ~factor:8 in
  ignore ko;
  ignore ki;
  Sched.reorder st ((ko :: st.Sched.s_root_axes) @ [ ki ]);
  (match st.Sched.s_root_axes with
  | first :: _ -> Sched.tensorize st first intrin
  | [] -> assert false);
  (try
     ignore (Lower.lower sched);
     Alcotest.fail "mismatched tensorize must fail"
   with Lower.Lower_error _ -> ())

let test_gpu_barrier_insertion () =
  let a, b, c, av, bv, cv = dense_io ~seed:44 "sh" in
  let sched = Sched.create [ c ] in
  let st = Sched.find sched c in
  let cl = Sched.cache_write sched st Expr.Local in
  let y = Sched.axis st 0 and x = Sched.axis st 1 in
  let yo, xo, _, _ = Sched.tile st y x ~y_factor:4 ~x_factor:4 in
  ignore yo;
  Sched.bind st yo "blockIdx.x";
  Sched.bind st xo "threadIdx.x";
  Sched.compute_at cl ~target:st ~level:xo;
  let ko, ki = Sched.split cl (Sched.reduce_axis cl 0) ~factor:4 in
  ignore ki;
  Sched.reorder cl ((ko :: cl.Sched.s_root_axes) @ [ ki ]);
  let cache = Sched.cache_read sched (Tensor.buffer a) Expr.Shared [ cl ] in
  Sched.compute_at cache ~target:cl ~level:ko;
  let stmt = run ~target:Lower.Gpu sched [ (a, av); (b, bv); (c, cv) ] in
  let barriers = ref 0 in
  Stmt.iter (function Stmt.Barrier -> incr barriers | _ -> ()) stmt;
  checkb "barrier after shared stage" (!barriers > 0);
  approx "shared-staged matmul" (ref_dense av bv) cv

(* ------------------------------------------------------------------ *)
(* Property: random schedules preserve semantics                        *)
(* ------------------------------------------------------------------ *)

let apply_random_schedule rng sched c =
  let st = Sched.find sched c in
  let divisors16 = [ 1; 2; 4; 8; 16 ] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let use_cache = Random.State.bool rng in
  if use_cache then begin
    (* Structured path (divisor splits only, caches + compute_at). *)
    let cl = Sched.cache_write sched st Expr.Local in
    let y = Sched.axis st 0 and x = Sched.axis st 1 in
    let yf = pick [ 2; 4; 8 ] and xf = pick [ 2; 4; 8 ] in
    let _yo, xo, _yi, xi = Sched.tile st y x ~y_factor:yf ~x_factor:xf in
    if Random.State.bool rng then Sched.unroll st xi;
    Sched.compute_at cl ~target:st ~level:xo;
    let kf = pick divisors16 in
    let ko, ki = Sched.split cl (Sched.reduce_axis cl 0) ~factor:kf in
    Sched.reorder cl ((ko :: cl.Sched.s_root_axes) @ [ ki ]);
    if Random.State.bool rng then Sched.unroll cl ki;
    if Random.State.bool rng then begin
      let cache = Sched.cache_read sched (Tensor.buffer (List.hd (Tensor.topo_order [ c ]))) Expr.Local [ cl ] in
      Sched.compute_at cache ~target:cl ~level:ko
    end
  end
  else begin
    (* Root-only path: arbitrary factors (guards), shuffles, annotations. *)
    let n_splits = Random.State.int rng 3 in
    for _ = 1 to n_splits do
      let leaves = st.Sched.s_leaf in
      let iv = pick leaves in
      let factor = 2 + Random.State.int rng 5 in
      if iv.Iter_var.extent > 1 then ignore (Sched.split st iv ~factor)
    done;
    (* random reorder: shuffle the current leaves *)
    let leaves = st.Sched.s_leaf in
    let arr = Array.of_list leaves in
    for i = Array.length arr - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    done;
    Sched.reorder st (Array.to_list arr);
    (* random annotation on a data-par leaf *)
    let data = List.filter (fun iv -> not (Iter_var.is_reduce iv)) st.Sched.s_leaf in
    if data <> [] && Random.State.bool rng then begin
      let iv = pick data in
      match Random.State.int rng 3 with
      | 0 -> Sched.unroll st iv
      | 1 -> Sched.vectorize st iv
      | _ -> Sched.parallel st iv
    end
  end

let random_schedule_preserves_semantics =
  QCheck.Test.make ~name:"random schedules preserve matmul semantics" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let a, b, c, av, bv, cv = dense_io ~seed "prop" in
      let sched = Sched.create [ c ] in
      apply_random_schedule rng sched c;
      ignore (run sched [ (a, av); (b, bv); (c, cv) ]);
      Nd.equal_approx ~tol:1e-3 (ref_dense av bv) cv)

(* The offset minimization [Lower.minimize_inner] replaced, as its
   oracle: each inner var in turn is substituted at both ends of its
   range, the folded results are evaluated (every other inner var
   spanning its range, outer vars at 0), and the end with the lower
   bound is kept. *)
let substitute_and_evaluate ~inner e =
  let env vid =
    match List.find_opt (fun ((v : Expr.var), _) -> v.Expr.vid = vid) inner with
    | Some (_, extent) -> Some (Interval.of_extent ~min:0 ~extent)
    | None -> Some (Interval.point 0)
  in
  List.fold_left
    (fun e (v, extent) ->
      let at n = Visit.subst_var_expr v (Expr.int n) e in
      let decreasing =
        try
          let lo0 = (Interval.eval env (at 0)).Interval.lo in
          let lo1 = (Interval.eval env (at (extent - 1))).Interval.lo in
          lo1 < lo0
        with Interval.Not_analyzable _ -> false
      in
      if decreasing then at (extent - 1) else at 0)
    e inner

(* Random index expressions over three inner vars (extents 1 to 5) and
   an outer var: sums, differences and products with small constants of
   either sign, floor division and modulus by positive constants, min
   and max. Runs on a fresh domain: the two results are one node only
   if the intern table does not empty between them. *)
let minimize_inner_matches_substitution =
  QCheck.Test.make ~name:"offset minimization = substitute-and-evaluate" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let inner =
        List.init 3 (fun k ->
            (Expr.Var.fresh (Printf.sprintf "r%d" k), 1 + Random.State.int rng 5))
      in
      let outer = Expr.Var.fresh "o" in
      let vars = outer :: List.map fst inner in
      let rec gen depth =
        if depth = 0 || Random.State.int rng 4 = 0 then
          if Random.State.int rng 3 = 0 then Expr.int (Random.State.int rng 7 - 3)
          else Expr.var (List.nth vars (Random.State.int rng (List.length vars)))
        else
          let a = gen (depth - 1) and b = gen (depth - 1) in
          let divisor = Expr.int (1 + Random.State.int rng 4) in
          match Random.State.int rng 7 with
          | 0 -> Expr.(a + b)
          | 1 -> Expr.(a - b)
          | 2 -> Expr.(a * b)
          | 3 -> Expr.(a / divisor)
          | 4 -> Expr.(a % divisor)
          | 5 -> Expr.min_ a b
          | _ -> Expr.max_ a b
      in
      let e = gen 5 in
      let expected = renormalize (substitute_and_evaluate ~inner e) in
      let got = renormalize (Lower.minimize_inner ~inner e) in
      expected == got
      || QCheck.Test.fail_reportf "%s: substitute-and-evaluate %s, minimize_inner %s"
           (Printer.expr_to_string e) (Printer.expr_to_string expected)
           (Printer.expr_to_string got))

(* What lowering leaves for [Simplify] to re-normalize: nothing. Every
   expression of every lowered program must be a structural fixed
   point of the re-normalization [Simplify] no longer runs (DESIGN,
   "Expressions are normal by construction"). The corpus: random valid
   gpu_flat and cpu_flat configs of every Table-2 workload, gpu_matmul
   configs of a dense layer, one VDLA tensorized conv (lowered for the
   accelerator, then through the virtual-thread pass), and every
   kernel [Compiler.build] emits for the five reduced networks on cuda
   and llvm. *)
let lowered_corpus () =
  let module Cfg = Tvm_autotune.Cfg_space in
  let module Tuner = Tvm_autotune.Tuner in
  let module Templates = Tvm_autotune.Templates in
  let module Models = Tvm_models.Models in
  let module V = Tvm_vdla.Vdla_schedule in
  let programs = ref [] in
  let add label stmt = programs := (label, stmt) :: !programs in
  let sample label (tpl : Tuner.template) ~seed n =
    let rs = Random.State.make [| 3571; seed |] in
    for _ = 1 to n do
      let cfg = Cfg.random_config tpl.Tuner.tpl_space rs in
      Option.iter (add (label ^ " " ^ Cfg.to_string cfg)) (Tuner.try_instantiate tpl cfg)
    done
  in
  List.iteri
    (fun wi (w : Tvm_models.Workloads.conv) ->
      let out = Tvm_experiments.Fig_e2e.conv_tensor w in
      List.iteri
        (fun ti (tname, mk) ->
          let name = w.Tvm_models.Workloads.name ^ "/" ^ tname in
          sample name (mk ~name:("normal_" ^ name) out) ~seed:((wi * 2) + ti) 6)
        [ ("gpu_flat", Templates.gpu_flat); ("cpu_flat", Templates.cpu_flat) ])
    Tvm_models.Workloads.all;
  let _, _, c = mk_dense ~m:128 ~n:128 ~k:128 "normal" in
  sample "dense/gpu_matmul" (Templates.gpu_matmul ~name:"normal_mm" c) ~seed:1000 16;
  let m, n, k = V.conv_as_gemm ~h:14 ~w:14 ~ic:32 ~oc:32 ~kernel:3 ~stride:1 in
  add "vdla conv" (V.schedule ~vthreads:2 (V.gemm_workload ~name:"normal_vdla" ~m ~n ~k ()));
  let spec = Tvm_spec.Job_spec.make ~trials:4 () in
  List.iter
    (fun (net, graph) ->
      List.iter
        (fun target ->
          let r = Tvm.Compiler.build ~spec graph target in
          List.iter
            (fun (kn : Tvm_runtime.Rt_module.kernel) ->
              add
                (Printf.sprintf "%s/%s %s" net (Tvm.Target.name target)
                   kn.Tvm_runtime.Rt_module.k_name)
                kn.Tvm_runtime.Rt_module.k_stmt)
            (Tvm_runtime.Rt_module.kernels r.Tvm.Compiler.module_))
        [ Tvm.Target.cuda (); Tvm.Target.llvm () ])
    [
      ("resnet18", Models.resnet18 ~input_hw:32 ~width:0.125 ~num_classes:10 ());
      ("mobilenet", Models.mobilenet ~input_hw:32 ~width:0.125 ~num_classes:10 ());
      ("lstm", Models.lstm_lm ~hidden:32 ~layers:2 ~vocab:50 ());
      ("dqn", Models.dqn ~input_hw:40 ());
      ("dcgan", Models.dcgan ~code_dim:8 ~base:4 ());
    ];
  List.rev !programs

let test_lowered_programs_normal () =
  let programs = lowered_corpus () and exprs = ref 0 in
  List.iter
    (fun (label, stmt) ->
      Stmt.fold_exprs
        (fun () e ->
          incr exprs;
          let r = renormalize e in
          if not (Expr.equal r e) then
            Alcotest.failf "%s: %s re-normalizes to %s" label (Printer.expr_to_string e)
              (Printer.expr_to_string r))
        () stmt)
    programs;
  let has prefix = List.exists (fun (l, _) -> String.starts_with ~prefix l) programs in
  checkb "every part of the corpus lowered"
    (List.for_all has [ "C1/gpu_flat"; "C1/cpu_flat"; "dense/gpu_matmul"; "vdla conv";
                        "resnet18/cuda"; "dcgan/llvm" ]);
  checkb "thousands of expressions checked" (!exprs > 5000)

let suite =
  [
    Alcotest.test_case "guards for non-dividing splits" `Quick test_guard_non_dividing_split;
    Alcotest.test_case "reorder semantics" `Quick test_reorder_semantics;
    Alcotest.test_case "inline chain" `Quick test_inline_chain;
    Alcotest.test_case "compute_at region" `Quick test_compute_at_region;
    Alcotest.test_case "tensorize matmul" `Quick test_tensorize_matmul;
    Alcotest.test_case "tensorize mismatch rejected" `Quick test_tensorize_shape_mismatch;
    Alcotest.test_case "shared staging + barrier" `Quick test_gpu_barrier_insertion;
    QCheck_alcotest.to_alcotest random_schedule_preserves_semantics;
    qcheck_on_fresh_domain minimize_inner_matches_substitution;
    Alcotest.test_case "lowered programs are normal" `Quick (fun () ->
        on_fresh_domain test_lowered_programs_normal);
  ]
