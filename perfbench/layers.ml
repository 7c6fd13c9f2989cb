(* Per-layer replays: public layer functions re-run, outside the timed
   workload, on the programs and graphs a workload produced. *)

open Common
module G = Tvm_graph.Graph_ir
module Fusion = Tvm_graph.Fusion
module Mem_plan = Tvm_graph.Mem_plan
module Tuner = Tvm_autotune.Tuner
module Templates = Tvm_autotune.Templates
module Target = Tvm.Target
module Compiler = Tvm.Compiler
module Rt = Tvm_runtime.Rt_module

(* Replay feature extraction and validation on lowered programs;
   returns seconds per feature extraction. *)
let replay_programs stmts =
  let stmts = Array.of_list stmts in
  let feature_s = per_call stmts Tvm_autotune.Feature.extract in
  let validate_s = per_call stmts Tvm_tir.Validate.check in
  record "feature.ms_per_call" (1e3 *. feature_s);
  record "validate.ms_per_kernel" (1e3 *. validate_s);
  feature_s

(* Replay a target's machine model on programs lowered for it
   ([sim.gpu_ms_per_estimate] or [sim.cpu_ms_per_estimate]). *)
let replay_model target stmts =
  let s = per_call (Array.of_list stmts) (Target.time_s target) in
  record
    (if Target.is_gpu target then "sim.gpu_ms_per_estimate" else "sim.cpu_ms_per_estimate")
    (1e3 *. s)

(* The template the compiler picks for a fused group (mirrors
   [Compiler.template_for], which its interface does not export). *)
let template_for target ~name out =
  match target with
  | Target.Llvm _ -> Templates.cpu_flat ~name out
  | Target.Cuda _ | Target.Opencl_mali _ -> (
      match Tvm_te.Tensor.const_shape out with
      | [ m; n ] when m > 1 && n >= 16 && Templates.reduce_depth out > 1 ->
          Templates.gpu_matmul ~name out
      | _ -> Templates.gpu_flat ~name out)

(* (template, chosen configuration) of every kernel of a build, from
   the tuned cache the build filled. *)
let lowering_jobs ~target tuned (br : Compiler.build_result) =
  let configs = Compiler.tuned_entries ~cache:tuned () in
  List.filter_map
    (fun (k : Rt.kernel) ->
      match
        ( List.find_opt (fun (g : Fusion.group) -> g.Fusion.g_id = k.Rt.k_group)
            br.Compiler.groups,
          List.find_opt (fun (s, _, _) -> s = k.Rt.k_name) configs )
      with
      | Some g, Some (_, cfg, _) ->
          let out, _ = Fusion.build_group_te br.Compiler.graph g in
          Some (template_for target ~name:k.Rt.k_name out, cfg)
      | _ -> None)
    (Rt.kernels br.Compiler.module_)

(* Replay lowering of the chosen configurations ([lower.*]). *)
let replay_lowering jobs =
  let jobs = Array.of_list jobs in
  let lower (tpl, cfg) = try Some (tpl.Tuner.tpl_instantiate cfg) with _ -> None in
  let invalid =
    Array.fold_left (fun n j -> if lower j = None then n + 1 else n) 0 jobs
  in
  let s = per_call jobs lower in
  record "lower.ms_per_call" (1e3 *. s);
  record "lower.minor_kwords_per_call" (minor_words_per_call jobs lower /. 1e3);
  record "lower.invalid_ratio" (ratio (float_of_int invalid) (float_of_int (Array.length jobs)))

(* Distinct (non-depthwise) conv2d layers of [graphs] as
   (h, w, ic, oc, kernel, stride). *)
let graph_convs graphs =
  List.concat_map
    (fun g ->
      Array.to_list g.G.nodes
      |> List.filter_map (fun (n : G.node) ->
             match (n.G.kind, n.G.inputs) with
             | G.Op "conv2d", [ d; w ] -> (
                 match ((G.node g d).G.shape, (G.node g w).G.shape) with
                 | [ _; ic; h; wd ], [ oc; _; k; _ ] ->
                     let stride = Tvm_graph.Attrs.get_int ~default:1 n.G.attrs "stride" in
                     Some (h, wd, ic, oc, k, stride)
                 | _ -> None)
             | _ -> None))
    graphs
  |> List.sort_uniq compare

(* Replay the VDLA discrete-event schedule on conv layers. *)
let replay_vdla convs =
  let convs = Array.of_list convs in
  let s =
    per_call convs (fun (h, w, ic, oc, kernel, stride) ->
        Tvm_vdla.Vdla_schedule.conv_layer_time ~h ~w ~ic ~oc ~kernel ~stride ())
  in
  record "vdla.des_ms_per_conv" (1e3 *. s)

(* Replay fusion and memory planning on whole graphs. *)
let replay_graph_passes graphs =
  let graphs = Array.of_list graphs in
  let fusion_s = per_call graphs Fusion.fuse in
  let planned = Array.map (fun g -> (g, Fusion.fuse g)) graphs in
  let mem_plan_s = per_call planned (fun (g, groups) -> Mem_plan.plan g groups) in
  record "fusion.ms_per_graph" (1e3 *. fusion_s);
  record "mem_plan.ms_per_graph" (1e3 *. mem_plan_s)

(* Share of [wall_s] × [domains] host time not covered by the layer
   time in [covered_s]. *)
let record_unattributed ~wall_s ~domains covered_s =
  record "trace.unattributed_share"
    (Float.max 0. (1. -. (covered_s /. (wall_s *. float_of_int domains))))

(* Run [f] with the program's own span tracer on; returns the seconds
   spent in the compiler's phase spans ([phase.*]). *)
let with_phase_spans ?(except = []) f =
  let module Trace = Tvm_obs.Trace in
  Trace.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Trace.set_enabled false) f in
  let phase_s =
    List.fold_left
      (fun acc (sp : Trace.span) ->
        if String.starts_with ~prefix:"phase." sp.Trace.sp_name
           && not (List.mem sp.Trace.sp_name except)
        then acc +. (Int64.to_float sp.Trace.sp_dur_ns /. 1e9)
        else acc)
      0. (Trace.spans ())
  in
  Trace.reset ();
  (r, phase_s)

let record_overhead ~untraced_s ~traced_s =
  record "trace.overhead_s" (traced_s -. untraced_s)

(* The tuner's own phase timers ([tune.phase.*_s]) and the compile
   cache's hit/miss counters. *)
let tuner_counters =
  [ "tune.phase.propose_s"; "tune.phase.prepare_s"; "tune.phase.fit_s";
    "tune.phase.measure_s"; "cache.hit"; "cache.miss"; "pool.jobs" ]

let record_tuner_counters deltas =
  let d n = List.assoc n deltas in
  List.iter
    (fun p -> record ("tuner." ^ p ^ "_s") (d ("tune.phase." ^ p ^ "_s")))
    [ "propose"; "prepare"; "fit"; "measure" ];
  record "cache.hit_ratio" (ratio (d "cache.hit") (d "cache.hit" +. d "cache.miss"))
