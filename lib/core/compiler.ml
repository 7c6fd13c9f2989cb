(** The end-to-end compiler (§2): graph in, deployable module out.

    Pipeline: high-level graph rewriting (operator fusion, §3) →
    per-fused-group tensor-expression construction → schedule-template
    instantiation → ML-based automated optimization (§5) over the RPC
    device pool → lowered kernels packaged with their I/O signature.

    Tuned configurations are cached by workload signature (anchor op +
    shapes + target), so the twelve distinct ResNet convolutions are
    tuned once each however many times they repeat — and so related
    graphs benefit from history, as the paper's database does. *)

module G = Tvm_graph.Graph_ir
module Fusion = Tvm_graph.Fusion
module Tensor = Tvm_te.Tensor
module Tuner = Tvm_autotune.Tuner
module Templates = Tvm_autotune.Templates
module Cfg_space = Tvm_autotune.Cfg_space
module Compile_cache = Tvm_autotune.Compile_cache
module Pool = Tvm_rpc.Device_pool
module Rt_module = Tvm_runtime.Rt_module
module Trace = Tvm_obs.Trace
module Metrics = Tvm_obs.Metrics
module Job_spec = Tvm_spec.Job_spec

let () = Tvm_graph.Std_ops.register_all ()

exception Validation_failed of string * Tvm_tir.Validate.violation list
(** Raised by {!build} when [spec.validate] is set and the named
    kernel's lowered program has provable defects. *)

(** Tuning cache: workload signature → (best config, best noise-free
    time). The default instance is process-global (the paper's shared
    database); callers needing isolation — [tvmd]'s private-by-default
    tenants — pass their own instance to {!build}. *)
type tuned_cache = (string, Cfg_space.config * float) Hashtbl.t

let create_tuned_cache () : tuned_cache = Hashtbl.create 64
let tuned_cache : tuned_cache = create_tuned_cache ()

let clear_cache () = Hashtbl.reset tuned_cache

(** Tuned-cache contents, sorted by signature — what the persistent
    store serializes so a warm restart skips repeat tuning. *)
let tuned_entries ?(cache = tuned_cache) () =
  Hashtbl.fold (fun sig_ (cfg, t) acc -> (sig_, cfg, t) :: acc) cache []
  |> List.sort compare

(** Preload the tuned cache (a store load on daemon startup). Existing
    in-process entries win: they were tuned live by this process. *)
let restore_tuned ?(cache = tuned_cache) entries =
  List.iter
    (fun (sig_, cfg, t) ->
      if not (Hashtbl.mem cache sig_) then Hashtbl.add cache sig_ (cfg, t))
    entries

let workload_signature (graph : G.t) (g : Fusion.group) target =
  let anchor = G.node graph g.Fusion.g_anchor in
  let op = match anchor.G.kind with G.Op op -> op | _ -> "copy" in
  let shapes =
    List.map
      (fun i ->
        String.concat "x" (List.map string_of_int (G.node graph i).G.shape))
      anchor.G.inputs
  in
  let epilogue =
    match List.length g.Fusion.g_nodes - 1 with 0 -> "" | n -> Printf.sprintf "+%d" n
  in
  Printf.sprintf "%s(%s)->%s%s@%s" op (String.concat "," shapes)
    (String.concat "x" (List.map string_of_int anchor.G.shape))
    epilogue (Target.name target)

(** Template for a fused group on a target. *)
let template_for ~name target (out_tensor : Tensor.t) : Tuner.template =
  match target with
  | Target.Cuda _ | Target.Opencl_mali _ -> (
      (* Dense 2-D reductions get the richer structured matmul space. *)
      match Tensor.const_shape out_tensor with
      | [ m; n ] when m > 1 && n >= 16 && Templates.reduce_depth out_tensor > 1 ->
          Templates.gpu_matmul ~name out_tensor
      | _ -> Templates.gpu_flat ~name out_tensor)
  | Target.Llvm _ -> Templates.cpu_flat ~name out_tensor

(** Find a reasonable untuned configuration: sample a few and keep the
    best under the target's model (what a hand-written default schedule
    would give). *)
let default_config ?(samples = 12) ~seed target (tpl : Tuner.template) =
  let rng = Random.State.make [| seed; 17 |] in
  let best = ref None in
  for _ = 1 to samples do
    let cfg = Cfg_space.random_config tpl.Tuner.tpl_space rng in
    match Tuner.try_instantiate tpl cfg with
    | Some stmt ->
        let t = Target.time_s target stmt in
        if Float.is_finite t then begin
          match !best with
          | Some (_, _, bt) when bt <= t -> ()
          | _ -> best := Some (cfg, stmt, t)
        end
    | None -> ()
  done;
  !best

type build_result = {
  module_ : Rt_module.t;
  groups : Fusion.group list;
  graph : G.t;
  tuning_trials_run : int;
}

(** Compile [graph] for [target]: the paper's
    [graph, lib, params = t.compiler.build (graph, target, params)].
    [spec] supplies every knob ({!Job_spec.t}); [db] is a shared
    measurement log the tuning runs record into (and, with
    [spec.replay], resume from). *)
let build ?(spec = Job_spec.default) ?db ?(tuned = tuned_cache) (graph : G.t)
    (target : Target.t) : build_result =
  Trace.with_span "compile" ~attrs:[ ("target", Target.name target) ] @@ fun () ->
  let groups =
    Trace.with_span "phase.fusion" (fun () ->
        if spec.Job_spec.fusion then Fusion.fuse graph else Fusion.no_fusion graph)
  in
  Metrics.set_gauge "fusion.groups" (Float.of_int (List.length groups));
  Metrics.incr "compiler.builds";
  let pool = Pool.of_spec ~kind:(Target.device_kind target) spec in
  let par = Tvm_par.Pool.create ~domains:spec.Job_spec.jobs () in
  let kind_pred (_ : Pool.device_kind) = true in
  let trials_run = ref 0 in
  let kernels =
    List.map
      (fun g ->
        let signature = workload_signature graph g target in
        Trace.with_span "group" ~attrs:[ ("workload", signature) ] @@ fun () ->
        let (out_tensor, input_placeholders), tpl =
          Trace.with_span "phase.template" (fun () ->
              let te = Fusion.build_group_te graph g in
              (te, template_for ~name:signature target (fst te)))
        in
        (* [lowered] is the winner's program when the search (or the
           default-schedule sampler) built it; a tuned-cache hit has
           none and re-lowers below. *)
        let best_cfg, lowered =
          match Hashtbl.find_opt tuned signature with
          | Some (cfg, _) ->
              Metrics.incr "compiler.cache_hits";
              (cfg, None)
          | None ->
              Trace.with_span "phase.tuning" @@ fun () ->
              let cfg, t, stmt =
                if spec.Job_spec.trials > 0 then begin
                  let measure = Pool.measure_fn pool ~kind_pred in
                  let measure_batch =
                    Pool.batch_measure_fn ~par pool ~kind_pred
                  in
                  (* Two independent half-budget searches, keep the
                     better: guards against a seed-stranded run. *)
                  let half = max 8 (spec.Job_spec.trials / 2) in
                  (* One feature memo per tuned group, shared by the two
                     searches; it dies with this group. *)
                  let memo = Compile_cache.create ~name:signature () in
                  let run seed =
                    Tuner.tune
                      ~spec:{ spec with Job_spec.seed }
                      ?db ~cache:memo ~measure_batch
                      ~method_:(Tuner.method_of_name spec.Job_spec.method_name)
                      ~measure ~n_trials:half tpl
                  in
                  let r1 = run spec.Job_spec.seed in
                  let r2 = run (spec.Job_spec.seed + 1000) in
                  trials_run := !trials_run + (2 * half);
                  let best = if r1.Tuner.best_time <= r2.Tuner.best_time then r1 else r2 in
                  (best.Tuner.best_config, best.Tuner.best_time, best.Tuner.best_stmt)
                end
                else
                  match default_config ~seed:spec.Job_spec.seed target tpl with
                  | Some (cfg, stmt, t) -> (cfg, t, Some stmt)
                  | None ->
                      invalid_arg
                        ("compiler: no valid default configuration for " ^ signature)
              in
              Hashtbl.replace tuned signature (cfg, t);
              (cfg, stmt)
        in
        let stmt, time_s =
          Trace.with_span "phase.lowering" (fun () ->
              let stmt =
                match lowered with
                | Some s -> s
                | None -> tpl.Tuner.tpl_instantiate best_cfg
              in
              (stmt, Target.time_s target stmt))
        in
        let validation_ok =
          Trace.with_span "phase.validate" @@ fun () ->
          let violations = Tvm_tir.Validate.check stmt in
          let errs = Tvm_tir.Validate.errors violations in
          Metrics.incr "validate.errors" ~by:(Float.of_int (List.length errs));
          Metrics.incr "validate.warnings"
            ~by:(Float.of_int (List.length (Tvm_tir.Validate.warnings violations)));
          if spec.Job_spec.verbose then
            List.iter
              (fun v ->
                Printf.printf "[tvm] validate %s: %s\n%!" signature
                  (Tvm_tir.Validate.to_string v))
              violations;
          if spec.Job_spec.validate && errs <> [] then
            raise (Validation_failed (signature, errs));
          errs = []
        in
        (* Journal the compile job itself: the winning configuration's
           final lowering is a trial with origin [compiler] — cache says
           whether the winner's program was handed forward ("hit") or
           re-lowered ("miss"), time is the target model's estimate. *)
        if Tvm_obs.Journal.enabled () then begin
          let uid = Tvm_obs.Journal.fresh_uid () in
          Tvm_obs.Journal.run ~name:("compile:" ^ signature) ~method_:"compiler"
            ~trials:1;
          Tvm_obs.Journal.propose ~uid ~origin:"compiler" ~chain:(-1)
            ~score:Float.nan ~config:(Cfg_space.to_string best_cfg);
          Tvm_obs.Journal.prepare ~uid
            ~cache:(if Option.is_some lowered then "hit" else "miss")
            ~valid:validation_ok;
          Tvm_obs.Journal.measure ~uid ~status:"ok" ~time_s:(Some time_s)
            ~attempts:0
        end;
        if spec.Job_spec.verbose then
          Printf.printf "[tvm] %-60s %.3f ms\n%!" signature (1e3 *. time_s);
        {
          Rt_module.k_name = signature;
          k_group = g.Fusion.g_id;
          k_stmt = stmt;
          k_input_buffers = List.map Tensor.buffer input_placeholders;
          k_output_buffer = Tensor.buffer out_tensor;
          k_time_s = time_s;
          k_flops = Fusion.group_flops graph g;
        })
      groups
  in
  Metrics.incr "compiler.trials_run" ~by:(Float.of_int !trials_run);
  Trace.with_span "phase.packaging" @@ fun () ->
  {
    module_ = Rt_module.create ~target_name:(Target.name target) kernels;
    groups;
    graph;
    tuning_trials_run = !trials_run;
  }

(** Build + wrap in a graph executor ([runtime.create] of §2). *)
let build_executor ?spec ?db ?tuned graph target =
  let result = build ?spec ?db ?tuned graph target in
  let exec =
    Tvm_runtime.Graph_executor.create ~graph:result.graph ~groups:result.groups
      ~module_:result.module_ ()
  in
  (result, exec)
