(** Graph executor: the runtime of §2's deployment example
    ([runtime.create] / [set_input] / [run] / [get_output]).

    Storage for intermediates follows the static memory plan; execution
    walks the fused groups in order. Two functional modes exist:

    - [`Compiled]: run each kernel's lowered loop program through the
      IR interpreter — executes exactly what the compiler produced
      (used by correctness tests);
    - [`Reference]: run each node's reference ndarray kernel — much
      faster, used for end-to-end functional checks on larger nets.

    Timing never comes from execution: {!estimated_time_s} and the
    per-kernel {!profile} price the compiled kernels' model estimates
    plus a per-launch framework overhead, and neither runs anything. *)

module Nd = Tvm_nd.Ndarray
module Graph_ir = Tvm_graph.Graph_ir
module Fusion = Tvm_graph.Fusion
module Op_registry = Tvm_graph.Op_registry
module Mem_plan = Tvm_graph.Mem_plan
module Trace = Tvm_obs.Trace
module Metrics = Tvm_obs.Metrics
module Profile = Tvm_obs.Profile

type t = {
  graph : Graph_ir.t;
  groups : Fusion.group list;
  kernels : (int * Rt_module.kernel) list;  (** group id → kernel *)
  plan : Mem_plan.plan;
  values : (int, Nd.t) Hashtbl.t;  (** node id → current value *)
  target_name : string;
}

let launch_overhead_s = 10e-6

let create ~(graph : Graph_ir.t)
    ~(groups : Fusion.group list) ~(module_ : Rt_module.t) () : t =
  let kernels =
    List.map (fun (k : Rt_module.kernel) -> (k.Rt_module.k_group, k)) (Rt_module.kernels module_)
  in
  let plan = Mem_plan.plan graph groups in
  Metrics.set_gauge "mem.pooled_bytes" plan.Mem_plan.total_bytes;
  Metrics.set_gauge "mem.naive_bytes" plan.Mem_plan.naive_bytes;
  {
    graph;
    groups;
    kernels;
    plan;
    values = Hashtbl.create 32;
    target_name = module_.Rt_module.m_target_name;
  }

let set_input t name (v : Nd.t) =
  match
    Array.to_list t.graph.Graph_ir.nodes
    |> List.find_opt (fun n ->
           n.Graph_ir.name = name
           && (n.Graph_ir.kind = Graph_ir.Input || n.Graph_ir.kind = Graph_ir.Param))
  with
  | Some n ->
      if Nd.shape v <> n.Graph_ir.shape then
        invalid_arg
          (Printf.sprintf "set_input %s: shape mismatch ([%s] vs node [%s])" name
             (String.concat "x" (List.map string_of_int (Nd.shape v)))
             (String.concat "x" (List.map string_of_int n.Graph_ir.shape)));
      Hashtbl.replace t.values n.Graph_ir.id v
  | None -> invalid_arg ("set_input: no input or param named " ^ name)

(** Bind all parameters at once (the [set_input] with params of §2). *)
let set_params t (params : (int * Nd.t) list) =
  List.iter (fun (id, v) -> Hashtbl.replace t.values id v) params

let value_of t id =
  match Hashtbl.find_opt t.values id with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "executor: node %d (%s) has no value — missing set_input?"
           id (Graph_ir.node t.graph id).Graph_ir.name)

let run_group_reference t (g : Fusion.group) =
  List.iter
    (fun id ->
      let n = Graph_ir.node t.graph id in
      match n.Graph_ir.kind with
      | Graph_ir.Op op ->
          let impl = Op_registry.find op in
          let ins = List.map (value_of t) n.Graph_ir.inputs in
          let out = impl.Op_registry.ref_exec ins n.Graph_ir.attrs in
          Hashtbl.replace t.values id out
      | Graph_ir.Input | Graph_ir.Param -> ())
    g.Fusion.g_nodes

let group_kernel t (g : Fusion.group) = List.assoc_opt g.Fusion.g_id t.kernels

let run_group_compiled t (g : Fusion.group) =
  match group_kernel t g with
  | None ->
      (* No kernel was compiled for this group (e.g. CPU fallback):
         reference execution keeps the graph runnable. *)
      run_group_reference t g
  | Some k ->
      let inputs = List.map (value_of t) g.Fusion.g_inputs in
      let out_node = Graph_ir.node t.graph g.Fusion.g_output in
      let output = Nd.create ~dtype:out_node.Graph_ir.dtype out_node.Graph_ir.shape in
      Rt_module.run_kernel k ~inputs ~output;
      Hashtbl.replace t.values g.Fusion.g_output output

let run_group t mode g =
  match mode with
  | `Reference -> run_group_reference t g
  | `Compiled -> run_group_compiled t g

let group_name t (g : Fusion.group) =
  match group_kernel t g with
  | Some k -> k.Rt_module.k_name
  | None -> (Graph_ir.node t.graph g.Fusion.g_output).Graph_ir.name

(** Bytes touched by one invocation of the group: all group inputs plus
    the output, at packed dtype density. *)
let group_bytes t (g : Fusion.group) =
  let node_bytes id =
    let n = Graph_ir.node t.graph id in
    Float.of_int (List.fold_left ( * ) 1 n.Graph_ir.shape)
    *. Tvm_tir.Dtype.bytes n.Graph_ir.dtype
  in
  List.fold_left
    (fun acc id -> acc +. node_bytes id)
    (node_bytes g.Fusion.g_output) g.Fusion.g_inputs

let run ?(mode = `Reference) t =
  List.iter
    (fun g ->
      if Trace.enabled () then
        Trace.with_span "kernel"
          ~attrs:[ ("name", group_name t g) ]
          (fun () -> run_group t mode g)
      else run_group t mode g)
    t.groups

let get_output t i =
  let id = List.nth t.graph.Graph_ir.outputs i in
  value_of t id

let kernel_time_s t g =
  match group_kernel t g with Some k -> k.Rt_module.k_time_s | None -> 0.

(** Estimated end-to-end latency: sum of kernel estimates plus launch
    overhead per group (the framework overhead MXNet/TF also pay). *)
let estimated_time_s t =
  List.fold_left
    (fun acc g -> acc +. kernel_time_s t g +. launch_overhead_s)
    0. t.groups

(** Price one inference without executing anything: one record per
    fused group, in execution order, from its kernel's modelled time
    and flops, the launch overhead and the graph's shapes — the
    debug-executor view. The total is {!estimated_time_s}. *)
let profile t : Profile.report =
  let record g =
    {
      Profile.pr_name = group_name t g;
      pr_group = g.Fusion.g_id;
      pr_time_s = kernel_time_s t g;
      pr_launch_s = launch_overhead_s;
      pr_bytes = group_bytes t g;
      pr_flops =
        (match group_kernel t g with Some k -> k.Rt_module.k_flops | None -> 0.);
    }
  in
  {
    Profile.rp_target = t.target_name;
    rp_records = List.map record t.groups;
    rp_total_s = estimated_time_s t;
  }

(** Memory footprint comparison from the static plan. *)
type memory_stats = { pooled_bytes : int; naive_bytes : int }

let memory_stats t =
  {
    pooled_bytes = int_of_float t.plan.Mem_plan.total_bytes;
    naive_bytes = int_of_float t.plan.Mem_plan.naive_bytes;
  }
