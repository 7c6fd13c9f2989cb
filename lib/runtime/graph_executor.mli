(** Minimal graph executor over a compiled module (§2's
    [runtime.create]): topological execution of the fused groups,
    memory planned by {!Tvm_graph.Mem_plan}, and a per-kernel price
    list for the debug-executor view that executes nothing.

    Sealed surface: clients (the compiler's [build_executor], [tvmc],
    [tvmd]) see an abstract handle plus the run/profile/query
    operations below — the value table, memory plan and per-group
    dispatch stay private. *)

type t

(** Per-kernel-launch framework cost, in seconds, charged by
    {!estimated_time_s}, {!profile} and the serving executor. *)
val launch_overhead_s : float

(** Wire a compiled module to its graph and fusion groups. *)
val create :
  graph:Tvm_graph.Graph_ir.t ->
  groups:Tvm_graph.Fusion.group list ->
  module_:Rt_module.t ->
  unit ->
  t

(** Bind a named graph input; raises [Invalid_argument] on an unknown
    name or a shape mismatch. *)
val set_input : t -> string -> Tvm_nd.Ndarray.t -> unit

(** Bind constant parameters by node id (see
    [Models.random_params]). *)
val set_params : t -> (int * Tvm_nd.Ndarray.t) list -> unit

(** Execute the whole graph. [`Reference] runs the unscheduled
    reference computation; [`Compiled] interprets each group's lowered
    kernel. *)
val run : ?mode:[ `Reference | `Compiled ] -> t -> unit

(** The debug executor's per-kernel latency breakdown of one
    inference, priced from the compiled module and the graph: one
    record per fused group in execution order. Executes nothing, so it
    needs no bound params or inputs. Its [rp_total_s] is
    {!estimated_time_s}, bit for bit. *)
val profile : t -> Tvm_obs.Profile.report

(** [i]-th graph output of the last {!run}; raises if the graph has
    not run yet. *)
val get_output : t -> int -> Tvm_nd.Ndarray.t

(** Modelled end-to-end latency: kernel estimates + launch overhead. *)
val estimated_time_s : t -> float

(** Activation memory footprint of the static plan, in whole bytes
    (tensor sizes are integral). Both values are also published as the
    [mem.pooled_bytes] / [mem.naive_bytes] gauges at {!create}. *)
type memory_stats = { pooled_bytes : int; naive_bytes : int }

val memory_stats : t -> memory_stats
