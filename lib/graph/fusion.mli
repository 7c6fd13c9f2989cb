(** Operator fusion (§3).

    Implements the paper's generic rules over the four operator
    categories: injective operators fuse with one another; reduction
    operators fuse their injective inputs; complex-out-fusable operators
    (e.g. conv2d) fuse elementwise operators at their output; opaque
    operators stand alone. A producer is only absorbed when it has a
    single consumer — its intermediate would otherwise still be needed
    in memory, defeating the point of fusion. *)

type group = {
  g_id : int;
  g_nodes : int list;  (** member op-node ids, topological, last = output *)
  g_anchor : int;  (** the node whose master schedule template is used *)
  g_inputs : int list;  (** external node ids the group reads *)
  g_output : int;
}

val group_size : group -> int

(** One group per operator — the "w/o fusion" baseline of Fig 4/14. *)
val no_fusion : Graph_ir.t -> group list

(** Order groups so every group runs after the producers of its inputs
    (absorbing a residual add can make a group depend on a
    later-formed one). *)
val topo_sort_groups : group list -> group list

(** Fused partition covering all op nodes, in executable order. *)
val fuse : Graph_ir.t -> group list

(** Build the fused tensor-expression DAG for a group: placeholders for
    external inputs (returned in [g_inputs] order), each member op
    applied in order; returns the output tensor. *)
val build_group_te : Graph_ir.t -> group -> Tvm_te.Tensor.t * Tvm_te.Tensor.t list

(** Total FLOPs of the group's member operators. *)
val group_flops : Graph_ir.t -> group -> float
