(** Operator registry.

    Each operator carries the four things the stack needs (§3):
    its {b fusion pattern} (the paper's four categories), {b shape
    inference}, a {b tensor-expression builder} (so fused groups can be
    composed into one schedulable expression DAG), and a fast
    {b reference executor} over ndarrays (used for constant folding and
    functional end-to-end runs, where the IR interpreter would be too
    slow). *)

module Tensor = Tvm_te.Tensor
module Nd = Tvm_nd.Ndarray

(** The four operator categories of §3's fusion rules. *)
type pattern =
  | Injective  (** one-to-one map, e.g. add *)
  | Reduction  (** e.g. sum / pooling *)
  | Complex_out_fusable  (** can fuse elementwise ops at output, e.g. conv2d *)
  | Opaque  (** cannot be fused, e.g. sort *)

type impl = {
  op_name : string;
  pattern : pattern;
  infer_shape : int list list -> Attrs.t -> int list;
  build_te : Tensor.t list -> Attrs.t -> Tensor.t;
  ref_exec : Nd.t list -> Attrs.t -> Nd.t;
  op_flops : int list list -> Attrs.t -> float;
}

let table : (string, impl) Hashtbl.t = Hashtbl.create 64

let register impl = Hashtbl.replace table impl.op_name impl

let find name =
  match Hashtbl.find_opt table name with
  | Some impl -> impl
  | None -> invalid_arg ("Op_registry.find: unknown operator " ^ name)

let mem name = Hashtbl.mem table name
let pattern name = (find name).pattern

(* Wire shape inference into the graph builder. *)
let () =
  Graph_ir.shape_infer_hook :=
    fun op in_shapes attrs -> (find op).infer_shape in_shapes attrs
