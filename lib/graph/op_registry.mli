(** Operator registry.

    Each operator carries the four things the stack needs (§3): its
    fusion pattern (the paper's four categories), shape inference, a
    tensor-expression builder (so fused groups compose into one
    schedulable expression DAG), and a fast reference executor over
    ndarrays (constant folding and functional end-to-end runs). *)

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

val register : impl -> unit

(** Raises [Invalid_argument] on unknown operators. *)
val find : string -> impl

val mem : string -> bool
val pattern : string -> pattern
