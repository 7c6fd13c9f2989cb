(** Computational-graph IR (§3, Fig 3).

    A node is an operation on tensors or a program input; edges are data
    dependencies. Shapes are inferred eagerly — the paper exploits
    "shape specificity in common DL workloads to optimize for a fixed
    set of input shapes". *)

open Tvm_tir

type node_kind =
  | Input  (** runtime-fed activation *)
  | Param  (** weight/constant, known at compile time *)
  | Op of string  (** operator instance; name keys {!Op_registry} *)

type node = {
  id : int;
  kind : node_kind;
  name : string;
  inputs : int list;  (** producing node ids *)
  attrs : Attrs.t;
  shape : int list;
  dtype : Dtype.t;
}

type t = {
  nodes : node array;  (** topologically ordered: inputs before users *)
  outputs : int list;
  input_ids : int list;
  param_ids : int list;
  consumers_of : int list array;
      (** consumer node ids per producer id, ascending — precomputed at
          construction so [consumers] is O(1) per query instead of a
          scan of every node's input list *)
  output_set : (int, unit) Hashtbl.t;  (** members of [outputs] *)
}

(* The adjacency indexes behind [consumers]/[is_output], built once by
   the two constructors below. A consumer reading the same producer
   through several inputs is listed once, like the original scan. *)
let index_adjacency nodes outputs =
  let consumers_of = Array.make (Array.length nodes) [] in
  Array.iter
    (fun n ->
      List.iter
        (fun inp -> consumers_of.(inp) <- n.id :: consumers_of.(inp))
        (List.sort_uniq compare n.inputs))
    nodes;
  Array.iteri (fun i l -> consumers_of.(i) <- List.rev l) consumers_of;
  let output_set = Hashtbl.create (max 4 (List.length outputs)) in
  List.iter (fun id -> Hashtbl.replace output_set id ()) outputs;
  (consumers_of, output_set)

let node g id = g.nodes.(id)
let num_nodes g = Array.length g.nodes
let consumers g id = g.consumers_of.(id)
let is_output g id = Hashtbl.mem g.output_set id

let iter_ops g f =
  Array.iter (fun n -> match n.kind with Op op -> f n op | Input | Param -> ()) g.nodes

let op_count g =
  let c = ref 0 in
  iter_ops g (fun _ _ -> incr c);
  !c

let pp fmt g =
  Array.iter
    (fun n ->
      let kind =
        match n.kind with
        | Input -> "input"
        | Param -> "param"
        | Op op -> op
      in
      Format.fprintf fmt "%3d %-18s %-24s [%s] <- %s%s@."
        n.id kind n.name
        (String.concat "x" (List.map string_of_int n.shape))
        (String.concat "," (List.map string_of_int n.inputs))
        (if n.attrs = [] then "" else "  {" ^ Attrs.to_string n.attrs ^ "}"))
    g.nodes

let to_string g = Format.asprintf "%a" pp g

(* ------------------------------------------------------------------ *)
(* Builder                                                              *)
(* ------------------------------------------------------------------ *)

(** Shape-inference hook filled by {!Op_registry} at link time, so the
    IR does not depend on the operator implementations. *)
let shape_infer_hook :
    (string -> int list list -> Attrs.t -> int list) ref =
  ref (fun op _ _ -> invalid_arg ("shape inference not registered for " ^ op))

type builder = {
  mutable rev_nodes : node list;
  mutable next_id : int;
  mutable b_inputs : int list;
  mutable b_params : int list;
}

type noderef = int

let builder () = { rev_nodes = []; next_id = 0; b_inputs = []; b_params = [] }

let add_node b kind name inputs attrs shape dtype =
  let id = b.next_id in
  b.next_id <- id + 1;
  b.rev_nodes <- { id; kind; name; inputs; attrs; shape; dtype } :: b.rev_nodes;
  id

let input ?(dtype = Dtype.Float32) b name shape =
  let id = add_node b Input name [] Attrs.empty shape dtype in
  b.b_inputs <- b.b_inputs @ [ id ];
  id

let param ?(dtype = Dtype.Float32) b name shape =
  let id = add_node b Param name [] Attrs.empty shape dtype in
  b.b_params <- b.b_params @ [ id ];
  id

let node_shape b id =
  (List.find (fun n -> n.id = id) b.rev_nodes).shape

let node_dtype b id = (List.find (fun n -> n.id = id) b.rev_nodes).dtype

let op ?(attrs = Attrs.empty) ?name ?dtype b op_name inputs =
  let in_shapes = List.map (node_shape b) inputs in
  let shape = !shape_infer_hook op_name in_shapes attrs in
  let dtype =
    match (dtype, inputs) with
    | Some d, _ -> d
    | None, i :: _ -> node_dtype b i
    | None, [] -> Dtype.Float32
  in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s_%d" op_name b.next_id
  in
  add_node b (Op op_name) name inputs attrs shape dtype

let finalize b outputs =
  let nodes = Array.of_list (List.rev b.rev_nodes) in
  let consumers_of, output_set = index_adjacency nodes outputs in
  {
    nodes;
    outputs;
    input_ids = b.b_inputs;
    param_ids = b.b_params;
    consumers_of;
    output_set;
  }

(** Rebuild a graph from an explicit node list (used by passes). Node
    ids must be dense and topologically ordered. *)
let of_nodes nodes ~outputs =
  let nodes = Array.of_list nodes in
  Array.iteri
    (fun i n ->
      if n.id <> i then invalid_arg "Graph_ir.of_nodes: ids must be dense and ordered";
      List.iter
        (fun inp -> if inp >= i then invalid_arg "Graph_ir.of_nodes: not topological")
        n.inputs)
    nodes;
  let input_ids =
    Array.to_list nodes |> List.filter (fun n -> n.kind = Input) |> List.map (fun n -> n.id)
  in
  let param_ids =
    Array.to_list nodes |> List.filter (fun n -> n.kind = Param) |> List.map (fun n -> n.id)
  in
  let consumers_of, output_set = index_adjacency nodes outputs in
  { nodes; outputs; input_ids; param_ids; consumers_of; output_set }
