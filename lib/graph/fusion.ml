(** Operator fusion (§3).

    Implements the paper's generic rules over the four operator
    categories: injective operators fuse with one another; reduction
    operators fuse their injective inputs; complex-out-fusable operators
    (e.g. conv2d) fuse elementwise operators at their output; opaque
    operators stand alone. A producer may only be absorbed when it has
    a single consumer (its intermediate result would otherwise still be
    needed in memory, defeating the point of fusion). *)

type group = {
  g_id : int;
  g_nodes : int list;  (** member op-node ids, topological, last = output *)
  g_anchor : int;  (** the node whose master schedule template is used *)
  g_inputs : int list;  (** external node ids the group reads *)
  g_output : int;
}

let group_size g = List.length g.g_nodes

(** External inputs of a node set: inputs not produced inside. The
    membership test goes through a set, not [List.mem] — long fused
    chains made the filter quadratic in the group size. *)
let external_inputs (graph : Graph_ir.t) nodes =
  let inside = Hashtbl.create (2 * List.length nodes) in
  List.iter (fun id -> Hashtbl.replace inside id ()) nodes;
  List.concat_map (fun id -> (Graph_ir.node graph id).Graph_ir.inputs) nodes
  |> List.filter (fun id -> not (Hashtbl.mem inside id))
  |> List.sort_uniq compare

let anchor_of (graph : Graph_ir.t) nodes =
  let is_heavy id =
    match (Graph_ir.node graph id).Graph_ir.kind with
    | Graph_ir.Op op -> (
        match Op_registry.pattern op with
        | Op_registry.Complex_out_fusable | Op_registry.Reduction | Op_registry.Opaque ->
            true
        | Op_registry.Injective -> false)
    | Graph_ir.Input | Graph_ir.Param -> false
  in
  match List.find_opt is_heavy nodes with
  | Some id -> id
  | None -> List.hd nodes

let make_group graph gid nodes =
  {
    g_id = gid;
    g_nodes = nodes;
    g_anchor = anchor_of graph nodes;
    g_inputs = external_inputs graph nodes;
    g_output = List.nth nodes (List.length nodes - 1);
  }

(** One group per operator — the "w/o fusion" baseline of Fig 4/14. *)
let no_fusion (graph : Graph_ir.t) : group list =
  let gid = ref 0 in
  Array.to_list graph.Graph_ir.nodes
  |> List.filter_map (fun n ->
         match n.Graph_ir.kind with
         | Graph_ir.Op _ ->
             incr gid;
             Some (make_group graph !gid [ n.Graph_ir.id ])
         | Graph_ir.Input | Graph_ir.Param -> None)

(** Order groups so every group runs after the producers of its
    inputs. Needed because absorbing a multi-input consumer (e.g. a
    residual add) can make a group depend on a group formed later. *)
let topo_sort_groups (groups : group list) : group list =
  let by_output = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace by_output g.g_output g) groups;
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit g =
    if not (Hashtbl.mem visited g.g_id) then begin
      Hashtbl.replace visited g.g_id ();
      List.iter
        (fun input ->
          match Hashtbl.find_opt by_output input with
          | Some producer -> visit producer
          | None -> ())
        g.g_inputs;
      order := g :: !order
    end
  in
  List.iter visit groups;
  List.rev !order

(** Fused partition: greedy absorption of single-consumer injective
    chains into the group of their producer. *)
let fuse (graph : Graph_ir.t) : group list =
  let grouped = Hashtbl.create 16 in
  let gid = ref 0 in
  let op_pattern id =
    match (Graph_ir.node graph id).Graph_ir.kind with
    | Graph_ir.Op op -> Some (Op_registry.pattern op)
    | Graph_ir.Input | Graph_ir.Param -> None
  in
  let groups = ref [] in
  Array.iter
    (fun n ->
      match n.Graph_ir.kind with
      | Graph_ir.Input | Graph_ir.Param -> ()
      | Graph_ir.Op op ->
          if not (Hashtbl.mem grouped n.Graph_ir.id) then begin
            let nodes = ref [ n.Graph_ir.id ] in
            Hashtbl.replace grouped n.Graph_ir.id ();
            (if Op_registry.pattern op <> Op_registry.Opaque then
               (* Grow an epilogue chain of single-consumer injectives. *)
               let rec grow out =
                 if Graph_ir.is_output graph out then ()
                 else
                   match Graph_ir.consumers graph out with
                   | [ c ] when not (Hashtbl.mem grouped c) -> (
                       match op_pattern c with
                       | Some Op_registry.Injective ->
                           nodes := !nodes @ [ c ];
                           Hashtbl.replace grouped c ();
                           grow c
                       | Some _ | None -> ())
                   | _ -> ()
               in
               grow n.Graph_ir.id);
            incr gid;
            groups := make_group graph !gid !nodes :: !groups
          end)
    graph.Graph_ir.nodes;
  topo_sort_groups (List.rev !groups)

(** Build the fused tensor-expression DAG for a group: placeholders for
    external inputs, then each member op applied in order. Returns the
    output tensor and the placeholder list (in [g_inputs] order). *)
let build_group_te (graph : Graph_ir.t) (g : group) =
  let placeholders =
    List.map
      (fun id ->
        let n = Graph_ir.node graph id in
        ( id,
          Tvm_te.Tensor.placeholder ~dtype:n.Graph_ir.dtype n.Graph_ir.name
            (List.map Tvm_tir.Expr.int n.Graph_ir.shape) ))
      g.g_inputs
  in
  let produced = Hashtbl.create 8 in
  List.iter (fun (id, t) -> Hashtbl.replace produced id t) placeholders;
  let out =
    List.fold_left
      (fun _ id ->
        let n = Graph_ir.node graph id in
        match n.Graph_ir.kind with
        | Graph_ir.Op op ->
            let impl = Op_registry.find op in
            let ins =
              List.map
                (fun i ->
                  match Hashtbl.find_opt produced i with
                  | Some t -> t
                  | None -> invalid_arg "build_group_te: input not materialized")
                n.Graph_ir.inputs
            in
            let t = impl.Op_registry.build_te ins n.Graph_ir.attrs in
            Hashtbl.replace produced id t;
            Some t
        | Graph_ir.Input | Graph_ir.Param -> None)
      None g.g_nodes
  in
  match out with
  | Some t -> (t, List.map snd placeholders)
  | None -> invalid_arg "build_group_te: empty group"

(** Total FLOPs of a group at its anchor's granularity. *)
let group_flops (graph : Graph_ir.t) (g : group) =
  List.fold_left
    (fun acc id ->
      let n = Graph_ir.node graph id in
      match n.Graph_ir.kind with
      | Graph_ir.Op op ->
          let impl = Op_registry.find op in
          let in_shapes =
            List.map (fun i -> (Graph_ir.node graph i).Graph_ir.shape) n.Graph_ir.inputs
          in
          acc +. impl.Op_registry.op_flops in_shapes n.Graph_ir.attrs
      | Graph_ir.Input | Graph_ir.Param -> acc)
    0. g.g_nodes
