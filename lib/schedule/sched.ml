(** Schedules: trees of program-transformation decisions (§4).

    A schedule is created from the output tensors of a tensor-expression
    computation and holds one {!stage} per compute op. Primitives
    incrementally transform stages while preserving logical equivalence;
    {!Tvm_lower} turns the final schedule into low-level loop code
    (Fig 6's lowering process).

    Implemented primitives and their paper provenance:
    - Halide-derived: [split], [tile], [fuse], [reorder], [parallel],
      [vectorize], [unroll], [compute_at], [compute_inline], [bind]
      (thread binding), [cache_read], [cache_write].
    - TVM-novel: [set_scope] (special memory scopes, §4.2), [tensorize]
      (§4.3), [vthread] (latency hiding, §4.4), [pragma]. *)

open Tvm_tir
module Tensor = Tvm_te.Tensor

type relation =
  | Split of {
      parent : Iter_var.t;
      outer : Iter_var.t;
      inner : Iter_var.t;
      factor : int;
      exact : bool;  (** factor divides parent extent: no guard needed *)
    }
  | Fuse of { outer : Iter_var.t; inner : Iter_var.t; fused : Iter_var.t }

type attach =
  | Root  (** own loop nest at top level *)
  | Inline  (** substituted into consumers *)
  | At of { target : stage; level : Iter_var.t }  (** nested in a consumer *)

and stage = {
  s_id : int;
  mutable s_name : string;
  mutable s_out : Expr.buffer;  (** buffer the stage stores into *)
  mutable s_root_axes : Iter_var.t list;  (** data-parallel axes, output order *)
  mutable s_reduce_axes : Iter_var.t list;
  mutable s_body : Tensor.body;  (** loads refer to *current* producer buffers *)
  mutable s_leaf : Iter_var.t list;  (** current loop order *)
  mutable s_relations : relation list;
  mutable s_attach : attach;
  mutable s_ann : (int * Stmt.for_kind) list;  (** iter-var id → loop kind *)
  mutable s_tensorize : (Iter_var.t * Tensor_intrin.t) option;
  mutable s_pragma : (string * string) list;
  mutable s_is_output : bool;
}

type t = {
  mutable stages : stage list;  (** producers before consumers *)
  outputs : Tensor.t list;
  by_tensor : (int, stage) Hashtbl.t;  (** tensor id → stage *)
}

(* Atomic: schedules are instantiated from parallel tuner workers.
   Stage ids only need to be unique. *)
let stage_counter = Atomic.make 0

let const_shape_of tensor = Tensor.const_shape tensor

let make_stage ~name ~out ~root_axes ~reduce_axes ~body ~is_output =
  {
    s_id = 1 + Atomic.fetch_and_add stage_counter 1;
    s_name = name;
    s_out = out;
    s_root_axes = root_axes;
    s_reduce_axes = reduce_axes;
    s_body = body;
    s_leaf = root_axes @ reduce_axes;
    s_relations = [];
    s_attach = Root;
    s_ann = [];
    s_tensorize = None;
    s_pragma = [];
    s_is_output = is_output;
  }

let stage_of_tensor_op tensor ~is_output =
  match tensor.Tensor.op with
  | Tensor.Placeholder -> None
  | Tensor.Compute c ->
      let shape = const_shape_of tensor in
      let root_axes =
        List.map2 (fun v extent -> Iter_var.of_var v extent) c.Tensor.axes shape
      in
      let reduce_axes =
        match c.Tensor.body with
        | Tensor.Value _ -> []
        | Tensor.Reduce r ->
            List.map
              (fun (ra : Tensor.raxis) ->
                Iter_var.of_var ~kind:Iter_var.Reduction ra.Tensor.rvar ra.Tensor.rextent)
              r.Tensor.raxes
      in
      Some
        (make_stage ~name:tensor.Tensor.tname ~out:tensor.Tensor.buffer ~root_axes
           ~reduce_axes ~body:c.Tensor.body ~is_output)

(** Create a schedule covering [outputs] and all their transitive
    producers (the paper's [t.create_schedule]). *)
let create (outputs : Tensor.t list) : t =
  let order = Tensor.topo_order outputs in
  let by_tensor = Hashtbl.create 16 in
  let stages =
    List.filter_map
      (fun tensor ->
        let is_output = List.exists (Tensor.equal tensor) outputs in
        match stage_of_tensor_op tensor ~is_output with
        | Some st ->
            Hashtbl.replace by_tensor tensor.Tensor.tid st;
            Some st
        | None -> None)
      order
  in
  { stages; outputs; by_tensor }

let stages t = t.stages

let find t tensor =
  match Hashtbl.find_opt t.by_tensor tensor.Tensor.tid with
  | Some st -> st
  | None -> invalid_arg (Printf.sprintf "Sched.find: no stage for %s" tensor.Tensor.tname)

let find_by_buffer t (b : Expr.buffer) =
  List.find_opt (fun st -> Expr.Buffer.equal st.s_out b) t.stages

let axis st i = List.nth st.s_root_axes i
let reduce_axis st i = List.nth st.s_reduce_axes i

let leaf_pos st iv =
  let rec loop i = function
    | [] -> invalid_arg (Printf.sprintf "%s: %s is not a leaf iter" st.s_name (Iter_var.name iv))
    | x :: rest -> if Iter_var.equal x iv then i else loop (i + 1) rest
  in
  loop 0 st.s_leaf

(* ------------------------------------------------------------------ *)
(* Loop-structure primitives                                           *)
(* ------------------------------------------------------------------ *)

let replace_leaf st iv replacements =
  let pos = leaf_pos st iv in
  st.s_leaf <-
    List.concat (List.mapi (fun i x -> if i = pos then replacements else [ x ]) st.s_leaf)

(** [split st iv ~factor] → (outer, inner). Non-dividing factors are
    legal; lowering guards the tail iterations. *)
let split st iv ~factor =
  if factor < 1 then invalid_arg "split: factor must be >= 1";
  let extent = iv.Iter_var.extent in
  let outer_extent = (extent + factor - 1) / factor in
  let exact = extent mod factor = 0 in
  let outer =
    Iter_var.create ~kind:iv.Iter_var.kind (Iter_var.name iv ^ ".o") outer_extent
  in
  let inner =
    Iter_var.create ~kind:iv.Iter_var.kind (Iter_var.name iv ^ ".i") (min factor extent)
  in
  st.s_relations <- st.s_relations @ [ Split { parent = iv; outer; inner; factor; exact } ];
  replace_leaf st iv [ outer; inner ];
  (outer, inner)

(** Split by number of outer parts rather than inner factor. *)
let split_nparts st iv ~nparts =
  if nparts < 1 then invalid_arg "split_nparts";
  let factor = (iv.Iter_var.extent + nparts - 1) / nparts in
  split st iv ~factor

(** Fuse two adjacent leaf iters into one. *)
let fuse st outer inner =
  let po = leaf_pos st outer and pi = leaf_pos st inner in
  if pi <> po + 1 then
    invalid_arg
      (Printf.sprintf "fuse: %s and %s are not adjacent" (Iter_var.name outer)
         (Iter_var.name inner));
  let kind =
    if Iter_var.is_reduce outer || Iter_var.is_reduce inner then Iter_var.Reduction
    else Iter_var.Data_par
  in
  let fused =
    Iter_var.create ~kind
      (Iter_var.name outer ^ "." ^ Iter_var.name inner ^ ".f")
      (outer.Iter_var.extent * inner.Iter_var.extent)
  in
  st.s_relations <- st.s_relations @ [ Fuse { outer; inner; fused } ];
  replace_leaf st outer [ fused ];
  st.s_leaf <- List.filter (fun x -> not (Iter_var.equal x inner)) st.s_leaf;
  fused

(** Fuse a whole list left-to-right. *)
let fuse_list st = function
  | [] -> invalid_arg "fuse_list: empty"
  | [ iv ] -> iv
  | iv :: rest -> List.fold_left (fun acc next -> fuse st acc next) iv rest

(** Permute the given leaf iters into the order listed; other leaves
    keep their positions. *)
let reorder st ivs =
  let positions = List.map (leaf_pos st) ivs in
  let sorted = List.sort compare positions in
  let arr = Array.of_list st.s_leaf in
  List.iteri (fun i pos -> arr.(pos) <- List.nth ivs i) sorted;
  st.s_leaf <- Array.to_list arr

(** [tile st y x ~y_factor ~x_factor] → (yo, xo, yi, xi), the classic
    2-D tiling of Fig 5. *)
let tile st y x ~y_factor ~x_factor =
  let yo, yi = split st y ~factor:y_factor in
  let xo, xi = split st x ~factor:x_factor in
  reorder st [ yo; xo; yi; xi ];
  (yo, xo, yi, xi)

(* ------------------------------------------------------------------ *)
(* Annotations                                                         *)
(* ------------------------------------------------------------------ *)

let set_ann st iv kind =
  st.s_ann <- (iv.Iter_var.var.Expr.vid, kind) :: List.remove_assoc iv.Iter_var.var.Expr.vid st.s_ann

let ann_of st iv = List.assoc_opt iv.Iter_var.var.Expr.vid st.s_ann

let parallel st iv =
  if Iter_var.is_reduce iv then invalid_arg "parallel: cannot parallelize a reduction axis";
  set_ann st iv Stmt.Parallel

let vectorize st iv =
  if Iter_var.is_reduce iv then invalid_arg "vectorize: cannot vectorize a reduction axis";
  set_ann st iv Stmt.Vectorized

let unroll st iv = set_ann st iv Stmt.Unrolled

let valid_thread_tags =
  [ "blockIdx.x"; "blockIdx.y"; "blockIdx.z"; "threadIdx.x"; "threadIdx.y"; "threadIdx.z" ]

(** Bind a data-parallel iter to a GPU grid/block index (§4.2). *)
let bind st iv tag =
  if not (List.mem tag valid_thread_tags) then invalid_arg ("bind: bad thread tag " ^ tag);
  if Iter_var.is_reduce iv then invalid_arg "bind: cannot bind a reduction axis";
  set_ann st iv (Stmt.Thread_binding tag)

(** Mark an iter as a virtual thread (§4.4). The vthread lowering pass
    interleaves its iterations into one instruction stream with explicit
    dependence tokens. *)
let vthread st iv =
  if Iter_var.is_reduce iv then invalid_arg "vthread: cannot vthread a reduction axis";
  set_ann st iv Stmt.Vthread

let pragma st key value = st.s_pragma <- (key, value) :: st.s_pragma

(* ------------------------------------------------------------------ *)
(* Compute placement                                                   *)
(* ------------------------------------------------------------------ *)

let compute_at st ~target ~level =
  if st == target then invalid_arg "compute_at: cannot attach a stage to itself";
  ignore (leaf_pos target level);
  st.s_attach <- At { target; level }

let compute_root st = st.s_attach <- Root

let compute_inline st =
  (match st.s_body with
  | Tensor.Value _ -> ()
  | Tensor.Reduce _ -> invalid_arg ("compute_inline: " ^ st.s_name ^ " has a reduction"));
  if st.s_is_output then invalid_arg "compute_inline: cannot inline an output stage";
  st.s_attach <- Inline

(* ------------------------------------------------------------------ *)
(* Memory scopes and cache stages (§4.2)                                *)
(* ------------------------------------------------------------------ *)

let map_body_exprs f = function
  | Tensor.Value e -> Tensor.Value (f e)
  | Tensor.Reduce r -> Tensor.Reduce { r with Tensor.src = f r.Tensor.src; Tensor.init = f r.Tensor.init }

(** Rewrite, in every stage of [t], loads from [old_b] to [new_b]. *)
let retarget_loads t ~old_b ~new_b =
  List.iter
    (fun st ->
      st.s_body <-
        map_body_exprs
          (Visit.map_expr (function
            | Expr.Load (b, idx) when Expr.Buffer.equal b old_b -> Expr.Load (new_b, idx)
            | e -> e))
          st.s_body)
    t.stages

(** Move a stage's storage to a different memory scope. Consumers are
    rewritten to read the new buffer. *)
let set_scope t st scope =
  if st.s_is_output then invalid_arg "set_scope: outputs live in global memory";
  let new_b = Expr.Buffer.with_scope scope st.s_out in
  retarget_loads t ~old_b:st.s_out ~new_b;
  st.s_out <- new_b

let insert_stage_after t ~anchor st =
  let rec go = function
    | [] -> [ st ]
    | x :: rest -> if x == anchor then x :: st :: rest else x :: go rest
  in
  t.stages <- go t.stages

let insert_stage_before t ~anchor st =
  let rec go = function
    | [] -> [ st ]
    | x :: rest -> if x == anchor then st :: x :: rest else x :: go rest
  in
  t.stages <- go t.stages

(** [cache_read t buffer scope readers]: create a copy stage that
    stages [buffer] (a tensor's storage) into [scope]; [readers] are
    rewritten to read the cache. Returns the new stage (e.g. the AS/BS
    shared-memory stages of §4.2's matmul). *)
let cache_read t (src : Expr.buffer) scope (readers : stage list) : stage =
  let shape = Expr.Buffer.const_shape src in
  let cache_buf =
    Expr.Buffer.create ~scope ~dtype:src.Expr.bdtype
      (src.Expr.bname ^ "." ^ Expr.scope_to_string scope)
      src.Expr.bshape
  in
  let axes =
    List.mapi (fun i extent -> Iter_var.create (Printf.sprintf "c%d" i) extent) shape
  in
  let idx = List.map (fun iv -> Expr.Var iv.Iter_var.var) axes in
  let body = Tensor.Value (Expr.Load (src, idx)) in
  let st =
    make_stage ~name:cache_buf.Expr.bname ~out:cache_buf ~root_axes:axes
      ~reduce_axes:[] ~body ~is_output:false
  in
  List.iter
    (fun reader ->
      reader.s_body <-
        map_body_exprs
          (Visit.map_expr (function
            | Expr.Load (b, idx) when Expr.Buffer.equal b src -> Expr.Load (cache_buf, idx)
            | e -> e))
          reader.s_body)
    readers;
  (match find_by_buffer t src with
  | Some producer -> insert_stage_after t ~anchor:producer st
  | None ->
      (* Placeholder input: stage goes first. *)
      t.stages <- st :: t.stages);
  st

(** [cache_write t st scope]: move the computation of [st] into a new
    stage writing a [scope]-scoped buffer; [st] becomes a copy from the
    cache to its original buffer. Apply before other transforms of
    [st]. Returns the compute stage (e.g. CL in Fig 5). *)
let cache_write t st scope : stage =
  if st.s_relations <> [] then
    invalid_arg "cache_write: apply before other transformations of the stage";
  let shape = List.map (fun iv -> iv.Iter_var.extent) st.s_root_axes in
  let cache_buf =
    Expr.Buffer.create ~scope ~dtype:st.s_out.Expr.bdtype
      (st.s_name ^ "." ^ Expr.scope_to_string scope)
      (List.map Expr.int shape)
  in
  (* Fresh axes for the compute stage; reduction axes move with the body. *)
  let fresh_axes =
    List.map
      (fun iv -> Iter_var.create (Iter_var.name iv ^ ".c") iv.Iter_var.extent)
      st.s_root_axes
  in
  let bindings =
    List.map2
      (fun old_iv new_iv -> (old_iv.Iter_var.var, Expr.Var new_iv.Iter_var.var))
      st.s_root_axes fresh_axes
  in
  let rename e =
    Visit.subst_expr
      (fun v ->
        List.find_map
          (fun (ov, e') -> if Expr.Var.equal ov v then Some e' else None)
          bindings)
      e
  in
  let compute_stage =
    make_stage
      ~name:(st.s_name ^ "." ^ Expr.scope_to_string scope)
      ~out:cache_buf ~root_axes:fresh_axes ~reduce_axes:st.s_reduce_axes
      ~body:(map_body_exprs rename st.s_body) ~is_output:false
  in
  (* The original stage becomes an injective copy from the cache. *)
  let idx = List.map (fun iv -> Expr.Var iv.Iter_var.var) st.s_root_axes in
  st.s_body <- Tensor.Value (Expr.Load (cache_buf, idx));
  st.s_reduce_axes <- [];
  st.s_leaf <- st.s_root_axes;
  insert_stage_before t ~anchor:st compute_stage;
  compute_stage

(* ------------------------------------------------------------------ *)
(* Tensorization (§4.3)                                                 *)
(* ------------------------------------------------------------------ *)

(** Replace the sub-nest rooted at leaf iter [iv] with calls to
    [intrin]. Lowering performs the pattern match against the
    intrinsic's declared shapes and fails loudly on mismatch. *)
let tensorize st iv (intrin : Tensor_intrin.t) =
  ignore (leaf_pos st iv);
  st.s_tensorize <- Some (iv, intrin)

(* ------------------------------------------------------------------ *)
(* Introspection helpers used by lowering and the autotuner            *)
(* ------------------------------------------------------------------ *)

(** Buffers read by the stage body. *)
let read_buffers st =
  let exprs =
    match st.s_body with
    | Tensor.Value e -> [ e ]
    | Tensor.Reduce r -> [ r.Tensor.src; r.Tensor.init ]
  in
  List.concat_map Visit.loaded_buffers exprs |> List.sort_uniq Expr.Buffer.compare

(** Stages attached at [target]'s leaf [level]. *)
let attached_at t target level =
  List.filter
    (fun st ->
      match st.s_attach with
      | At { target = tgt; level = lv } -> tgt == target && Iter_var.equal lv level
      | Root | Inline -> false)
    t.stages

let is_root_stage st = match st.s_attach with Root -> true | Inline | At _ -> false
let is_inline st = match st.s_attach with Inline -> true | Root | At _ -> false

(** Total extent product of the stage's leaf iteration space. *)
let iteration_count st =
  List.fold_left (fun acc iv -> acc * iv.Iter_var.extent) 1 st.s_leaf

let pp_stage fmt st =
  Format.fprintf fmt "@[<v 2>stage %s -> %s[%s] %s:@,leaf: %a@]" st.s_name
    st.s_out.Expr.bname
    (Expr.scope_to_string st.s_out.Expr.bscope)
    (match st.s_attach with
    | Root -> "root"
    | Inline -> "inline"
    | At { target; level } ->
        Printf.sprintf "at %s/%s" target.s_name (Iter_var.name level))
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") Iter_var.pp)
    st.s_leaf

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stage)
    t.stages
