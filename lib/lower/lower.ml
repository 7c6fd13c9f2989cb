(** Lowering: schedule → low-level loop program (Fig 6).

    The pipeline is:
    + inline substitution of [compute_inline] stages,
    + per-stage loop-nest construction following the leaf iteration
      order, reconstructing original axis values through the
      split/fuse relations,
    + region inference for [compute_at]-attached stages by interval
      analysis of the consumer's accesses (exact under divisor splits;
      offsets pin each inner var by point evaluation, then substitute
      all pins at once — {!minimize_inner}),
    + reduction lowering into init + update nests,
    + tensorize pattern-matching and replacement with intrinsic calls,
    + DMA rewriting of accelerator-scope copy stages.

    The finished program goes through one {!Simplify.stmt} pass.
    The virtual-thread transformation of §4.4 is a separate pass
    ({!Vthread_lower}) running on the output of this one. *)

open Tvm_tir
module Tensor = Tvm_te.Tensor
module Sched = Tvm_schedule.Sched
module Iter_var = Tvm_schedule.Iter_var
module Tensor_intrin = Tvm_schedule.Tensor_intrin

type target_kind = Cpu | Gpu | Accel

exception Lower_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Lower_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Inline substitution                                                  *)
(* ------------------------------------------------------------------ *)

let inline_into_consumers stages =
  let inline_map = Hashtbl.create 8 in
  List.iter
    (fun st ->
      if Sched.is_inline st then
        match st.Sched.s_body with
        | Tensor.Value e ->
            Hashtbl.replace inline_map st.Sched.s_out.Expr.bid
              (List.map (fun iv -> iv.Iter_var.var) st.Sched.s_root_axes, e)
        | Tensor.Reduce _ -> fail "inline stage %s has a reduction" st.Sched.s_name)
    stages;
  let substitute e =
    (* Iterate to fixpoint to resolve chains of inlined stages. *)
    let changed = ref true in
    let cur = ref e in
    let rounds = ref 0 in
    while !changed && !rounds < 50 do
      changed := false;
      incr rounds;
      cur :=
        Visit.map_expr
          (function
            | Expr.Load (b, idx) as e -> (
                match Hashtbl.find_opt inline_map b.Expr.bid with
                | Some (axes, body) ->
                    changed := true;
                    let bindings = List.combine axes idx in
                    Visit.subst_expr
                      (fun v ->
                        List.find_map
                          (fun (a, i) -> if Expr.Var.equal a v then Some i else None)
                          bindings)
                      body
                | None -> e)
            | e -> e)
          !cur
    done;
    if !changed then fail "inline substitution did not converge (cyclic inlining?)";
    !cur
  in
  List.iter
    (fun st ->
      if not (Sched.is_inline st) then
        st.Sched.s_body <-
          (match st.Sched.s_body with
          | Tensor.Value e -> Tensor.Value (substitute e)
          | Tensor.Reduce r ->
              Tensor.Reduce
                { r with Tensor.src = substitute r.Tensor.src;
                  Tensor.init = substitute r.Tensor.init }))
    stages

(* ------------------------------------------------------------------ *)
(* Leaf extents and axis-value reconstruction                           *)
(* ------------------------------------------------------------------ *)

type ctx = {
  sched : Sched.t;
  target : target_kind;
  mutable thread_loops : (Expr.var * int) list;
      (** enclosing [Thread_binding] loops, innermost first; Shared-scope
          region inference ranges over these (§4.2: "the shared task must
          compute the dependencies of all working threads in the group") *)
}

(** Realized region of an attached stage: the shrunk backing buffer,
    the per-dimension offset of the region within the original tensor,
    and the region sizes. *)
type region = { rz_buf : Expr.buffer; rz_offsets : Expr.t list; rz_sizes : int list }

(** Emit-time extents: root data-par axes may be shrunk to an inferred
    region when the stage is attached inside a consumer; extents of
    derived (split/fused) iters are recomputed accordingly. *)
let compute_extents (st : Sched.stage) (region : region option) : (int, int) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  let set iv e = Hashtbl.replace tbl iv.Iter_var.var.Expr.vid e in
  let get iv =
    match Hashtbl.find_opt tbl iv.Iter_var.var.Expr.vid with
    | Some e -> e
    | None -> fail "extent of %s unknown in stage %s" (Iter_var.name iv) st.Sched.s_name
  in
  (match region with
  | None -> List.iter (fun iv -> set iv iv.Iter_var.extent) st.Sched.s_root_axes
  | Some r -> (
      try List.iter2 set st.Sched.s_root_axes r.rz_sizes
      with Invalid_argument _ -> fail "region rank mismatch in %s" st.Sched.s_name));
  List.iter (fun iv -> set iv iv.Iter_var.extent) st.Sched.s_reduce_axes;
  List.iter
    (function
      | Sched.Split { parent; outer; inner; factor; _ } ->
          let pe = get parent in
          set outer ((pe + factor - 1) / factor);
          set inner (min factor pe)
      | Sched.Fuse { outer; inner; fused } -> set fused (get outer * get inner))
    st.Sched.s_relations;
  tbl

(** Value of every original axis variable in terms of leaf loop vars,
    plus the guard conditions required by non-exact splits. For a
    region-realized stage the root axis value is [offset + derived]. *)
let axis_values (st : Sched.stage) (extents : (int, int) Hashtbl.t)
    (region : region option) =
  let values = Hashtbl.create 16 in
  let guards = ref [] in
  let get_ext iv = Hashtbl.find extents iv.Iter_var.var.Expr.vid in
  let set iv e = Hashtbl.replace values iv.Iter_var.var.Expr.vid e in
  let get iv =
    match Hashtbl.find_opt values iv.Iter_var.var.Expr.vid with
    | Some e -> e
    | None -> fail "value of %s unknown in stage %s" (Iter_var.name iv) st.Sched.s_name
  in
  List.iter (fun iv -> set iv (Expr.Var iv.Iter_var.var)) st.Sched.s_leaf;
  List.iter
    (function
      | Sched.Split { parent; outer; inner; factor; _ } ->
          let pe = get_ext parent in
          let v = Expr.( + ) (Expr.( * ) (get outer) (Expr.int factor)) (get inner) in
          set parent v;
          if pe mod factor <> 0 then guards := Expr.( < ) v (Expr.int pe) :: !guards
      | Sched.Fuse { outer; inner; fused } ->
          let ie = get_ext inner in
          set outer (Expr.( / ) (get fused) (Expr.int ie));
          set inner (Expr.( % ) (get fused) (Expr.int ie)))
    (List.rev st.Sched.s_relations);
  (* Derived (0-based, region-local) values of the root axes. *)
  let derived =
    List.map (fun iv -> Hashtbl.find values iv.Iter_var.var.Expr.vid) st.Sched.s_root_axes
  in
  (match region with
  | None -> ()
  | Some r ->
      (* The region is a rectangular hull; slack cells can fall outside
         the original tensor. Clamp the producer's coordinates — the
         clamped cells hold unused values that no consumer reads (they
         only access true index points). *)
      List.iter2
        (fun iv off ->
          let d = Hashtbl.find values iv.Iter_var.var.Expr.vid in
          let v = Expr.( + ) off d in
          let hi = Expr.int (iv.Iter_var.extent - 1) in
          Hashtbl.replace values iv.Iter_var.var.Expr.vid
            (Expr.max_ Expr.zero (Expr.min_ v hi)))
        st.Sched.s_root_axes r.rz_offsets);
  (values, derived, !guards)

(* ------------------------------------------------------------------ *)
(* Region inference for compute_at                                      *)
(* ------------------------------------------------------------------ *)

(** Substituted body expressions of a stage: original axis variables
    replaced by their leaf-derived (global-coordinate) values. *)
let substituted_exprs (st : Sched.stage) values =
  let lookup v = Hashtbl.find_opt values v.Expr.vid in
  let s e = Visit.subst_expr lookup e in
  match st.Sched.s_body with
  | Tensor.Value e -> [ s e ]
  | Tensor.Reduce r -> [ s r.Tensor.src; s r.Tensor.init ]

(* Range of a variable while sizing a region: an [inner] var spans its
   extent, any other (outer) var is pinned to 0. *)
let inner_range inner vid =
  match List.find_opt (fun ((iv : Expr.var), _) -> iv.Expr.vid = vid) inner with
  | Some (_, extent) -> Interval.of_extent ~min:0 ~extent
  | None -> Interval.point 0

(** Region offset of index [e]: [e] minimized over the [inner] vars.
    Each inner var [e] mentions is pinned, in [inner]'s order, at the
    end of its range that gives the lower interval bound (reversed
    accesses like [k-1-ry] need the high end), with the vars pinned so
    far evaluated as points; outer vars count as 0 while deciding but
    stay symbolic. The pins are substituted in one pass. This decides
    as substituting each end and folding would (DESIGN, "Region
    inference limits"). *)
let minimize_inner ~(inner : (Expr.var * int) list) e =
  let pinned = ref [] in
  List.iter
    (fun ((v : Expr.var), extent) ->
      if Visit.mentions v e then begin
        let lo_at n =
          let env vid =
            if vid = v.Expr.vid then Some (Interval.point n)
            else
              match List.assoc_opt vid !pinned with
              | Some p -> Some (Interval.point p)
              | None -> Some (inner_range inner vid)
          in
          (Interval.eval env e).Interval.lo
        in
        let decreasing =
          try lo_at (extent - 1) < lo_at 0 with Interval.Not_analyzable _ -> false
        in
        pinned := (v.Expr.vid, if decreasing then extent - 1 else 0) :: !pinned
      end)
    inner;
  match !pinned with
  | [] -> e
  | pinned -> Visit.subst_expr (fun v -> Option.map Expr.int (List.assoc_opt v.Expr.vid pinned)) e

(** Hull of all accesses to [buf] in [exprs], splitting loop vars into
    [inner] (ranging over their extents) and outer (symbolic; pinned to
    0 for sizing). Returns (offset exprs, sizes); [None] if unused. *)
let infer_region ~(buf : Expr.buffer) ~(inner : (Expr.var * int) list) exprs =
  let loads = ref [] in
  List.iter
    (fun e ->
      Visit.fold_expr
        (fun () e ->
          match e with
          | Expr.Load (b, idx) when Expr.Buffer.equal b buf -> loads := idx :: !loads
          | _ -> ())
        () e)
    exprs;
  match !loads with
  | [] -> None
  | first :: _ as all ->
      let rank = List.length first in
      let env vid = Some (inner_range inner vid) in
      let dims =
        List.init rank (fun d ->
            let bounds =
              List.map
                (fun idx ->
                  let e = List.nth idx d in
                  try Interval.eval env e
                  with Interval.Not_analyzable msg ->
                    fail "region inference on %s: %s" buf.Expr.bname msg)
                all
            in
            let hull = List.fold_left Interval.union (List.hd bounds) (List.tl bounds) in
            let offsets =
              List.map (fun idx -> Simplify.expr (minimize_inner ~inner (List.nth idx d))) all
            in
            let offset =
              List.fold_left (fun acc o -> Expr.min_ acc o) (List.hd offsets)
                (List.tl offsets)
            in
            (offset, Interval.length hull))
      in
      Some (List.map fst dims, List.map snd dims)

(* ------------------------------------------------------------------ *)
(* Tensorize                                                            *)
(* ------------------------------------------------------------------ *)

(** Verify the sub-nest rooted at the tensorized leaf matches the
    intrinsic's declared shapes, and compute the base indices of each
    region operand (tensorized loop vars pinned to 0). *)
let match_intrinsic (st : Sched.stage) (intrin : Tensor_intrin.t)
    ~(tensorized : Iter_var.t list) ~extents values =
  let data_leaves = List.filter (fun iv -> not (Iter_var.is_reduce iv)) tensorized in
  let red_leaves = List.filter Iter_var.is_reduce tensorized in
  let ext iv = Hashtbl.find extents iv.Iter_var.var.Expr.vid in
  let got_out = List.map ext data_leaves in
  if got_out <> intrin.Tensor_intrin.output_shape then
    fail "tensorize %s in %s: output region %s does not match intrinsic %s"
      intrin.Tensor_intrin.name st.Sched.s_name
      (String.concat "x" (List.map string_of_int got_out))
      (String.concat "x" (List.map string_of_int intrin.Tensor_intrin.output_shape));
  let got_red = List.map ext red_leaves in
  if got_red <> intrin.Tensor_intrin.reduce_extents then
    fail "tensorize %s in %s: reduction extents %s do not match intrinsic %s"
      intrin.Tensor_intrin.name st.Sched.s_name
      (String.concat "x" (List.map string_of_int got_red))
      (String.concat "x" (List.map string_of_int intrin.Tensor_intrin.reduce_extents));
  let zero_tensorized v =
    if List.exists (fun iv -> Expr.Var.equal iv.Iter_var.var v) tensorized then
      Some Expr.zero
    else None
  in
  let base idx = List.map (fun e -> Simplify.expr (Visit.subst_expr zero_tensorized e)) idx in
  (* Input regions: loads in the source expression, in order of
     appearance, one per declared input. *)
  let src =
    match st.Sched.s_body with
    | Tensor.Reduce r -> r.Tensor.src
    | Tensor.Value e -> e
  in
  let lookup v = Hashtbl.find_opt values v.Expr.vid in
  let src = Visit.subst_expr lookup src in
  let loads = ref [] in
  Visit.fold_expr
    (fun () e ->
      match e with Expr.Load (b, idx) -> loads := (b, idx) :: !loads | _ -> ())
    () src;
  let loads = List.rev !loads in
  if List.length loads <> List.length intrin.Tensor_intrin.input_shapes then
    fail "tensorize %s in %s: %d operand loads, intrinsic declares %d inputs"
      intrin.Tensor_intrin.name st.Sched.s_name (List.length loads)
      (List.length intrin.Tensor_intrin.input_shapes);
  let inputs = List.map (fun (b, idx) -> (b, base idx)) loads in
  let out_base =
    List.map
      (fun iv ->
        let v = Hashtbl.find values iv.Iter_var.var.Expr.vid in
        Simplify.expr (Visit.subst_expr zero_tensorized v))
      st.Sched.s_root_axes
  in
  (inputs, out_base)

(* ------------------------------------------------------------------ *)
(* DMA rewriting                                                        *)
(* ------------------------------------------------------------------ *)

(** A stage is a DMA candidate if its body is a pure identity copy and
    one endpoint lives in an accelerator scope. Returns the source. *)
let dma_candidate ctx (st : Sched.stage) =
  if ctx.target <> Accel then None
  else
    match st.Sched.s_body with
    | Tensor.Value (Expr.Load (src, idx)) ->
        let axes_ok =
          List.length idx = List.length st.Sched.s_root_axes
          && List.for_all2
               (fun e iv ->
                 match e with
                 | Expr.Var v -> Expr.Var.equal v iv.Iter_var.var
                 | _ -> false)
               idx st.Sched.s_root_axes
        in
        if
          axes_ok
          && (Expr.is_accel_scope src.Expr.bscope
             || Expr.is_accel_scope st.Sched.s_out.Expr.bscope)
        then Some src
        else None
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Stage emission                                                       *)
(* ------------------------------------------------------------------ *)

let rec emit_stage ctx (st : Sched.stage) ~(region : region option) : Stmt.t =
  let extents = compute_extents st region in
  let values, derived, guards = axis_values st extents region in
  let out_buf, store_indices =
    match region with
    | None -> (st.Sched.s_out, derived)
    | Some r -> (r.rz_buf, derived)
  in
  let lookup v = Hashtbl.find_opt values v.Expr.vid in
  let subst e = Visit.subst_expr lookup e in
  (* The init nest omits reduction loops, so guards mentioning
     reduce-derived loop vars do not apply (their vars are unbound). *)
  let reduce_leaf_vars =
    List.filter_map
      (fun iv -> if Iter_var.is_reduce iv then Some iv.Iter_var.var else None)
      st.Sched.s_leaf
  in
  let guard_with gs body =
    match gs with
    | [] -> body
    | g :: rest -> Stmt.If_then_else (List.fold_left Expr.and_ g rest, body, None)
  in
  let guard body = guard_with guards body in
  let init_guards =
    List.filter
      (fun g ->
        not
          (List.exists
             (fun fv -> List.exists (Expr.Var.equal fv) reduce_leaf_vars)
             (Visit.free_vars g)))
      guards
  in
  let guard_init body = guard_with init_guards body in
  match dma_candidate ctx st with
  | Some src when guards = [] && st.Sched.s_relations = [] ->
      (* Whole stage becomes one DMA per emission. *)
      let src_base =
        match region with
        | Some r -> r.rz_offsets
        | None -> List.map (fun _ -> Expr.zero) st.Sched.s_root_axes
      in
      let sizes =
        match region with
        | Some r -> r.rz_sizes
        | None -> List.map (fun iv -> iv.Iter_var.extent) st.Sched.s_root_axes
      in
      Stmt.Dma_copy
        { Stmt.dma_src = src; dma_src_base = src_base; dma_dst = out_buf;
          dma_dst_base = List.map (fun _ -> Expr.zero) sizes; dma_extents = sizes }
  | Some _ | None ->
      (* Split leaves at the first reduction leaf: loops before it wrap
         both the init and update nests (Fig 5's placement of C[..]=0). *)
      let rec split_prefix acc = function
        | [] -> (List.rev acc, [])
        | iv :: rest when Iter_var.is_reduce iv -> (List.rev acc, iv :: rest)
        | iv :: rest -> split_prefix (iv :: acc) rest
      in
      let prefix, rest = split_prefix [] st.Sched.s_leaf in
      let tensorize_info =
        match st.Sched.s_tensorize with
        | None -> None
        | Some (iv, intrin) ->
            let pos = Sched.leaf_pos st iv in
            let tensorized = List.filteri (fun i _ -> i >= pos) st.Sched.s_leaf in
            let has_outer_reduce =
              List.exists
                (fun l ->
                  Iter_var.is_reduce l && not (List.exists (Iter_var.equal l) tensorized))
                st.Sched.s_leaf
            in
            if has_outer_reduce && not intrin.Tensor_intrin.has_reduce_update then
              fail "tensorize %s: intrinsic lacks reset/update variants"
                intrin.Tensor_intrin.name;
            let inputs, out_base = match_intrinsic st intrin ~tensorized ~extents values in
            (* Output base is region-local when realized. *)
            let out_base =
              match region with
              | None -> out_base
              | Some r ->
                  List.map2
                    (fun b off -> Simplify.expr (Expr.( - ) b off))
                    out_base r.rz_offsets
            in
            Some (pos, intrin, inputs, (out_buf, out_base), has_outer_reduce)
      in
      let is_tensorized_leaf iv =
        match tensorize_info with
        | None -> false
        | Some (pos, _, _, _, _) -> Sched.leaf_pos st iv >= pos
      in
      let init_store, update_store =
        match tensorize_info with
        | Some (_, intrin, inputs, out, has_outer_reduce) ->
            let call ?(with_inputs = true) variant =
              Stmt.Call_intrin
                { Stmt.intrin_name = intrin.Tensor_intrin.name; variant;
                  inputs = (if with_inputs then inputs else []); output = out }
            in
            (* The reset variant only zeroes the accumulator; it must not
               reference the operand SRAM regions (they are not live in
               the init nest). *)
            if has_outer_reduce then (Some (call ~with_inputs:false "reset"), call "update")
            else (None, call "body")
        | None -> (
            match st.Sched.s_body with
            | Tensor.Value e -> (None, Stmt.Store (out_buf, store_indices, subst e))
            | Tensor.Reduce r ->
                let acc = Expr.Load (out_buf, store_indices) in
                let combined =
                  Tensor.apply_combiner r.Tensor.comb acc (subst r.Tensor.src)
                in
                ( Some (Stmt.Store (out_buf, store_indices, subst r.Tensor.init)),
                  Stmt.Store (out_buf, store_indices, combined) ))
      in
      let rec build_nest leaves ~emit_attach ~skip_reduce inner_stmt =
        match leaves with
        | [] -> inner_stmt
        | iv :: rest_leaves ->
            if is_tensorized_leaf iv then inner_stmt
            else if skip_reduce && Iter_var.is_reduce iv then
              build_nest rest_leaves ~emit_attach ~skip_reduce inner_stmt
            else begin
              let kind =
                match Sched.ann_of st iv with Some k -> k | None -> Stmt.Serial
              in
              let extent = Hashtbl.find extents iv.Iter_var.var.Expr.vid in
              let is_thread =
                (* Only threadIdx.* loops form the cooperating group;
                   blockIdx.* loops do not share memory. *)
                match kind with
                | Stmt.Thread_binding tag ->
                    String.length tag >= 9 && String.sub tag 0 9 = "threadIdx"
                | _ -> false
              in
              if is_thread then
                ctx.thread_loops <- (iv.Iter_var.var, extent) :: ctx.thread_loops;
              let body = build_nest rest_leaves ~emit_attach ~skip_reduce inner_stmt in
              let body =
                if emit_attach then
                  let attached = Sched.attached_at ctx.sched st iv in
                  List.fold_right
                    (fun sub acc ->
                      emit_attached ctx ~consumer:st ~consumer_values:values
                        ~consumer_extents:extents ~level:iv sub acc)
                    attached body
                else body
              in
              if is_thread then ctx.thread_loops <- List.tl ctx.thread_loops;
              Stmt.for_ ~kind iv.Iter_var.var Expr.zero (Expr.int extent) body
            end
      in
      let core =
        match init_store with
        | None -> build_nest rest ~emit_attach:true ~skip_reduce:false (guard update_store)
        | Some init ->
            let init_nest =
              build_nest rest ~emit_attach:false ~skip_reduce:true (guard_init init)
            in
            let update_nest =
              build_nest rest ~emit_attach:true ~skip_reduce:false (guard update_store)
            in
            Stmt.seq [ init_nest; update_nest ]
      in
      build_nest prefix ~emit_attach:true ~skip_reduce:false core

(** Emit a producer stage attached at [consumer]'s loop [level]: infer
    the region the consumer needs, emit the producer into a shrunk
    buffer, retarget the consumer's accesses, allocate. *)
and emit_attached ctx ~consumer ~consumer_values ~consumer_extents ~level sub
    continuation =
  let pos = Sched.leaf_pos consumer level in
  let inner =
    List.filteri (fun i _ -> i > pos) consumer.Sched.s_leaf
    |> List.map (fun iv ->
           (iv.Iter_var.var, Hashtbl.find consumer_extents iv.Iter_var.var.Expr.vid))
  in
  (* Shared-scope producers are filled cooperatively: their region spans
     every thread of the group, so enclosing thread-bound loop vars
     range as well (§4.2). *)
  let inner =
    if sub.Sched.s_out.Expr.bscope = Expr.Shared then
      inner
      @ List.filter
          (fun (v, _) -> not (List.exists (fun (v', _) -> Expr.Var.equal v v') inner))
          ctx.thread_loops
    else inner
  in
  let exprs = substituted_exprs consumer consumer_values in
  match infer_region ~buf:sub.Sched.s_out ~inner exprs with
  | None -> continuation
  | Some (offsets, sizes) ->
      let rz_buf =
        Expr.Buffer.create ~scope:sub.Sched.s_out.Expr.bscope
          ~dtype:sub.Sched.s_out.Expr.bdtype sub.Sched.s_out.Expr.bname
          (List.map Expr.int sizes)
      in
      let region = { rz_buf; rz_offsets = offsets; rz_sizes = sizes } in
      let producer_nest = emit_stage ctx sub ~region:(Some region) in
      let producer_nest =
        if sub.Sched.s_out.Expr.bscope = Expr.Shared then
          Stmt.seq [ producer_nest; Stmt.Barrier ]
        else producer_nest
      in
      (* The continuation (consumer's inner loops and deeper statements)
         still reads the original full buffer: retarget into the region. *)
      let continuation =
        Visit.retarget_buffer ~old_b:sub.Sched.s_out ~new_b:rz_buf
          ~remap:(fun idx ->
            List.map2 (fun i off -> Simplify.expr (Expr.( - ) i off)) idx offsets)
          continuation
      in
      Stmt.Allocate (rz_buf, Stmt.seq [ producer_nest; continuation ])

(* ------------------------------------------------------------------ *)
(* Program assembly                                                     *)
(* ------------------------------------------------------------------ *)

(** Lower a schedule to a loop program for the given target. *)
let lower ?(target = Cpu) (sched : Sched.t) : Stmt.t =
  inline_into_consumers sched.Sched.stages;
  let ctx = { sched; target; thread_loops = [] } in
  let rec emit_roots = function
    | [] -> Stmt.Skip
    | st :: rest ->
        if not (Sched.is_root_stage st) then emit_roots rest
        else
          let nest = emit_stage ctx st ~region:None in
          let after = emit_roots rest in
          if st.Sched.s_is_output then Stmt.seq [ nest; after ]
          else Stmt.Allocate (st.Sched.s_out, Stmt.seq [ nest; after ])
  in
  let body = emit_roots sched.Sched.stages in
  Simplify.stmt body
