(** Static analysis of lowered loop programs.

    {!program} walks a program once and returns the structural facts
    that both the analytical timing models ({!Tvm_sim}) and the ML cost
    model's feature extractor ({!Tvm_autotune.Feature}) read: every
    load/store site with its loop stack and execution count, total
    arithmetic, every loop and barrier site with its enclosing loops,
    the allocated buffers and the stored dtypes. The helpers below it
    derive per-access memory footprints at every loop level (the
    "touched memory size" feature of Fig 13) and access strides. Each
    consumer derives its own policy quantities from the record. *)

type loop_info = {
  lvar : Expr.var;
  lmin : Expr.t;
  lextent : int;
  lkind : Stmt.for_kind;
}

(** One load or store site, together with its enclosing loop stack
    (outermost first) and total execution count. *)
type access = {
  acc_buffer : Expr.buffer;
  acc_is_store : bool;
  acc_indices : Expr.t list;  (** let-bindings already substituted *)
  acc_loops : loop_info list;
  acc_count : int;
  acc_weight : float;
      (** execution probability: loads under [select] branches execute
          on a fraction of iterations (1 outside selects; then-branches
          weighted 3/4, else-branches 1/4 per level) *)
  acc_value_flops : float;
      (** for stores: arithmetic in the stored value per execution *)
}

exception Non_constant_extent of string

(* ------------------------------------------------------------------ *)
(* The one walk                                                        *)
(* ------------------------------------------------------------------ *)

(* Per-domain memo: [expr_flops] is pure and structural, so the count
   of a hash-consed (physically shared) subtree is computed once per
   domain. Bounded like the other pass memos. *)
let flops_memo_limit = 1 lsl 16
let flops_memo_key = Domain.DLS.new_key (fun () -> Expr.Phys.create 1024)

let rec expr_flops (e : Expr.t) =
  match e with
  | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ -> 0.
  | Expr.Load (_, _) ->
      (* Address computation is loop/index overhead, not arithmetic
         throughput; the timing models price it separately. *)
      0.
  | _ -> (
      let memo = Domain.DLS.get flops_memo_key in
      match Expr.Phys.find_opt memo e with
      | Some n -> n
      | None ->
          let n =
            match e with
            | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ | Expr.Load _ -> 0.
            | Expr.Binop (_, a, b) -> 1. +. expr_flops a +. expr_flops b
            | Expr.Cmp (_, a, b) ->
                (* Predicates (padding guards) compile to flags/masks
                   hoisted out of the arithmetic pipe; not arithmetic
                   throughput. *)
                expr_flops a +. expr_flops b
            | Expr.And (a, b) | Expr.Or (a, b) -> expr_flops a +. expr_flops b
            | Expr.Not a | Expr.Cast (_, a) -> expr_flops a
            | Expr.Select (_, t, f) -> Float.max (expr_flops t) (expr_flops f)
            | Expr.Call (_, args) ->
                (* Transcendental intrinsics priced as several flops. *)
                8. +. List.fold_left (fun acc a -> acc +. expr_flops a) 0. args
          in
          if Expr.Phys.length memo >= flops_memo_limit then Expr.Phys.reset memo;
          Expr.Phys.add memo e n;
          n)

(** One loop site: the loop's kind, its extent as written (before
    let-substitution), and its enclosing loops, innermost first. *)
type loop_site = {
  site_kind : Stmt.for_kind;
  site_extent : Expr.t;
  site_outer : loop_site list;
}

(** Everything {!program} reads off one walk. Lists are in program
    (pre-)order. When some loop extent is not constant after
    let-substitution, [non_constant] names the first one, [accesses] is
    empty and [flops] is 0; the other facts are still complete. *)
type program = {
  accesses : access list;
  flops : float;
      (** arithmetic executed by the whole program; index arithmetic is
          excluded (loop overhead, priced separately by the models) *)
  loops : loop_site list;
  barriers : loop_site list list;
      (** enclosing loops of each barrier, innermost first *)
  allocs : Expr.buffer list;
  stored_dtypes : Dtype.t list;  (** dtype of each [Store]'s buffer *)
  non_constant : string option;
}

(** Walk [stmt] once. Tensorized intrinsic calls are priced by
    [intrin_flops name]. *)
let program ~intrin_flops (stmt : Stmt.t) : program =
  let accesses = ref [] and flops = ref 0. and sites_seen = ref [] and barriers = ref []
  and allocs = ref [] and stored = ref [] and non_constant = ref None in
  let record ?(weight = 1.) ?(value_flops = 0.) loops subst buffer is_store indices =
    let indices = List.map (Visit.subst_expr subst) indices in
    let count = List.fold_left (fun acc l -> acc * l.lextent) 1 loops in
    accesses :=
      { acc_buffer = buffer; acc_is_store = is_store; acc_indices = indices;
        acc_loops = loops; acc_count = count; acc_weight = weight;
        acc_value_flops = value_flops }
      :: !accesses
  in
  let record_expr loops subst e =
    let rec walk weight (e : Expr.t) =
      match e with
      | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ -> ()
      | Expr.Binop (_, a, b) | Expr.Cmp (_, a, b) | Expr.And (a, b) | Expr.Or (a, b) ->
          walk weight a;
          walk weight b
      | Expr.Not a | Expr.Cast (_, a) -> walk weight a
      | Expr.Select (c, t, f) ->
          walk weight c;
          walk (weight *. 0.75) t;
          walk (weight *. 0.25) f
      | Expr.Load (b, idx) ->
          record ~weight loops subst b false idx;
          List.iter (walk weight) idx
      | Expr.Call (_, args) -> List.iter (walk weight) args
    in
    walk 1. e
  in
  (* [loops]: substituted loop stack; [sites]: raw loop sites; [mult]:
     trip count of the enclosing loops. *)
  let rec walk loops sites mult (subst : Expr.var -> Expr.t option) s =
    match s with
    | Stmt.Store (b, idx, v) ->
        let value_flops = expr_flops v in
        flops := !flops +. (mult *. value_flops);
        stored := b.Expr.bdtype :: !stored;
        record ~value_flops loops subst b true idx;
        record_expr loops subst v;
        List.iter (record_expr loops subst) idx
    | Stmt.For l ->
        let site =
          { site_kind = l.Stmt.kind; site_extent = l.Stmt.extent; site_outer = sites }
        in
        sites_seen := site :: !sites_seen;
        let e = Visit.subst_expr subst l.Stmt.extent in
        let extent =
          match Interval.const_of_expr e with
          | Some n -> n
          | None ->
              if !non_constant = None then non_constant := Some (Printer.expr_to_string e);
              0
        in
        let info =
          { lvar = l.Stmt.loop_var; lmin = Visit.subst_expr subst l.Stmt.min_;
            lextent = extent; lkind = l.Stmt.kind }
        in
        walk (loops @ [ info ]) (site :: sites) (mult *. float_of_int extent) subst
          l.Stmt.body
    | Stmt.If_then_else (c, t, e) ->
        record_expr loops subst c;
        walk loops sites mult subst t;
        Option.iter (walk loops sites mult subst) e
    | Stmt.Let_stmt (v, e, b) ->
        record_expr loops subst e;
        let e' = Visit.subst_expr subst e in
        let subst' v' = if Expr.Var.equal v v' then Some e' else subst v' in
        walk loops sites mult subst' b
    | Stmt.Seq ss -> List.iter (walk loops sites mult subst) ss
    | Stmt.Allocate (b, body) ->
        allocs := b :: !allocs;
        walk loops sites mult subst body
    | Stmt.Evaluate e ->
        flops := !flops +. (mult *. expr_flops e);
        record_expr loops subst e
    | Stmt.Call_intrin ic ->
        flops := !flops +. (mult *. intrin_flops ic.Stmt.intrin_name);
        List.iter (fun (b, idx) -> record loops subst b false idx) ic.Stmt.inputs;
        let ob, oidx = ic.Stmt.output in
        record loops subst ob true oidx
    | Stmt.Dma_copy d ->
        record loops subst d.Stmt.dma_src false d.Stmt.dma_src_base;
        record loops subst d.Stmt.dma_dst true d.Stmt.dma_dst_base
    | Stmt.Barrier -> barriers := sites :: !barriers
    | Stmt.Push_dep _ | Stmt.Pop_dep _ | Stmt.Skip -> ()
  in
  walk [] [] 1. (fun _ -> None) stmt;
  let constant = !non_constant = None in
  { accesses = (if constant then List.rev !accesses else []);
    flops = (if constant then !flops else 0.);
    loops = List.rev !sites_seen; barriers = List.rev !barriers; allocs = List.rev !allocs;
    stored_dtypes = List.rev !stored; non_constant = !non_constant }

(** The accesses of a program whose loop extents are all constant.
    Raises [Non_constant_extent] otherwise. *)
let accesses_exn p =
  match p.non_constant with
  | Some e -> raise (Non_constant_extent e)
  | None -> p.accesses

(** Bytes allocated in [scope], summed in program order. *)
let alloc_bytes p scope =
  List.fold_left
    (fun acc b -> if b.Expr.bscope = scope then acc +. Expr.Buffer.size_bytes b else acc)
    0. p.allocs

(* ------------------------------------------------------------------ *)
(* Footprints and strides                                              *)
(* ------------------------------------------------------------------ *)

(** Interval environment treating loops at depth >= [level] as full
    ranges and outer loops as fixed at their minimum. *)
let env_at_level access level =
  List.mapi
    (fun depth l ->
      let min_lo =
        match Interval.const_of_expr l.lmin with Some n -> n | None -> 0
      in
      let itv =
        if depth >= level then Interval.of_extent ~min:min_lo ~extent:l.lextent
        else Interval.point min_lo
      in
      (l.lvar, itv))
    access.acc_loops

(** Number of distinct elements of the buffer touched by the iterations
    of the loops at depth >= [level], outer loops held fixed. Level 0
    is the whole-statement footprint; level = depth(loops) is a single
    access. Conservative (rectangular hull) for non-affine indices. *)
let footprint_at_level access level =
  let env = env_at_level access level in
  try
    List.fold_left
      (fun acc idx -> acc * Interval.length (Interval.eval_under env idx))
      1 access.acc_indices
  with Interval.Not_analyzable _ ->
    (* Fall back: the whole buffer. *)
    (try Expr.Buffer.num_elems access.acc_buffer with _ -> 1)

let footprint_bytes_at_level access level =
  float_of_int (footprint_at_level access level)
  *. Dtype.bytes access.acc_buffer.Expr.bdtype

(** d(flattened index)/d(var): how far apart in memory are two accesses
    that differ by one in [var]? [None] when not constant (non-affine).
    Other loop vars are held at their minimum. *)
let stride_wrt access (v : Expr.var) =
  let shape =
    try Expr.Buffer.const_shape access.acc_buffer with _ -> []
  in
  if shape = [] || List.length shape <> List.length access.acc_indices then None
  else
    let row_strides =
      (* row-major strides *)
      let rec build = function
        | [] -> []
        | _ :: rest -> List.fold_left ( * ) 1 rest :: build rest
      in
      build shape
    in
    let flat_at value =
      let env =
        List.map
          (fun l ->
            let m = match Interval.const_of_expr l.lmin with Some n -> n | None -> 0 in
            if Expr.Var.equal l.lvar v then (l.lvar, Interval.point value)
            else (l.lvar, Interval.point m))
          access.acc_loops
      in
      try
        let components =
          List.map2
            (fun idx stride ->
              let itv = Interval.eval_under env idx in
              if itv.Interval.lo = itv.Interval.hi then itv.Interval.lo * stride
              else raise (Interval.Not_analyzable "range"))
            access.acc_indices row_strides
        in
        Some (List.fold_left ( + ) 0 components)
      with Interval.Not_analyzable _ -> None
    in
    match (flat_at 0, flat_at 1) with
    | Some a, Some b -> Some (b - a)
    | _ -> None

(** Innermost loop enclosing the access, if any. *)
let innermost_loop access =
  match List.rev access.acc_loops with [] -> None | l :: _ -> Some l

(** Whether the access is unit-stride with respect to the innermost
    enclosing loop — the property that makes vectorization and GPU
    memory coalescing effective. *)
let is_unit_stride_innermost access =
  match innermost_loop access with
  | None -> true
  | Some l -> ( match stride_wrt access l.lvar with Some s -> abs s <= 1 | None -> false)
