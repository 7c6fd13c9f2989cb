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
  mutable acc_compiled : compiled option;
      (** the indices compiled against the loop stack, with the
          footprint memo; filled on the first footprint or stride
          query (see {!compiled}) *)
}

(** Skeleton of one index expression, read against per-depth loop
    tables. A [Leaf] is a maximal subtree of [IntImm], bound [Var], [+],
    [-] and [*] with one var-free side (casts are transparent): a
    constant plus one coefficient per occurrence of a loop variable.
    Occurrences of one variable are never merged, so a leaf is interval
    arithmetic's answer ([x - x] spans twice the range), not the affine
    form's. Every other node keeps {!Interval.eval}'s semantics. *)
and skel =
  | Leaf of int array  (** [[|c; k1; d1; k2; d2; ...|]]: c + k1·loop(d1) + ... *)
  | Op of Expr.binop * skel * skel
  | Union of skel * skel  (** [select]: both branches *)
  | Bool  (** a comparison or logical connective: [0,1] *)
  | Fail of string  (** raises [Interval.Not_analyzable] *)
  | Walk of int array * Expr.t
      (** a whole index of an access the skeletons do not cover (see
          {!compile}), walked by {!Interval.eval} with each var bound at
          its innermost depth in the given var-id table *)

(** An access's indices compiled once, outermost loop first. The loop
    tables hold each depth's var id, constant minimum (0 when not
    constant) and extent. The memo and this record are mutated without
    a lock: an access is built and read by one {!program} call, on the
    domain that made it. *)
and compiled = {
  vids : int array;
  mins : int array;
  exts : int array;
  skels : skel list;
  row_strides : int list option;
      (** row-major strides of a constant-shape buffer indexed by
          exactly its rank, for {!stride_wrt} *)
  footprints : int array;
      (** {!footprint_at_level} per level 0..depth; [min_int] is
          unfilled *)
}

exception Non_constant_extent of string

(* ------------------------------------------------------------------ *)
(* The one walk                                                        *)
(* ------------------------------------------------------------------ *)

(* Arithmetic of one node, its children counted by [go st]. *)
let node_flops go st (e : Expr.t) =
  match e with
  | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ -> 0.
  | Expr.Load (_, _) ->
      (* Address computation is loop/index overhead, not arithmetic
         throughput; the timing models price it separately. *)
      0.
  | Expr.Binop (_, a, b) -> 1. +. go st a +. go st b
  | Expr.Cmp (_, a, b) ->
      (* Predicates (padding guards) compile to flags/masks hoisted out
         of the arithmetic pipe; not arithmetic throughput. *)
      go st a +. go st b
  | Expr.And (a, b) | Expr.Or (a, b) -> go st a +. go st b
  | Expr.Not a | Expr.Cast (_, a) -> go st a
  | Expr.Select (_, t, f) -> Float.max (go st t) (go st f)
  | Expr.Call (_, args) ->
      (* Transcendental intrinsics priced as several flops. *)
      8. +. List.fold_left (fun acc a -> acc +. go st a) 0. args

(* Plain recursion, counting composite nodes down from [left]. *)
let rec direct_flops left (e : Expr.t) =
  match e with
  | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ | Expr.Load _ -> 0.
  | _ ->
      decr left;
      if !left < 0 then raise_notrace Expr.Memo.Over_limit;
      node_flops direct_flops left e

(* The over-limit fallback: a memo counts each physically distinct
   composite node once for one call. *)
let shared_flops (e : Expr.t) =
  let memo = Expr.Memo.create 16 in
  let rec go () (e : Expr.t) =
    match e with
    | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ | Expr.Load _ -> 0.
    | _ -> Expr.Memo.memo memo (node_flops go ()) e
  in
  go () e

(** Arithmetic in one evaluation of [e]. An expression past
    {!Expr.Memo.direct_limit} composite nodes is counted with each
    physically distinct subtree visited once, so a shared DAG costs
    time linear in its node count. A memo kept across calls would not
    pay: on the tuner's programs it hit under 0.3% of its probes, and
    none within one program. *)
let expr_flops e =
  try direct_flops (ref Expr.Memo.direct_limit) e with Expr.Memo.Over_limit -> shared_flops e

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
  (* [subst]: the enclosing let-bindings, innermost first. With none, a
     substitution would return its input itself, so it is skipped. *)
  let substitute subst e =
    match subst with
    | [] -> e
    | _ -> Visit.subst_expr (fun (v : Expr.var) -> List.assoc_opt v.Expr.vid subst) e
  in
  let record ?(weight = 1.) ?(value_flops = 0.) loops subst buffer is_store indices =
    let indices = List.map (substitute subst) indices in
    let count = List.fold_left (fun acc l -> acc * l.lextent) 1 loops in
    accesses :=
      { acc_buffer = buffer; acc_is_store = is_store; acc_indices = indices;
        acc_loops = loops; acc_count = count; acc_weight = weight;
        acc_value_flops = value_flops; acc_compiled = None }
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
  let rec walk loops sites mult subst s =
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
        let e = substitute subst l.Stmt.extent in
        let extent =
          match Interval.const_of_expr e with
          | Some n -> n
          | None ->
              if !non_constant = None then non_constant := Some (Printer.expr_to_string e);
              0
        in
        let info =
          { lvar = l.Stmt.loop_var; lmin = substitute subst l.Stmt.min_;
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
        walk loops sites mult ((v.Expr.vid, substitute subst e) :: subst) b
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
  walk [] [] 1. [] stmt;
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

(* A leaf equals interval arithmetic when every loop range is
   non-empty and nothing overflows. [leaf_bound] caps, at every node of
   a leaf, a bound on its coefficient and constant magnitudes summed,
   and [value_bound] every loop bound, so each partial sum stays under
   2^61 in the leaf and in the walk it replaces. *)
let leaf_bound = 1 lsl 31
let value_bound = 1 lsl 30

exception Inexact

let weighed w vars = if w > leaf_bound then raise Inexact else (w lsl 1) lor vars

(* -1 when [e] is not a leaf; otherwise twice the bound on its summed
   magnitudes, plus 1 when it mentions a loop variable. [depth_of vid]
   is the innermost depth binding [vid] (when a var is bound at several
   depths, the innermost binding wins), or -1. Raises [Inexact] past
   [leaf_bound]. *)
let rec leaf_weight depth_of (e : Expr.t) =
  match e with
  | Expr.IntImm n -> if n < -leaf_bound then raise Inexact else weighed (abs n) 0
  | Expr.Var v -> if depth_of v.Expr.vid >= 0 then 3 else -1
  | Expr.Cast (_, a) -> leaf_weight depth_of a
  | Expr.Binop (((Expr.Add | Expr.Sub | Expr.Mul) as op), a, b) ->
      let ra = leaf_weight depth_of a in
      let rb = if ra < 0 then -1 else leaf_weight depth_of b in
      if rb < 0 then -1
      else
        let wa = ra lsr 1 and wb = rb lsr 1 and vars = (ra lor rb) land 1 in
        if op <> Expr.Mul then weighed (wa + wb) vars
        else if ra land rb land 1 = 1 then -1
        else if wa > 0 && wb > leaf_bound / wa then raise Inexact
        else weighed (wa * wb) vars
  | _ -> -1

let rec var_count (e : Expr.t) =
  match e with
  | Expr.Var _ -> 1
  | Expr.Cast (_, a) -> var_count a
  | Expr.Binop (_, a, b) -> var_count a + var_count b
  | _ -> 0

(* Write [k] times the leaf [e] into [t] as (coef, depth) pairs from
   [!pos] on, returning the constant added (for a var-free [e], its
   value times [k]). Coefficients are products of the constants on the
   path; they are exact, wrapped or not, because the true ones are
   within [leaf_bound]. *)
let rec fill depth_of t pos k (e : Expr.t) =
  match e with
  | Expr.IntImm n -> k * n
  | Expr.Var v ->
      t.(!pos) <- k;
      t.(!pos + 1) <- depth_of v.Expr.vid;
      pos := !pos + 2;
      0
  | Expr.Cast (_, a) -> fill depth_of t pos k a
  | Expr.Binop (Expr.Add, a, b) ->
      let c = fill depth_of t pos k a in
      c + fill depth_of t pos k b
  | Expr.Binop (Expr.Sub, a, b) ->
      let c = fill depth_of t pos k a in
      c + fill depth_of t pos (-k) b
  | Expr.Binop (Expr.Mul, a, b) ->
      if var_count b = 0 then fill depth_of t pos (k * fill depth_of t pos 1 b) a
      else fill depth_of t pos (k * fill depth_of t pos 1 a) b
  | _ -> invalid_arg "Analysis.fill"

(* The two commonest leaves, a constant and a lone variable (about
   four in five of all leaves compiled in tuning), are built without
   walking them. *)
let rec compile_index depth_of (e : Expr.t) =
  match e with
  | Expr.IntImm n when n <= leaf_bound && n >= -leaf_bound -> Leaf [| n |]
  | Expr.Var v when depth_of v.Expr.vid >= 0 -> Leaf [| 0; 1; depth_of v.Expr.vid |]
  | _ when leaf_weight depth_of e >= 0 ->
      let t = Array.make (1 + (2 * var_count e)) 0 in
      t.(0) <- fill depth_of t (ref 1) 1 e;
      Leaf t
  | Expr.Var v -> Fail ("unbound var " ^ v.Expr.vname)
  | Expr.FloatImm _ -> Fail "float in index"
  | Expr.Load _ -> Fail "load in index"
  | Expr.Call (n, _) -> Fail ("call " ^ n ^ " in index")
  | Expr.Cmp _ | Expr.And _ | Expr.Or _ | Expr.Not _ -> Bool
  | Expr.Cast (_, a) -> compile_index depth_of a
  | Expr.Select (_, t, f) -> Union (compile_index depth_of t, compile_index depth_of f)
  | Expr.Binop (op, a, b) -> Op (op, compile_index depth_of a, compile_index depth_of b)
  | Expr.IntImm _ -> assert false (* past [leaf_bound], [leaf_weight] raised *)

(* [Interval.eval]'s environment with depth [d] ranging over
   [lo.(d)..hi.(d)], the innermost depth binding each var id. *)
let walk_env vids lo hi vid =
  let rec find d =
    if d < 0 then None
    else if vids.(d) = vid then Some { Interval.lo = lo.(d); hi = hi.(d) }
    else find (d - 1)
  in
  find (Array.length vids - 1)

let rec eval_skel lo hi = function
  | Leaf t ->
      let a = ref t.(0) and b = ref t.(0) in
      for i = 0 to (Array.length t / 2) - 1 do
        let k = t.((2 * i) + 1) and d = t.((2 * i) + 2) in
        if k >= 0 then begin
          a := !a + (k * lo.(d));
          b := !b + (k * hi.(d))
        end
        else begin
          a := !a + (k * hi.(d));
          b := !b + (k * lo.(d))
        end
      done;
      { Interval.lo = !a; hi = !b }
  | Op (op, x, y) -> (
      let ix = eval_skel lo hi x and iy = eval_skel lo hi y in
      match op with
      | Expr.Add -> Interval.add ix iy
      | Expr.Sub -> Interval.sub ix iy
      | Expr.Mul -> Interval.mul ix iy
      | Expr.Div -> Interval.div ix iy
      | Expr.FloorMod -> Interval.modulo ix iy
      | Expr.Min -> Interval.min_ ix iy
      | Expr.Max -> Interval.max_ ix iy)
  | Union (x, y) -> Interval.union (eval_skel lo hi x) (eval_skel lo hi y)
  | Bool -> { Interval.lo = 0; hi = 1 }
  | Fail msg -> raise (Interval.Not_analyzable msg)
  | Walk (vids, e) -> Interval.eval (walk_env vids lo hi) e

exception Not_point

(* [eval_skel at at s] as an int, for a skeleton none of whose nodes
   widens to a range: interval arithmetic on points is the point
   arithmetic below. Raises [Not_point] at a [select] of two values or
   a comparison, and [Not_analyzable] only where [eval_skel] would.
   Unlike [eval_skel], it allocates nothing per node; strides read
   every index through it. *)
let rec eval_point at = function
  | Leaf t ->
      let a = ref t.(0) in
      for i = 0 to (Array.length t / 2) - 1 do
        a := !a + (t.((2 * i) + 1) * at.(t.((2 * i) + 2)))
      done;
      !a
  | Op (op, x, y) -> (
      let a = eval_point at x and b = eval_point at y in
      match op with
      | Expr.Add -> a + b
      | Expr.Sub -> a - b
      | Expr.Mul -> a * b
      | Expr.Div | Expr.FloorMod ->
          if b <= 0 then raise (Interval.Not_analyzable "non-constant or non-positive divisor")
          else if op = Expr.Div then Interval.fdiv a b
          else Interval.fmod a b
      | Expr.Min -> min a b
      | Expr.Max -> max a b)
  | Union (x, y) ->
      let a = eval_point at x and b = eval_point at y in
      if a = b then a else raise_notrace Not_point
  | Bool | Walk _ -> raise_notrace Not_point
  | Fail msg -> raise (Interval.Not_analyzable msg)

(* Flattened row-major offset with depth [d] at [at.(d)]; [None] when
   the buffer has no constant shape of the access's rank or some index
   is not a single point there. *)
let flat_offset c at =
  match c.row_strides with
  | None -> None
  | Some row_strides -> (
      let point (itv : Interval.t) =
        if itv.lo = itv.hi then itv.lo else raise (Interval.Not_analyzable "range")
      in
      try
        Some
          (List.fold_left2
             (fun acc s stride ->
               acc + (stride * try eval_point at s with Not_point -> point (eval_skel at at s)))
             0 c.skels row_strides)
      with Interval.Not_analyzable _ -> None)

let compile access =
  let depth = List.length access.acc_loops in
  let vids = Array.make depth 0 and mins = Array.make depth 0 and exts = Array.make depth 0 in
  let ranges_ok = ref true in
  let in_range n = n <= value_bound && n >= -value_bound in
  List.iteri
    (fun d l ->
      let m =
        match l.lmin with
        | Expr.IntImm n -> n
        | e -> Option.value ~default:0 (Interval.const_of_expr e)
      in
      vids.(d) <- l.lvar.Expr.vid;
      mins.(d) <- m;
      exts.(d) <- l.lextent;
      if l.lextent < 1 || not (in_range m && in_range (m + l.lextent - 1)) then
        ranges_ok := false)
    access.acc_loops;
  let depth_of vid =
    let rec find d = if d < 0 || vids.(d) = vid then d else find (d - 1) in
    find (depth - 1)
  in
  let walks () = List.map (fun e -> Walk (vids, e)) access.acc_indices in
  let skels =
    if not !ranges_ok then walks ()
    else try List.map (compile_index depth_of) access.acc_indices with Inexact -> walks ()
  in
  (* Each dimension's stride is the product of the dimensions after it. *)
  let rec strides = function
    | [] -> Some (1, [])
    | Expr.IntImm n :: rest -> (
        match strides rest with Some (p, l) -> Some (n * p, p :: l) | None -> None)
    | _ :: _ -> None
  in
  let row_strides =
    match strides access.acc_buffer.Expr.bshape with
    | Some (_, (_ :: _ as l)) when List.compare_lengths l access.acc_indices = 0 -> Some l
    | _ -> None
  in
  { vids; mins; exts; skels; row_strides; footprints = Array.make (depth + 1) min_int }

let compiled access =
  match access.acc_compiled with
  | Some c -> c
  | None ->
      let c = compile access in
      access.acc_compiled <- Some c;
      c

(** Number of distinct elements of the buffer touched by the iterations
    of the loops at depth >= [level], outer loops held fixed at their
    minimum. Level 0 is the whole-statement footprint; level =
    depth(loops) is a single access. Conservative (rectangular hull)
    for non-affine indices. Memoized per level on the access. *)
let footprint_at_level access level =
  let c = compiled access in
  let depth = Array.length c.vids in
  let level = max 0 (min level depth) in
  let memo = c.footprints.(level) in
  if memo <> min_int then memo
  else
    let lo = c.mins in
    let hi = Array.mapi (fun d m -> if d >= level then m + c.exts.(d) - 1 else m) lo in
    let fp =
      try List.fold_left (fun acc s -> acc * Interval.length (eval_skel lo hi s)) 1 c.skels
      with Interval.Not_analyzable _ ->
        (* Fall back: the whole buffer. *)
        (try Expr.Buffer.num_elems access.acc_buffer with _ -> 1)
    in
    c.footprints.(level) <- fp;
    fp

let footprint_bytes_at_level access level =
  float_of_int (footprint_at_level access level)
  *. Dtype.bytes access.acc_buffer.Expr.bdtype

(** d(flattened index)/d(var): how far apart in memory are two accesses
    that differ by one in [var]? [None] when not constant (non-affine).
    Other loop vars are held at their minimum. *)
let stride_wrt access (v : Expr.var) =
  let c = compiled access in
  let at value = Array.mapi (fun d m -> if c.vids.(d) = v.Expr.vid then value else m) c.mins in
  match (flat_offset c (at 0), flat_offset c (at 1)) with Some a, Some b -> Some (b - a) | _ -> None

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
