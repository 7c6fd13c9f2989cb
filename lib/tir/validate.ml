(** Static sanitizer for lowered TIR programs.

    Lowering, virtual-thread lowering and the schedule transformations
    are all supposed to emit well-formed loop programs; nothing checked
    that, so a miscompile silently became a wrong simulated time and
    poisoned the cost model. {!check} walks a lowered statement and
    reports:

    + out-of-bounds stores/loads, proven with interval analysis over
      the enclosing loop/let environment (conservative {!Warning} when
      an index leaves the analyzable fragment);
    + use of unallocated or out-of-scope buffers, and unbound
      loop/let variables (def-before-use);
    + dtype mismatches between a buffer's element type and the value
      stored into it (or DMA-copied into it);
    + unbalanced [Push_dep]/[Pop_dep] token streams per DAE pipe pair
      — programs that would deadlock the {!Tvm_vdla.Des} simulator;
    + same-buffer writes from different [vthread]/thread-bound copies
      that provably hit the same cell (a write race).

    The bounds checker is deliberately stronger than plain interval
    arithmetic on two patterns our lowering emits everywhere:

    - {e guarded accesses}: conditions of enclosing [If_then_else] and
      [Select] nodes are collected as constraints and intersected with
      any structurally-matching subterm of an index (this is what makes
      padding's [select(y >= 1 && y < 8, data[y - 1], 0)] and the
      non-exact split guard [if (v < extent)] check out);
    - {e region-retargeted indices}: cache stages index a private
      buffer as [idx - offset] where [offset] is [idx] with inner loop
      vars at their minimum. Plain interval subtraction loses the
      correlation, so [Sub] nodes are evaluated by a structural
      difference ("delta") evaluator that recurses through matching
      [+ * / % min max] spines and uses congruence information to bound
      [floor((y+d)/k) - floor(y/k)] tightly. *)

type severity = Error | Warning

type kind =
  | Out_of_bounds of Expr.buffer * int * Interval.t * int
      (** buffer, dimension, index interval, dimension extent *)
  | Rank_mismatch of Expr.buffer * int  (** buffer, number of indices used *)
  | Unallocated of Expr.buffer
      (** non-[Global] buffer used but never allocated *)
  | Out_of_scope of Expr.buffer
      (** buffer used outside the [Allocate] that introduces it *)
  | Unbound_var of Expr.var
  | Dtype_mismatch of Expr.buffer * Dtype.t
      (** buffer, dtype of the value stored into it *)
  | Unbalanced_tokens of Stmt.pipe * Stmt.pipe * int
      (** pipe pair and net token count left after execution *)
  | Token_underflow of Stmt.pipe * Stmt.pipe
      (** a [Pop_dep] can run before any matching [Push_dep] *)
  | Write_race of Expr.buffer * string
      (** buffer and the concurrent loop whose copies collide *)
  | Non_affine of string
      (** index outside the analyzable fragment: nothing proven *)

type violation = { severity : severity; kind : kind; site : string }

let kind_to_string = function
  | Out_of_bounds (b, d, itv, dim) ->
      Printf.sprintf "out-of-bounds access to %s dim %d: index in %s, valid [0,%d]"
        b.Expr.bname d (Interval.to_string itv) (dim - 1)
  | Rank_mismatch (b, n) ->
      Printf.sprintf "%s has rank %d but is accessed with %d indices" b.Expr.bname
        (List.length b.Expr.bshape) n
  | Unallocated b -> Printf.sprintf "%s-scope buffer %s is never allocated"
      (Expr.scope_to_string b.Expr.bscope) b.Expr.bname
  | Out_of_scope b -> Printf.sprintf "buffer %s used outside its allocation scope" b.Expr.bname
  | Unbound_var v -> Printf.sprintf "variable %s used but never bound" (Expr.Var.unique_name v)
  | Dtype_mismatch (b, dv) ->
      Printf.sprintf "%s value stored into %s buffer %s" (Dtype.to_string dv)
        (Dtype.to_string b.Expr.bdtype) b.Expr.bname
  | Unbalanced_tokens (q, p, net) ->
      Printf.sprintf "dependence tokens %s->%s unbalanced: net %+d after execution"
        (Stmt.pipe_to_string q) (Stmt.pipe_to_string p) net
  | Token_underflow (q, p) ->
      Printf.sprintf "pop of %s->%s token can run before any push (would deadlock)"
        (Stmt.pipe_to_string q) (Stmt.pipe_to_string p)
  | Write_race (b, loop) ->
      Printf.sprintf "concurrent copies of %s write the same cell of %s without ordering"
        loop b.Expr.bname
  | Non_affine msg -> "index not statically analyzable: " ^ msg

let to_string v =
  Printf.sprintf "%s: %s [%s]"
    (match v.severity with Error -> "error" | Warning -> "warning")
    (kind_to_string v.kind) v.site

let errors vs = List.filter (fun v -> v.severity = Error) vs
let warnings vs = List.filter (fun v -> v.severity = Warning) vs

(* ------------------------------------------------------------------ *)
(* Interval evaluation with guards and structural differences           *)
(* ------------------------------------------------------------------ *)

exception NA of string  (** value not analyzable at this node *)

exception Unreachable
(** the guard set is contradictory: the access cannot execute *)

(* Sentinels for one-sided guard constraints. Constraint intervals are
   only ever intersected (max/min), never fed to interval arithmetic,
   so the magnitudes cannot overflow. *)
let lo_inf = min_int / 4
let hi_inf = max_int / 4

type thread_loop = { t_var : Expr.var; t_min : int; t_desc : string; t_tag : string option }

type st = {
  env : (int, Interval.t option) Hashtbl.t;
      (** var id -> interval; [None] = bound but not analyzable *)
  in_scope : (int, unit) Hashtbl.t;  (** live allocated buffer ids *)
  all_alloc : (int, unit) Hashtbl.t;  (** buffer ids allocated anywhere *)
  alloc_depth : (int, int) Hashtbl.t;
      (** buffer id -> number of enclosing concurrent loops at its
          allocation (absent = 0: external / top-level) *)
  guards : (Expr.t * Interval.t) list;
      (** structural constraints from enclosing If/Select conditions *)
  threads : thread_loop list;  (** enclosing concurrent loops, outermost first *)
  out : violation list ref;
}

let report st severity kind ~site = st.out := { severity; kind; site } :: !(st.out)

let inter a b =
  let lo = max a.Interval.lo b.Interval.lo and hi = min a.Interval.hi b.Interval.hi in
  if lo > hi then raise Unreachable;
  Interval.make lo hi

let neg_i i = Interval.make (-i.Interval.hi) (-i.Interval.lo)
let fdiv x d = Expr.binop_eval_int Expr.Div x d
let is_point i = i.Interval.lo = i.Interval.hi

(** Residue of [e] modulo [m], when provable. The [Div] rule — a value
    known mod [k*m] determines its floor-quotient by [k] mod [m] — is
    what lets deltas reason through the [/k/k'] index spines lowering
    builds when decomposing a fused loop variable. *)
let rec eval_mod st (e : Expr.t) m =
  if m <= 1 then Some 0
  else
    let norm n = ((n mod m) + m) mod m in
    let lift2 f a b =
      match (eval_mod st a m, eval_mod st b m) with
      | Some x, Some y -> Some (norm (f x y))
      | _ -> None
    in
    match e with
    | Expr.IntImm n -> Some (norm n)
    | Expr.Var v -> (
        match Hashtbl.find_opt st.env v.Expr.vid with
        | Some (Some i) when is_point i -> Some (norm i.Interval.lo)
        | _ -> None)
    | Expr.Binop (Expr.Add, a, b) -> lift2 ( + ) a b
    | Expr.Binop (Expr.Sub, a, b) -> lift2 ( - ) a b
    | Expr.Binop (Expr.Mul, a, b) -> (
        match (eval_mod st a m, eval_mod st b m) with
        | Some 0, _ | _, Some 0 -> Some 0
        | Some x, Some y -> Some (norm (x * y))
        | _ -> None)
    | Expr.Binop (Expr.Div, a, Expr.IntImm k) when k > 0 && k <= 1 lsl 20 && m <= 1 lsl 20
      -> (
        match eval_mod st a (k * m) with
        | Some r -> Some (r / k mod m)
        | None -> None)
    | Expr.Binop (Expr.FloorMod, a, Expr.IntImm k) when k > 0 && k mod m = 0 ->
        eval_mod st a m
    | Expr.Cast (_, a) -> eval_mod st a m
    | _ -> None

(** Interval of [a] under [env], refined by the guard constraints. *)
let rec ev st (e : Expr.t) : Interval.t =
  let raw =
    match e with
    | Expr.IntImm n -> Interval.point n
    | Expr.FloatImm _ -> raise (NA "float literal in index")
    | Expr.Var v -> (
        match Hashtbl.find_opt st.env v.Expr.vid with
        | Some (Some i) -> i
        | Some None -> raise (NA ("opaque binding of " ^ v.Expr.vname))
        | None -> raise (NA ("unbound variable " ^ v.Expr.vname)))
    | Expr.Binop (Expr.Sub, a, b) -> delta st a b
    | Expr.Binop (Expr.FloorMod, a, Expr.IntImm k) when k > 0 ->
        (* a residue provable even modulo just a divisor of [k] tightens
           the result beyond [0, k-1]: [blockIdx * 1568] mod 28 is
           exactly 0, and an even operand mod 56 sits in [0, 54]. *)
        residue_interval st a k
    | Expr.Binop (op, a, b) -> (
        let ia = ev st a and ib = ev st b in
        try
          match op with
          | Expr.Add -> Interval.add ia ib
          | Expr.Sub -> Interval.sub ia ib
          | Expr.Mul -> Interval.mul ia ib
          | Expr.Div -> Interval.div ia ib
          | Expr.FloorMod -> Interval.modulo ia ib
          | Expr.Min -> Interval.min_ ia ib
          | Expr.Max -> Interval.max_ ia ib
        with Interval.Not_analyzable msg -> raise (NA msg))
    | Expr.Select (c, t, f) ->
        let it = try Some (ev (push_guards st c) t) with Unreachable -> None in
        let if_ = ev st f in
        (match it with Some it -> Interval.union it if_ | None -> if_)
    | Expr.Cast (_, a) -> ev st a
    | Expr.Cmp _ | Expr.And _ | Expr.Or _ | Expr.Not _ -> Interval.make 0 1
    | Expr.Load _ -> raise (NA "load in index")
    | Expr.Call (n, _) -> raise (NA ("call to " ^ n ^ " in index"))
  in
  (* Intersect with every guard constraint whose subject matches this
     node structurally. An empty intersection means the guards rule the
     enclosing access out entirely: dead code, nothing to check. *)
  List.fold_left
    (fun acc (subject, c) -> if Expr.equal subject e then inter acc c else acc)
    raw st.guards

(** Remove clamps that are provably the identity: [min(a,b)] is [a]
    whenever [a]'s interval sits at or below [b]'s, and dually for
    [max]. Lowering clamps every inferred region bound, so retargeted
    indices are full of [max(0, min(x, hi)) - x] pairs that only cancel
    once the no-op clamp is peeled. *)
and strip_clamps st (e : Expr.t) : Expr.t =
  match e with
  | Expr.Binop (((Expr.Min | Expr.Max) as op), a, b) -> (
      match (ev st a, ev st b) with
      | ia, ib ->
          let keep_a =
            match op with
            | Expr.Min -> ia.Interval.hi <= ib.Interval.lo
            | _ -> ia.Interval.lo >= ib.Interval.hi
          in
          let keep_b =
            match op with
            | Expr.Min -> ib.Interval.hi <= ia.Interval.lo
            | _ -> ib.Interval.lo >= ia.Interval.hi
          in
          if keep_a then strip_clamps st a
          else if keep_b then strip_clamps st b
          else e
      | exception (NA _ | Unreachable) -> e)
  | e -> e

(** Interval of [e mod k] (for [k > 0]), as tight as provable: a known
    residue is a point; a known residue [r0] modulo a proper divisor
    [g] of [k] confines it to [[r0, k - g + r0]] (the residues
    congruent to [r0] mod [g]); an interval already inside [[0,k)] is
    its own residue. This is what bounds [o*7 mod 14] to [[0,7]]. *)
and residue_interval st (e : Expr.t) k : Interval.t =
  let meet acc i = try inter acc i with Unreachable -> acc in
  let full = Interval.make 0 (k - 1) in
  let by_value =
    match ev st e with
    | i when i.Interval.lo >= 0 && i.Interval.hi < k -> Some i
    | _ | (exception (NA _ | Unreachable)) -> None
  in
  let by_residue =
    match eval_mod st e k with
    | Some r -> Some (Interval.point r)
    | None ->
        let rec divisors_from g =
          if g < 2 then None
          else if k mod g = 0 then
            match eval_mod st e g with
            | Some r0 -> Some (Interval.make r0 (k - g + r0))
            | None -> divisors_from (g - 1)
          else divisors_from (g - 1)
        in
        divisors_from (k / 2)
  in
  let acc = match by_value with Some i -> meet full i | None -> full in
  match by_residue with Some i -> meet acc i | None -> acc

(** Interval of [a - b], exploiting shared structure. Both results —
    the structural difference and plain interval subtraction — are
    sound, so we return their intersection. *)
and delta st (a : Expr.t) (b : Expr.t) : Interval.t =
  let a = strip_clamps st a and b = strip_clamps st b in
  if Expr.equal a b then Interval.point 0
  else
    let plain () = Interval.sub (ev st a) (ev st b) in
    let meet_i i j =
      let lo = max i.Interval.lo j.Interval.lo
      and hi = min i.Interval.hi j.Interval.hi in
      if lo > hi then i (* both sound; keep one defensively *)
      else Interval.make lo hi
    in
    let meet_opt i j =
      match (i, j) with
      | Some i, Some j -> Some (meet_i i j)
      | (Some _ as s), None | None, (Some _ as s) -> s
      | None, None -> None
    in
    let lipschitz_pair a1 a2 b1 b2 =
      (* min/max are 1-Lipschitz and monotone in each argument *)
      if Expr.equal a2 b2 then
        let d = delta st a1 b1 in
        Some (Interval.make (min d.Interval.lo 0) (max d.Interval.hi 0))
      else if Expr.equal a1 b1 then
        let d = delta st a2 b2 in
        Some (Interval.make (min d.Interval.lo 0) (max d.Interval.hi 0))
      else None
    in
    let structural =
      match (a, b) with
      | Expr.Binop (Expr.Add, a1, a2), _ when Expr.equal a1 b -> Some (ev st a2)
      | Expr.Binop (Expr.Add, a1, a2), _ when Expr.equal a2 b -> Some (ev st a1)
      | _, Expr.Binop (Expr.Add, b1, b2) when Expr.equal a b1 -> Some (neg_i (ev st b2))
      | _, Expr.Binop (Expr.Add, b1, b2) when Expr.equal a b2 -> Some (neg_i (ev st b1))
      | Expr.Binop (Expr.Add, a1, a2), Expr.Binop (Expr.Add, b1, b2) ->
          Some (Interval.add (delta st a1 b1) (delta st a2 b2))
      | Expr.Binop (Expr.Sub, a1, a2), Expr.Binop (Expr.Sub, b1, b2) ->
          Some (Interval.add (delta st a1 b1) (neg_i (delta st a2 b2)))
      | Expr.Binop (Expr.Add, a1, a2), _ ->
          (* (a1 + a2) - b = (a1 - b) + a2 — try both splits, so the
             structural rules can engage on whichever addend shares b's
             div/mod spine *)
          let split x y =
            match Interval.add (delta st x b) (ev st y) with
            | i -> Some i
            | exception NA _ -> None
          in
          meet_opt (split a1 a2) (split a2 a1)
      | _, Expr.Binop (Expr.Add, b1, b2) ->
          let split x y =
            match Interval.add (delta st a x) (neg_i (ev st y)) with
            | i -> Some i
            | exception NA _ -> None
          in
          meet_opt (split b1 b2) (split b2 b1)
      | Expr.Binop (Expr.Mul, a1, Expr.IntImm k), Expr.Binop (Expr.Mul, b1, Expr.IntImm k')
        when k = k' ->
          Some (Interval.mul (delta st a1 b1) (Interval.point k))
      | Expr.Binop (Expr.Mul, Expr.IntImm k, a1), Expr.Binop (Expr.Mul, Expr.IntImm k', b1)
        when k = k' ->
          Some (Interval.mul (delta st a1 b1) (Interval.point k))
      | Expr.Binop (Expr.Div, a1, Expr.IntImm k), Expr.Binop (Expr.Div, b1, Expr.IntImm k')
        when k = k' && k > 0 ->
          (* Write b1 = q*k + r.  With a1 = b1 + d,
             ⌊a1/k⌋ - ⌊b1/k⌋ = ⌊(r+d)/k⌋, and r is confined by
             [residue_interval]. *)
          let d = delta st a1 b1 in
          if is_point d && d.Interval.lo = 0 then Some (Interval.point 0)
          else
            let r = residue_interval st b1 k in
            Some
              (Interval.make
                 (fdiv (r.Interval.lo + d.Interval.lo) k)
                 (fdiv (r.Interval.hi + d.Interval.hi) k))
      | ( Expr.Binop (Expr.FloorMod, a1, Expr.IntImm k),
          Expr.Binop (Expr.FloorMod, b1, Expr.IntImm k') )
        when k = k' && k > 0 ->
          (* a1 mod k - b1 mod k = (r+d) mod k - r with r as above; when
             r+d cannot wrap out of [0,k) the difference is exactly d. *)
          let d = delta st a1 b1 in
          if is_point d && d.Interval.lo = 0 then Some (Interval.point 0)
          else
            let r = residue_interval st b1 k in
            if r.Interval.lo + d.Interval.lo >= 0 && r.Interval.hi + d.Interval.hi < k
            then Some d
            else if is_point r && r.Interval.lo = 0 then
              (* (0+d) mod k - 0 *)
              Some (Interval.modulo d (Interval.point k))
            else Some (Interval.make (-(k - 1)) (k - 1))
      | Expr.Binop (Expr.Min, a1, a2), Expr.Binop (Expr.Min, b1, b2) ->
          lipschitz_pair a1 a2 b1 b2
      | Expr.Binop (Expr.Max, a1, a2), Expr.Binop (Expr.Max, b1, b2) ->
          lipschitz_pair a1 a2 b1 b2
      | Expr.Select (c1, t1, f1), Expr.Select (c2, t2, f2) when Expr.equal c1 c2 ->
          Some (Interval.union (delta st t1 t2) (delta st f1 f2))
      | Expr.Cast (_, a1), Expr.Cast (_, b1) -> Some (delta st a1 b1)
      | _ -> None
    in
    match structural with
    | None -> plain ()
    | Some d -> (
        match plain () with
        | p ->
            let lo = max d.Interval.lo p.Interval.lo
            and hi = min d.Interval.hi p.Interval.hi in
            if lo > hi then p (* defensive; both are sound, meet cannot be empty *)
            else Interval.make lo hi
        | exception (NA _ | Unreachable) -> d)

(* ---- guard constraints from boolean conditions -------------------- *)

and conjuncts = function
  | Expr.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

and flip_cmp = function
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le
  | (Expr.Eq | Expr.Ne) as op -> op

and constraint_of st op subject other =
  match ev st other with
  | io ->
      let lo, hi =
        match op with
        | Expr.Lt -> (lo_inf, io.Interval.hi - 1)
        | Expr.Le -> (lo_inf, io.Interval.hi)
        | Expr.Gt -> (io.Interval.lo + 1, hi_inf)
        | Expr.Ge -> (io.Interval.lo, hi_inf)
        | Expr.Eq -> (io.Interval.lo, io.Interval.hi)
        | Expr.Ne -> (lo_inf, hi_inf)
      in
      if lo > hi then [] else [ (subject, Interval.make lo hi) ]
  | exception (NA _ | Unreachable) -> []

(** Extend the guard set with the conjuncts of [cond]. Each comparison
    [l op r] contributes a bound on [l] (from [r]'s interval) and on
    [r] (from [l]'s); non-comparison conjuncts contribute nothing. *)
and push_guards st cond =
  let cs =
    List.concat_map
      (function
        | Expr.Cmp (op, l, r) ->
            constraint_of st op l r @ constraint_of st (flip_cmp op) r l
        | _ -> [])
      (conjuncts cond)
  in
  { st with guards = cs @ st.guards }

(* ------------------------------------------------------------------ *)
(* Access checks                                                        *)
(* ------------------------------------------------------------------ *)

let buffer_site what (b : Expr.buffer) =
  Printf.sprintf "%s %s" what b.Expr.bname

let check_scope st what (b : Expr.buffer) =
  let site = buffer_site what b in
  if not (Hashtbl.mem st.in_scope b.Expr.bid) then
    if Hashtbl.mem st.all_alloc b.Expr.bid then report st Error (Out_of_scope b) ~site
    else if b.Expr.bscope <> Expr.Global then report st Error (Unallocated b) ~site
(* never-allocated Global buffers are the kernel's external parameters *)

(** Bounds-check one access. [extents] widens each index to a region
    (DMA copies and tensorized regions); element accesses pass 1s. *)
let check_bounds st what (b : Expr.buffer) (idx : Expr.t list) (extents : int list) =
  let site = buffer_site what b in
  if List.length idx <> List.length b.Expr.bshape then
    report st Error (Rank_mismatch (b, List.length idx)) ~site
  else
    List.iteri
      (fun d ((i, ext), dim_e) ->
        match Interval.const_of_expr dim_e with
        | None ->
            report st Warning (Non_affine (Printf.sprintf "symbolic extent of dim %d" d)) ~site
        | Some dim -> (
            match ev st i with
            | itv ->
                let itv = Interval.make itv.Interval.lo (itv.Interval.hi + ext - 1) in
                if itv.Interval.lo < 0 || itv.Interval.hi > dim - 1 then
                  report st Error (Out_of_bounds (b, d, itv, dim)) ~site
            | exception NA msg -> report st Warning (Non_affine msg) ~site
            | exception Unreachable -> ()))
      (List.combine (List.combine idx extents) b.Expr.bshape)

let ones idx = List.map (fun _ -> 1) idx

let check_access st what b idx =
  check_scope st what b;
  check_bounds st what b idx (ones idx)

let check_store_dtype st (b : Expr.buffer) v =
  let site = buffer_site "store" b in
  let dv = Expr.dtype_of v and db = b.Expr.bdtype in
  if not (Dtype.equal dv db) then
    if Dtype.is_float dv && Dtype.is_integer db then
      (* silent truncation of the fractional part: always a bug *)
      report st Error (Dtype_mismatch (b, dv)) ~site
    else if Dtype.is_integer dv && Dtype.is_float db then
      () (* integer constants promote losslessly: reduce inits do this *)
    else report st Warning (Dtype_mismatch (b, dv)) ~site

(* ---- write races --------------------------------------------------- *)

(** Report a race when a write's cell provably does not depend on the
    copy index of an enclosing concurrent loop the buffer is shared
    across. Substituting two concrete in-range copy indices and
    comparing structurally is a sound under-approximation: structural
    equality of both instances proves those two copies write the same
    cell. Writes guarded down to a single copy (e.g. [if (tid == 0)])
    are not races — the guard set pins the loop var to a point. *)
let check_race st what (b : Expr.buffer) (idx : Expr.t list) =
  let depth =
    match Hashtbl.find_opt st.alloc_depth b.Expr.bid with Some d -> d | None -> 0
  in
  List.iteri
    (fun i t ->
      if depth <= i then
        let single_copy =
          match ev st (Expr.Var t.t_var) with
          | itv -> is_point itv
          | exception (NA _ | Unreachable) -> false
        in
        let invariant e =
          let at n = Visit.subst_var_expr t.t_var (Expr.IntImm n) e in
          Expr.equal (at t.t_min) (at (t.t_min + 1))
        in
        if (not single_copy) && List.for_all invariant idx then
          report st Error (Write_race (b, t.t_desc)) ~site:(buffer_site what b))
    st.threads

(* ------------------------------------------------------------------ *)
(* Statement walk                                                       *)
(* ------------------------------------------------------------------ *)

let rec check_expr st (e : Expr.t) =
  match e with
  | Expr.Var v ->
      if not (Hashtbl.mem st.env v.Expr.vid) then
        report st Error (Unbound_var v) ~site:("use of " ^ v.Expr.vname)
  | Expr.Load (b, idx) ->
      check_access st "load" b idx;
      List.iter (check_expr st) idx
  | Expr.Select (c, t, f) ->
      check_expr st c;
      (match push_guards st c with
      | st' -> check_expr st' t
      | exception Unreachable -> ());
      check_expr st f
  | Expr.Binop (_, a, b) | Expr.Cmp (_, a, b) | Expr.And (a, b) | Expr.Or (a, b) ->
      check_expr st a;
      check_expr st b
  | Expr.Not a | Expr.Cast (_, a) -> check_expr st a
  | Expr.Call (_, args) -> List.iter (check_expr st) args
  | Expr.IntImm _ | Expr.FloatImm _ -> ()

let with_binding st (v : Expr.var) itv f =
  let old = Hashtbl.find_opt st.env v.Expr.vid in
  Hashtbl.replace st.env v.Expr.vid itv;
  f ();
  match old with
  | Some o -> Hashtbl.replace st.env v.Expr.vid o
  | None -> Hashtbl.remove st.env v.Expr.vid

(** Concurrent-copy descriptor for a loop, when its copies can race:
    vthread and thread-bound loops of constant extent >= 2. A deeper
    re-binding of an already-bound thread tag is cooperative work
    distribution (it runs at the enclosing tag's value), not a new axis
    of concurrency. *)
let thread_loop_of st (l : Stmt.for_loop) =
  let concurrent tag desc =
    match (Interval.const_of_expr l.Stmt.min_, Interval.const_of_expr l.Stmt.extent) with
    | Some m, Some e when e >= 2 ->
        Some { t_var = l.Stmt.loop_var; t_min = m; t_desc = desc; t_tag = tag }
    | _ -> None
  in
  match l.Stmt.kind with
  | Stmt.Vthread -> concurrent None ("vthread " ^ l.Stmt.loop_var.Expr.vname)
  | Stmt.Thread_binding tag ->
      if List.exists (fun t -> t.t_tag = Some tag) st.threads then None
      else concurrent (Some tag) tag
  | Stmt.Serial | Stmt.Parallel | Stmt.Vectorized | Stmt.Unrolled -> None

let rec walk st (s : Stmt.t) =
  match s with
  | Stmt.Store (b, idx, v) ->
      List.iter (check_expr st) idx;
      check_expr st v;
      check_access st "store" b idx;
      check_store_dtype st b v;
      check_race st "store" b idx
  | Stmt.For l ->
      check_expr st l.Stmt.min_;
      check_expr st l.Stmt.extent;
      let itv =
        match (ev st l.Stmt.min_, ev st l.Stmt.extent) with
        | m, e when e.Interval.hi >= 1 ->
            Some (Interval.make m.Interval.lo (m.Interval.hi + e.Interval.hi - 1))
        | _ -> None
        | exception (NA _ | Unreachable) -> None
      in
      let st' =
        match thread_loop_of st l with
        | Some t -> { st with threads = st.threads @ [ t ] }
        | None -> st
      in
      with_binding st l.Stmt.loop_var itv (fun () -> walk st' l.Stmt.body)
  | Stmt.If_then_else (c, t, e) ->
      check_expr st c;
      (match push_guards st c with
      | st' -> walk st' t
      | exception Unreachable -> ());
      Option.iter (walk st) e
  | Stmt.Let_stmt (v, e, b) ->
      check_expr st e;
      let itv = match ev st e with i -> Some i | exception (NA _ | Unreachable) -> None in
      with_binding st v itv (fun () -> walk st b)
  | Stmt.Seq ss -> List.iter (walk st) ss
  | Stmt.Allocate (b, body) ->
      Hashtbl.replace st.in_scope b.Expr.bid ();
      Hashtbl.replace st.alloc_depth b.Expr.bid (List.length st.threads);
      walk st body;
      Hashtbl.remove st.in_scope b.Expr.bid
  | Stmt.Evaluate e -> check_expr st e
  | Stmt.Call_intrin ic ->
      List.iter
        (fun (b, base) ->
          List.iter (check_expr st) base;
          check_access st "intrinsic region" b base)
        (ic.Stmt.inputs @ [ ic.Stmt.output ]);
      check_race st "intrinsic output" (fst ic.Stmt.output) (snd ic.Stmt.output)
  | Stmt.Dma_copy d ->
      List.iter (check_expr st) d.Stmt.dma_src_base;
      List.iter (check_expr st) d.Stmt.dma_dst_base;
      check_scope st "dma src" d.Stmt.dma_src;
      check_scope st "dma dst" d.Stmt.dma_dst;
      if List.length d.Stmt.dma_extents = List.length d.Stmt.dma_src.Expr.bshape then
        check_bounds st "dma src" d.Stmt.dma_src d.Stmt.dma_src_base d.Stmt.dma_extents;
      if List.length d.Stmt.dma_extents = List.length d.Stmt.dma_dst.Expr.bshape then
        check_bounds st "dma dst" d.Stmt.dma_dst d.Stmt.dma_dst_base d.Stmt.dma_extents;
      if not (Dtype.equal d.Stmt.dma_src.Expr.bdtype d.Stmt.dma_dst.Expr.bdtype) then
        report st Error
          (Dtype_mismatch (d.Stmt.dma_dst, d.Stmt.dma_src.Expr.bdtype))
          ~site:(buffer_site "dma into" d.Stmt.dma_dst);
      check_race st "dma dst" d.Stmt.dma_dst d.Stmt.dma_dst_base
  | Stmt.Barrier | Stmt.Push_dep _ | Stmt.Pop_dep _ | Stmt.Skip -> ()

(* ------------------------------------------------------------------ *)
(* Dependence-token balance                                             *)
(* ------------------------------------------------------------------ *)

(** Per pipe pair: [net] tokens produced minus consumed, [minp] the
    minimum running balance relative to entry (a negative [minp] at the
    top level means some pop can run before its push: deadlock in
    {!Tvm_vdla.Des}), [exact] whether the counts are statically known
    (conditional tokens and non-constant trip counts clear it). *)
type tk = { net : int; minp : int; exact : bool }

let tk_tok n = { net = n; minp = min n 0; exact = true }
let tk_pairs = List.map fst

let tk_merge f a b =
  let keys = List.sort_uniq compare (tk_pairs a @ tk_pairs b) in
  let zero = { net = 0; minp = 0; exact = true } in
  List.map
    (fun k ->
      let ga = Option.value ~default:zero (List.assoc_opt k a) in
      let gb = Option.value ~default:zero (List.assoc_opt k b) in
      (k, f ga gb))
    keys

let tk_seq = tk_merge (fun a b ->
    { net = a.net + b.net; minp = min a.minp (a.net + b.minp); exact = a.exact && b.exact })

let tk_choice = tk_merge (fun a b ->
    { net = a.net; minp = min a.minp b.minp; exact = a.exact && b.exact && a.net = b.net })

let tk_scale n body =
  List.map
    (fun (k, t) ->
      if n <= 0 then (k, { net = 0; minp = 0; exact = t.exact })
      else
        let minp = if t.net >= 0 then t.minp else ((n - 1) * t.net) + t.minp in
        (k, { net = n * t.net; minp; exact = t.exact }))
    body

let tk_unknown_scale body =
  List.map
    (fun (k, t) ->
      if t.net = 0 then (k, { t with minp = min 0 t.minp })
      else (k, { net = 0; minp = min 0 t.minp; exact = false }))
    body

let rec tokens (s : Stmt.t) : ((Stmt.pipe * Stmt.pipe) * tk) list =
  match s with
  | Stmt.Push_dep (q, p) -> [ ((q, p), tk_tok 1) ]
  | Stmt.Pop_dep (q, p) -> [ ((q, p), tk_tok (-1)) ]
  | Stmt.Seq ss -> List.fold_left (fun acc s -> tk_seq acc (tokens s)) [] ss
  | Stmt.For l -> (
      let body = tokens l.Stmt.body in
      if body = [] then []
      else
        match Interval.const_of_expr l.Stmt.extent with
        | Some n -> tk_scale n body
        | None -> tk_unknown_scale body)
  | Stmt.If_then_else (_, t, e) ->
      tk_choice (tokens t) (match e with Some e -> tokens e | None -> [])
  | Stmt.Let_stmt (_, _, b) | Stmt.Allocate (_, b) -> tokens b
  | Stmt.Store _ | Stmt.Barrier | Stmt.Evaluate _ | Stmt.Call_intrin _
  | Stmt.Dma_copy _ | Stmt.Skip ->
      []

let check_tokens st s =
  List.iter
    (fun ((q, p), t) ->
      let site = Printf.sprintf "%s->%s tokens" (Stmt.pipe_to_string q) (Stmt.pipe_to_string p) in
      if not t.exact then
        report st Warning (Non_affine "token stream not statically countable") ~site
      else begin
        if t.net <> 0 then report st Error (Unbalanced_tokens (q, p, t.net)) ~site;
        if t.minp < 0 then report st Error (Token_underflow (q, p)) ~site
      end)
    (tokens s)

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let check (s : Stmt.t) : violation list =
  let st =
    {
      env = Hashtbl.create 64;
      in_scope = Hashtbl.create 16;
      all_alloc = Hashtbl.create 16;
      alloc_depth = Hashtbl.create 16;
      guards = [];
      threads = [];
      out = ref [];
    }
  in
  List.iter
    (fun (b : Expr.buffer) -> Hashtbl.replace st.all_alloc b.Expr.bid ())
    (Stmt.allocated_buffers s);
  walk st s;
  check_tokens st s;
  (* One report per distinct violation; errors first. *)
  !(st.out)
  |> List.sort_uniq compare
  |> List.stable_sort (fun a b -> compare a.severity b.severity)
