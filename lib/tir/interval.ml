(** Interval analysis over index expressions.

    Bound inference for lowering (which buffer region does a consumer
    touch?) and footprint analysis for the timing models and cost-model
    features both reduce to evaluating an index expression over an
    environment mapping loop variables to integer ranges. Our schedule
    templates generate affine indices, for which this analysis is exact
    when splits divide extents evenly, and conservative otherwise. *)

type t = { lo : int; hi : int }  (** inclusive bounds *)

let make lo hi =
  if lo > hi then invalid_arg (Printf.sprintf "Interval.make %d %d" lo hi);
  { lo; hi }

let point n = { lo = n; hi = n }
let of_extent ~min ~extent = { lo = min; hi = min + extent - 1 }
let length i = i.hi - i.lo + 1
let union a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }
let contains i n = i.lo <= n && n <= i.hi
let to_string i = Printf.sprintf "[%d,%d]" i.lo i.hi

exception Not_analyzable of string

let add a b = { lo = a.lo + b.lo; hi = a.hi + b.hi }
let sub a b = { lo = a.lo - b.hi; hi = a.hi - b.lo }

let mul a b =
  let products = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
  { lo = List.fold_left min max_int products; hi = List.fold_left max min_int products }

let fdiv x d = if x >= 0 then x / d else -(((-x) + d - 1) / d)
let fmod x d = ((x mod d) + d) mod d

let div a b =
  (* Conservative: only handle positive constant divisors precisely. *)
  if b.lo = b.hi && b.lo > 0 then
    let d = b.lo in
    { lo = fdiv a.lo d; hi = fdiv a.hi d }
  else raise (Not_analyzable "non-constant or non-positive divisor")

let modulo a b =
  if b.lo = b.hi && b.lo > 0 then
    let d = b.lo in
    if a.lo = a.hi then point (fmod a.lo d)
    else if a.lo >= 0 && a.hi - a.lo + 1 >= d then { lo = 0; hi = d - 1 }
    else if a.lo >= 0 && a.lo / d = a.hi / d then { lo = a.lo mod d; hi = a.hi mod d }
    else { lo = 0; hi = d - 1 }
  else raise (Not_analyzable "non-constant or non-positive modulus")

let min_ a b = { lo = min a.lo b.lo; hi = min a.hi b.hi }
let max_ a b = { lo = max a.lo b.lo; hi = max a.hi b.hi }

(* One node's interval, its children evaluated by [go st env]. *)
let node go st env (e : Expr.t) : t =
  match e with
  | Expr.IntImm n -> point n
  | Expr.FloatImm _ -> raise (Not_analyzable "float in index")
  | Expr.Var v -> (
      match env v.Expr.vid with
      | Some i -> i
      | None -> raise (Not_analyzable ("unbound var " ^ v.Expr.vname)))
  | Expr.Cmp _ | Expr.And _ | Expr.Or _ | Expr.Not _ -> { lo = 0; hi = 1 }
  | Expr.Load _ -> raise (Not_analyzable "load in index")
  | Expr.Call (n, _) -> raise (Not_analyzable ("call " ^ n ^ " in index"))
  | Expr.Binop (op, a, b) -> (
      let ia = go st env a and ib = go st env b in
      match op with
      | Expr.Add -> add ia ib
      | Expr.Sub -> sub ia ib
      | Expr.Mul -> mul ia ib
      | Expr.Div -> div ia ib
      | Expr.FloorMod -> modulo ia ib
      | Expr.Min -> min_ ia ib
      | Expr.Max -> max_ ia ib)
  | Expr.Select (_, t, f) -> union (go st env t) (go st env f)
  | Expr.Cast (_, a) -> go st env a

(* Plain recursion, counting composite nodes down from [left]. *)
let rec direct left env (e : Expr.t) =
  match e with
  | Expr.Binop _ | Expr.Select _ | Expr.Cast _ ->
      decr left;
      if !left < 0 then raise_notrace Expr.Memo.Over_limit;
      node direct left env e
  | _ -> node direct left env e

(* The over-limit fallback: a memo caches the interval of composite
   nodes by physical identity for one call, so a DAG shared by its
   builder is analyzed once per distinct node. Only successes are cached —
   [Not_analyzable] propagates before the store. *)
let shared env (e : Expr.t) =
  let memo = Expr.Memo.create 16 in
  let rec go () env (e : Expr.t) =
    match e with
    | Expr.Binop _ | Expr.Select _ | Expr.Cast _ -> Expr.Memo.memo memo compute e
    | _ -> node go () env e
  and compute e = node go () env e in
  go () env e

(** Evaluate expression [e] to an interval under [env : var id -> t].
    Raises {!Not_analyzable} on constructs outside the affine fragment
    (calls, loads); callers either guarantee affine indices or catch.
    Both walks visit children in the same order, so they raise the same
    [Not_analyzable] first. *)
let eval env (e : Expr.t) : t =
  try direct (ref Expr.Memo.direct_limit) env e with Expr.Memo.Over_limit -> shared env e

(** Constant-fold an expression to an int if the interval is a point. *)
let const_of_expr e =
  match eval (fun _ -> None) e with
  | { lo; hi } when lo = hi -> Some lo
  | _ -> None
  | exception Not_analyzable _ -> None
