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

let div a b =
  (* Conservative: only handle positive constant divisors precisely. *)
  if b.lo = b.hi && b.lo > 0 then
    let d = b.lo in
    let fdiv x = if x >= 0 then x / d else -(((-x) + d - 1) / d) in
    { lo = fdiv a.lo; hi = fdiv a.hi }
  else raise (Not_analyzable "non-constant or non-positive divisor")

let modulo a b =
  if b.lo = b.hi && b.lo > 0 then
    let d = b.lo in
    if a.lo = a.hi then point (((a.lo mod d) + d) mod d)
    else if a.lo >= 0 && a.hi - a.lo + 1 >= d then { lo = 0; hi = d - 1 }
    else if a.lo >= 0 && a.lo / d = a.hi / d then { lo = a.lo mod d; hi = a.hi mod d }
    else { lo = 0; hi = d - 1 }
  else raise (Not_analyzable "non-constant or non-positive modulus")

let min_ a b = { lo = min a.lo b.lo; hi = min a.hi b.hi }
let max_ a b = { lo = max a.lo b.lo; hi = max a.hi b.hi }

(* The worker behind {!eval}: [memo] caches the interval of composite
   nodes by physical identity for the duration of one evaluation, so
   subtrees shared by hash-consed construction are analyzed once.
   Only successes are cached — [Not_analyzable] propagates before the
   store. The environment is fixed for the whole call, so caching is
   sound. *)
let rec eval_memo memo env (e : Expr.t) : t =
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
  | Expr.Binop _ | Expr.Select _ | Expr.Cast _ -> (
      match Expr.Phys.find_opt memo e with
      | Some i -> i
      | None ->
          let i =
            match e with
            | Expr.Binop (op, a, b) -> (
                let ia = eval_memo memo env a and ib = eval_memo memo env b in
                match op with
                | Expr.Add -> add ia ib
                | Expr.Sub -> sub ia ib
                | Expr.Mul -> mul ia ib
                | Expr.Div -> div ia ib
                | Expr.FloorMod -> modulo ia ib
                | Expr.Min -> min_ ia ib
                | Expr.Max -> max_ ia ib)
            | Expr.Select (_, t, f) ->
                union (eval_memo memo env t) (eval_memo memo env f)
            | Expr.Cast (_, a) -> eval_memo memo env a
            | _ -> assert false
          in
          Expr.Phys.add memo e i;
          i)

(* Leaf evaluations never consult the memo; sharing one empty table
   avoids an allocation on those (frequent) calls. *)
let leaf_memo : t Expr.Phys.t = Expr.Phys.create 1

(* Composite evaluations reuse one memo per domain: feature extraction
   evaluates every access at every loop level, too often to allocate a
   table per call. *)
let scratch = Expr.Phys.scratch 16

(** Evaluate expression [e] to an interval under [env : var id -> t].
    Raises {!Not_analyzable} on constructs outside the affine fragment
    (calls, loads); callers either guarantee affine indices or catch. *)
let eval env (e : Expr.t) : t =
  match e with
  | Expr.Binop _ | Expr.Select _ | Expr.Cast _ ->
      Expr.Phys.with_scratch scratch (fun memo -> eval_memo memo env e)
  | _ -> eval_memo leaf_memo env e

(** Evaluate under an association list from vars to intervals. As with
    a table filled in list order, the last binding of a var wins. *)
let eval_under bindings e =
  let rec last vid found = function
    | [] -> found
    | ((v : Expr.var), i) :: rest ->
        last vid (if v.Expr.vid = vid then Some i else found) rest
  in
  eval (fun vid -> last vid None bindings) e

(** Constant-fold an expression to an int if the interval is a point. *)
let const_of_expr e =
  match eval (fun _ -> None) e with
  | { lo; hi } when lo = hi -> Some lo
  | _ -> None
  | exception Not_analyzable _ -> None
