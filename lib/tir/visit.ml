(** Deep traversals and substitution over expressions and statements. *)

(** Bottom-up rebuild of an expression with [f] applied at every node. *)
let rec map_expr f (e : Expr.t) : Expr.t =
  let e =
    match e with
    | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ -> e
    | Expr.Binop (op, a, b) -> Expr.binop op (map_expr f a) (map_expr f b)
    | Expr.Cmp (op, a, b) -> Expr.cmp op (map_expr f a) (map_expr f b)
    | Expr.And (a, b) -> Expr.and_ (map_expr f a) (map_expr f b)
    | Expr.Or (a, b) -> Expr.or_ (map_expr f a) (map_expr f b)
    | Expr.Not a -> Expr.not_ (map_expr f a)
    | Expr.Select (c, t, fl) -> Expr.select (map_expr f c) (map_expr f t) (map_expr f fl)
    | Expr.Cast (d, a) -> Expr.cast d (map_expr f a)
    | Expr.Load (b, idx) -> Expr.load b (List.map (map_expr f) idx)
    | Expr.Call (n, args) -> Expr.call n (List.map (map_expr f) args)
  in
  f e

(* [List.map g l], returning [l] itself when [g] maps every element to
   itself. *)
let rec map_same g l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = g x in
      let rest' = map_same g rest in
      if x' == x && rest' == rest then l else x' :: rest'

(* One node rebuilt from its children mapped by [go f st], then [f].
   When every child maps to itself the node is kept as it is, not
   rebuilt: a raw [Load]/[Call] stays raw (the smart constructors fold
   nothing a kept node could hold). *)
let rebuild go f st (e : Expr.t) : Expr.t =
  match e with
  | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ -> f e
  | Expr.Binop (op, a, b) ->
      let a' = go f st a and b' = go f st b in
      f (if a' == a && b' == b then e else Expr.binop op a' b')
  | Expr.Cmp (op, a, b) ->
      let a' = go f st a and b' = go f st b in
      f (if a' == a && b' == b then e else Expr.cmp op a' b')
  | Expr.And (a, b) ->
      let a' = go f st a and b' = go f st b in
      f (if a' == a && b' == b then e else Expr.and_ a' b')
  | Expr.Or (a, b) ->
      let a' = go f st a and b' = go f st b in
      f (if a' == a && b' == b then e else Expr.or_ a' b')
  | Expr.Not a ->
      let a' = go f st a in
      f (if a' == a then e else Expr.not_ a')
  | Expr.Select (c, t, fl) ->
      let c' = go f st c and t' = go f st t and fl' = go f st fl in
      f (if c' == c && t' == t && fl' == fl then e else Expr.select c' t' fl')
  | Expr.Cast (d, a) ->
      let a' = go f st a in
      f (if a' == a then e else Expr.cast d a')
  | Expr.Load (b, idx) ->
      let idx' = map_same (go f st) idx in
      f (if idx' == idx then e else Expr.load b idx')
  | Expr.Call (n, args) ->
      let args' = map_same (go f st) args in
      f (if args' == args then e else Expr.call n args')

(* Plain recursion, counting composite nodes down from [left]. *)
let rec direct f left (e : Expr.t) =
  match e with
  | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ -> f e
  | _ ->
      decr left;
      if !left < 0 then raise_notrace Expr.Memo.Over_limit;
      rebuild direct f left e

(* The over-limit fallback: a memo maps each physically distinct node
   to its image for one call. *)
let shared f (e : Expr.t) =
  let memo = Expr.Memo.create 64 in
  let rec go f () (e : Expr.t) =
    match e with
    | Expr.IntImm _ | Expr.FloatImm _ -> f e
    | _ -> Expr.Memo.memo memo compute e
  and compute e = rebuild go f () e in
  go f () e

(** Like {!map_expr} for a {e pure} [f], exploiting structural sharing:
    an expression past {!Expr.Memo.direct_limit} composite nodes is
    remapped with each physically distinct subtree visited once, so
    DAGs that print exponentially large map in time linear in their
    node count. Not for stateful [f] — a callback counting visits would
    see neither each occurrence nor each shared node exactly once. *)
let map_expr_shared f (e : Expr.t) : Expr.t =
  try direct f (ref Expr.Memo.direct_limit) e with Expr.Memo.Over_limit -> shared f e

let rec fold_expr f acc (e : Expr.t) =
  let acc = f acc e in
  match e with
  | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ -> acc
  | Expr.Binop (_, a, b) | Expr.Cmp (_, a, b) | Expr.And (a, b) | Expr.Or (a, b) ->
      fold_expr f (fold_expr f acc a) b
  | Expr.Not a | Expr.Cast (_, a) -> fold_expr f acc a
  | Expr.Select (c, t, fl) -> fold_expr f (fold_expr f (fold_expr f acc c) t) fl
  | Expr.Load (_, idx) -> List.fold_left (fold_expr f) acc idx
  | Expr.Call (_, args) -> List.fold_left (fold_expr f) acc args

(** Substitute variables by expressions according to [lookup]. [lookup]
    must be pure (it is consulted once per distinct variable node, not
    once per occurrence — see {!map_expr_shared}). *)
let subst_expr lookup e =
  map_expr_shared
    (function Expr.Var v as e -> (match lookup v with Some e' -> e' | None -> e) | e -> e)
    e

(** Substitute in every expression of a statement (does not rename
    binders; lowering guarantees globally unique variable ids). *)
let subst_stmt lookup stmt = Stmt.map_exprs (subst_expr lookup) stmt

let subst_var_expr v replacement e =
  subst_expr (fun v' -> if Expr.Var.equal v v' then Some replacement else None) e

let subst_var_stmt v replacement s =
  subst_stmt (fun v' -> if Expr.Var.equal v v' then Some replacement else None) s

(** Association-list based substitution used by lowering. The binding
    table is built once, outside the per-node lookup — rebuilding it in
    the closure made substitution O(nodes x bindings). *)
let subst_map_expr bindings e =
  let table = Hashtbl.create (List.length bindings * 2) in
  (* reversed so that, as with [List.assoc_opt], the first binding of a
     duplicated var wins *)
  List.iter (fun (v, e) -> Hashtbl.replace table v.Expr.vid e) (List.rev bindings);
  subst_expr (fun v -> Hashtbl.find_opt table v.Expr.vid) e

(** Whether [v] occurs in [e]. Allocates nothing; walks every
    occurrence (no sharing memo), so meant for index-sized
    expressions. *)
let rec mentions (v : Expr.var) (e : Expr.t) =
  match e with
  | Expr.Var v' -> v'.Expr.vid = v.Expr.vid
  | Expr.IntImm _ | Expr.FloatImm _ -> false
  | Expr.Binop (_, a, b) | Expr.Cmp (_, a, b) | Expr.And (a, b) | Expr.Or (a, b) ->
      mentions v a || mentions v b
  | Expr.Not a | Expr.Cast (_, a) -> mentions v a
  | Expr.Select (c, t, f) -> mentions v c || mentions v t || mentions v f
  | Expr.Load (_, es) | Expr.Call (_, es) -> mentions_any v es

and mentions_any v = function [] -> false | e :: es -> mentions v e || mentions_any v es

(** Free variables of an expression (buffer shapes not included). *)
let free_vars e =
  fold_expr (fun acc e -> match e with Expr.Var v -> v :: acc | _ -> acc) [] e
  |> List.sort_uniq Expr.Var.compare

(** All buffers loaded from within an expression. *)
let loaded_buffers e =
  fold_expr (fun acc e -> match e with Expr.Load (b, _) -> b :: acc | _ -> acc) [] e
  |> List.sort_uniq Expr.Buffer.compare

(** Rewrite every reference to buffer [old_b] (loads in expressions,
    stores, DMA endpoints, intrinsic regions) to buffer [new_b],
    transforming index lists with [remap]. *)
let retarget_buffer ~old_b ~new_b ~remap stmt =
  let fix_expr e =
    map_expr_shared
      (function
        | Expr.Load (b, idx) when Expr.Buffer.equal b old_b -> Expr.load new_b (remap idx)
        | e -> e)
      e
  in
  let fix_region (b, idx) =
    if Expr.Buffer.equal b old_b then (new_b, remap idx) else (b, idx)
  in
  Stmt.map
    (function
      | Stmt.Store (b, idx, v) when Expr.Buffer.equal b old_b ->
          Stmt.Store (new_b, remap idx, v)
      | Stmt.Call_intrin ic ->
          Stmt.Call_intrin
            {
              ic with
              Stmt.inputs = List.map fix_region ic.Stmt.inputs;
              Stmt.output = fix_region ic.Stmt.output;
            }
      | Stmt.Dma_copy d ->
          let src, src_base = fix_region (d.Stmt.dma_src, d.Stmt.dma_src_base) in
          let dst, dst_base = fix_region (d.Stmt.dma_dst, d.Stmt.dma_dst_base) in
          Stmt.Dma_copy
            { d with Stmt.dma_src = src; dma_src_base = src_base; dma_dst = dst;
              dma_dst_base = dst_base }
      | s -> s)
    (Stmt.map_exprs fix_expr stmt)
