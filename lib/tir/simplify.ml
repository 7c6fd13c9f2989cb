(** Simplification passes.

    The smart constructors in {!Expr} fold constants at construction
    time; these passes re-apply them after substitution (which can
    expose new constants) and prune trivial control flow. The
    statement pass is a single walk: cheap let bindings and serial
    unit loops extend an environment that the expressions below them
    are substituted from, so each expression is rebuilt once. *)

(* Per-domain memo over physically-shared nodes: hash-consed
   construction makes shared subtrees physically equal, so each is
   re-normalized once per domain instead of once per occurrence.
   Sound because the rebuild is pure and nodes are immutable; bounded
   so a long tuning run cannot pin every expression it ever saw. *)
let memo_key = Domain.DLS.new_key (fun () -> Expr.Memo.create ~limit:(1 lsl 16) 4096)

(** Deep re-normalization of an expression: rebuilding through the
    smart constructors folds any constants exposed by substitution. *)
let rec expr e =
  match e with
  | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ -> e
  | _ -> Expr.Memo.memo (Domain.DLS.get memo_key) renormalize e

and renormalize e =
  match e with
  | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ -> e
  | Expr.Binop (op, a, b) -> Expr.binop op (expr a) (expr b)
  | Expr.Cmp (op, a, b) -> Expr.cmp op (expr a) (expr b)
  | Expr.And (a, b) -> Expr.and_ (expr a) (expr b)
  | Expr.Or (a, b) -> Expr.or_ (expr a) (expr b)
  | Expr.Not a -> Expr.not_ (expr a)
  | Expr.Select (c, t, f) -> Expr.select (expr c) (expr t) (expr f)
  | Expr.Cast (d, a) -> Expr.cast d (expr a)
  | Expr.Load (b, idx) -> Expr.load b (List.map expr idx)
  | Expr.Call (n, args) -> Expr.call n (List.map expr args)

(* [env] maps the var ids bound so far to their cheap values. One
   substitution per expression gives what substituting binding by
   binding would, because the smart constructors fold only locally
   (DESIGN, "Substitution commutes with folding"). *)
let rec stmt_in env (s : Stmt.t) : Stmt.t =
  let ex =
    match env with
    | [] -> expr
    | _ -> Visit.subst_expr (fun v -> List.assoc_opt v.Expr.vid env)
  in
  let go = stmt_in env in
  match s with
  | Stmt.Store (b, idx, v) -> Stmt.Store (b, List.map ex idx, ex v)
  | Stmt.For l -> (
      let min_ = ex l.Stmt.min_ and extent = ex l.Stmt.extent in
      match extent with
      | Expr.IntImm 0 -> Stmt.Skip
      | Expr.IntImm 1 when l.Stmt.kind = Stmt.Serial ->
          (* Only serial unit loops collapse to a binding; thread-bound
             / parallel / vectorized loops keep their annotation (the
             device models price them by kind). *)
          bind env l.Stmt.loop_var min_ l.Stmt.body
      | _ -> Stmt.For { l with min_; extent; body = go l.Stmt.body })
  | Stmt.If_then_else (c, t, e) -> (
      match ex c with
      | Expr.IntImm 0 -> ( match e with Some e -> go e | None -> Stmt.Skip)
      | Expr.IntImm _ -> go t
      | c -> (
          (* Emptied in both branches, the [If] goes too, which keeps
             the pass idempotent (DESIGN, "Substitution commutes with
             folding"). *)
          match (go t, Option.map go e) with
          | Stmt.Skip, (None | Some Stmt.Skip) -> Stmt.Skip
          | t, Some Stmt.Skip -> Stmt.If_then_else (c, t, None)
          | t, e -> Stmt.If_then_else (c, t, e)))
  | Stmt.Let_stmt (v, e, b) -> bind env v (ex e) b
  | Stmt.Seq ss ->
      let ss = List.map go ss in
      let ss = List.concat_map Stmt.flatten_seq ss in
      Stmt.seq ss
  | Stmt.Allocate (b, body) -> (
      match go body with Stmt.Skip -> Stmt.Skip | body -> Stmt.Allocate (b, body))
  | Stmt.Evaluate e -> Stmt.Evaluate (ex e)
  | Stmt.Call_intrin ic ->
      Stmt.Call_intrin
        {
          ic with
          Stmt.inputs = List.map (fun (b, idx) -> (b, List.map ex idx)) ic.Stmt.inputs;
          Stmt.output = (fst ic.Stmt.output, List.map ex (snd ic.Stmt.output));
        }
  | Stmt.Dma_copy d ->
      Stmt.Dma_copy
        {
          d with
          Stmt.dma_src_base = List.map ex d.Stmt.dma_src_base;
          Stmt.dma_dst_base = List.map ex d.Stmt.dma_dst_base;
        }
  | Stmt.Barrier | Stmt.Push_dep _ | Stmt.Pop_dep _ | Stmt.Skip -> s

(* [v] bound to the simplified value [e] over [body]: cheap values are
   substituted through, others stay a binding. *)
and bind env v e body =
  match e with
  | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ -> stmt_in ((v.Expr.vid, e) :: env) body
  | _ -> Stmt.Let_stmt (v, e, stmt_in env body)

(** Re-normalize every expression of a statement, substitute cheap let
    bindings (and serial unit loops) through, and prune trivial control
    flow: zero-trip loops, constant conditions, empty branches and
    allocations. *)
let stmt s = stmt_in [] s
