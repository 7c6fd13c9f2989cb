(* Unit + property tests for the tensor IR: dtypes, expression smart
   constructors, interval analysis, simplification, and the loop
   analyses the timing models rely on. *)

open Tvm_tir
module Nd = Tvm_nd.Ndarray

let check = Alcotest.check
let checkb name = Alcotest.(check bool) name true

(* ------------------------------------------------------------------ *)
(* Dtype                                                                *)
(* ------------------------------------------------------------------ *)

let test_dtype_roundtrip () =
  List.iter
    (fun d -> checkb "roundtrip" (Dtype.equal d (Dtype.of_string (Dtype.to_string d))))
    [ Dtype.Float32; Dtype.Float16; Dtype.Int64; Dtype.Int32; Dtype.Int8;
      Dtype.UInt1; Dtype.UInt2; Dtype.Bool ]

let test_dtype_bits () =
  check Alcotest.int "f32 bits" 32 (Dtype.bits Dtype.Float32);
  check (Alcotest.float 1e-9) "uint2 bytes" 0.25 (Dtype.bytes Dtype.UInt2);
  checkb "int8 integer" (Dtype.is_integer Dtype.Int8);
  checkb "f16 float" (Dtype.is_float Dtype.Float16)

(* ------------------------------------------------------------------ *)
(* Expression smart constructors                                        *)
(* ------------------------------------------------------------------ *)

let test_constant_folding () =
  checkb "add" (Expr.equal Expr.(int 2 + int 3) (Expr.int 5));
  checkb "mul0" (Expr.equal Expr.(int 0 * Expr.Var (Expr.Var.fresh "x")) (Expr.int 0));
  let x = Expr.Var (Expr.Var.fresh "x") in
  checkb "add0" (Expr.equal Expr.(x + int 0) x);
  checkb "mul1" (Expr.equal Expr.(x * int 1) x);
  checkb "div1" (Expr.equal Expr.(x / int 1) x);
  checkb "mod1" (Expr.equal Expr.(x % int 1) (Expr.int 0));
  checkb "min self" (Expr.equal (Expr.min_ x x) x);
  checkb "select const" (Expr.equal (Expr.select (Expr.int 1) x (Expr.int 7)) x)

let test_cmp_folding () =
  checkb "lt" (Expr.equal Expr.(int 2 < int 3) (Expr.int 1));
  checkb "ge" (Expr.equal Expr.(int 2 >= int 3) (Expr.int 0));
  checkb "and short" (Expr.equal (Expr.and_ (Expr.int 0) (Expr.Var (Expr.Var.fresh "y"))) (Expr.int 0))

let test_dtype_of () =
  let b = Expr.Buffer.create ~dtype:Dtype.Int8 "b" [ Expr.int 4 ] in
  checkb "load dtype" (Dtype.equal (Expr.dtype_of (Expr.load b [ Expr.zero ])) Dtype.Int8);
  let x = Expr.Var (Expr.Var.fresh "x") in
  checkb "cmp dtype" (Dtype.equal (Expr.dtype_of Expr.(x < int 2)) Dtype.Bool)

let test_buffer () =
  let b = Expr.Buffer.create "buf" [ Expr.int 3; Expr.int 5 ] in
  check Alcotest.(list int) "const shape" [ 3; 5 ] (Expr.Buffer.const_shape b);
  check Alcotest.int "elems" 15 (Expr.Buffer.num_elems b);
  let b2 = Expr.Buffer.with_scope Expr.Shared b in
  checkb "scope changed" (Expr.Buffer.scope b2 = Expr.Shared);
  checkb "distinct id" (not (Expr.Buffer.equal b b2))

(* Rebuilding through the constructors returns an equal expression:
   every rule of [binop]/[cmp]/[and_]/[or_]/[not_]/[select]/[cast]
   returns an operand, a constant, or the node itself over the same
   children (DESIGN, "Expressions are normal by construction"). The
   random trees lean on the inputs those rules inspect: 0/1
   identities, constant operands, equal [min]/[max] operands built
   apart, constant conditions, casts between Int32, Int64 and Float32,
   float [-0.], and raw [Load]/[Call] nodes no constructor built. *)
type recipe =
  | R_int of int
  | R_float of float
  | R_var of int
  | R_bin of Expr.binop * recipe * recipe
  | R_same of Expr.binop * recipe  (** [op r r], each side built on its own *)
  | R_cmp of Expr.cmpop * recipe * recipe
  | R_and of recipe * recipe
  | R_or of recipe * recipe
  | R_not of recipe
  | R_select of recipe * recipe * recipe
  | R_cast of Dtype.t * recipe
  | R_load of bool * recipe list  (** raw when [true] *)
  | R_call of bool * recipe list

let idem_vars =
  [| Expr.Var.fresh "x"; Expr.Var.fresh "y"; Expr.Var.fresh ~dtype:Dtype.Int64 "w";
     Expr.Var.fresh ~dtype:Dtype.Float32 "f" |]

let idem_buf = Expr.Buffer.create "idem" [ Expr.int 8; Expr.int 8 ]

let rec build_recipe = function
  | R_int n -> Expr.int n
  | R_float f -> Expr.float f
  | R_var i -> Expr.var idem_vars.(i)
  | R_bin (op, a, b) -> Expr.binop op (build_recipe a) (build_recipe b)
  | R_same (op, a) -> Expr.binop op (build_recipe a) (build_recipe a)
  | R_cmp (op, a, b) -> Expr.cmp op (build_recipe a) (build_recipe b)
  | R_and (a, b) -> Expr.and_ (build_recipe a) (build_recipe b)
  | R_or (a, b) -> Expr.or_ (build_recipe a) (build_recipe b)
  | R_not a -> Expr.not_ (build_recipe a)
  | R_select (c, t, f) -> Expr.select (build_recipe c) (build_recipe t) (build_recipe f)
  | R_cast (d, a) -> Expr.cast d (build_recipe a)
  | R_load (raw, idx) ->
      let idx = List.map build_recipe idx in
      if raw then Expr.Load (idem_buf, idx) else Expr.load idem_buf idx
  | R_call (raw, args) ->
      let args = List.map build_recipe args in
      if raw then Expr.Call ("exp", args) else Expr.call "exp" args

let gen_recipe =
  let open QCheck.Gen in
  let binops = Expr.[ Add; Sub; Mul; Div; FloorMod; Min; Max ] in
  let cmpops = Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let leaf =
    frequency
      [
        (4, map (fun n -> R_int n) (oneofl [ -1; 0; 0; 1; 1; 2; 3; 7; -5; 300 ]));
        (1, map (fun n -> R_int n) int);
        (2, map (fun f -> R_float f) (oneofl [ 0.; -0.; 1.; 1.5; -2. ]));
        (4, map (fun i -> R_var i) (int_bound (Array.length idem_vars - 1)));
      ]
  in
  let cond = oneofl [ R_int 0; R_int 1 ] in
  sized_size (int_bound 64)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           let sub = self (n / 2) in
           frequency
             [
               (2, leaf);
               (10, map3 (fun op a b -> R_bin (op, a, b)) (oneofl binops) sub sub);
               (2, map2 (fun op a -> R_same (op, a)) (oneofl Expr.[ Min; Max; Sub; Div ]) sub);
               (2, map3 (fun op a b -> R_cmp (op, a, b)) (oneofl cmpops) sub sub);
               (1, map2 (fun a b -> R_and (a, b)) (oneof [ cond; sub ]) sub);
               (1, map2 (fun a b -> R_or (a, b)) sub (oneof [ cond; sub ]));
               (1, map (fun a -> R_not a) (oneof [ cond; sub ]));
               (2, map3 (fun c t f -> R_select (c, t, f)) (oneof [ cond; sub ]) sub sub);
               ( 2,
                 map2 (fun d a -> R_cast (d, a))
                   (oneofl [ Dtype.Int32; Dtype.Int64; Dtype.Float32 ])
                   sub );
               (1, map2 (fun raw idx -> R_load (raw, idx)) bool (list_size (int_range 1 2) sub));
               (1, map2 (fun raw args -> R_call (raw, args)) bool (list_size (int_range 1 2) sub));
             ])

(* Division or modulus by a zero constant raises while folding; those
   recipes build nothing and are skipped. *)
let constructors_idempotent =
  QCheck.Test.make ~name:"constructor-built expressions are normal" ~count:5000
    (QCheck.make
       ~print:(fun r ->
         match build_recipe r with
         | e -> Printer.expr_to_string e
         | exception Invalid_argument m -> m)
       gen_recipe)
    (fun r ->
      match build_recipe r with
      | exception Invalid_argument _ -> QCheck.assume_fail ()
      | e ->
          let again = Test_helpers.renormalize e in
          Expr.equal again e
          || QCheck.Test.fail_reportf "re-normalized to %s" (Printer.expr_to_string again))

(* ------------------------------------------------------------------ *)
(* Interval analysis                                                    *)
(* ------------------------------------------------------------------ *)

(* [Interval.eval] under an association list from vars to intervals,
   the reference environment of these tests. As with a table filled in
   list order, the last binding of a var wins. *)
let eval_under bindings e =
  let rec last vid found = function
    | [] -> found
    | ((v : Expr.var), i) :: rest ->
        last vid (if v.Expr.vid = vid then Some i else found) rest
  in
  Interval.eval (fun vid -> last vid None bindings) e

let test_interval_basics () =
  let open Interval in
  check Alcotest.int "len" 8 (length (of_extent ~min:0 ~extent:8));
  let a = make 2 5 and b = make (-1) 3 in
  checkb "add" (add a b = make 1 8);
  checkb "mul" (mul (point 3) b = make (-3) 9);
  checkb "union" (union a b = make (-1) 5)

let test_interval_eval () =
  let x = Expr.Var.fresh "x" and y = Expr.Var.fresh "y" in
  let e = Expr.((Var x * int 8) + Var y) in
  let itv =
    eval_under
      [ (x, Interval.of_extent ~min:0 ~extent:4); (y, Interval.of_extent ~min:0 ~extent:8) ]
      e
  in
  checkb "tile range" (itv = Interval.make 0 31)

let test_interval_divmod () =
  let x = Expr.Var.fresh "x" in
  let env = [ (x, Interval.of_extent ~min:0 ~extent:12) ] in
  checkb "div" (eval_under env Expr.(Var x / int 4) = Interval.make 0 2);
  checkb "mod crossing" (eval_under env Expr.(Var x % int 4) = Interval.make 0 3);
  checkb "mod small"
    (eval_under [ (x, Interval.make 4 6) ] Expr.(Var x % int 8) = Interval.make 4 6)

(* Property: interval evaluation is sound — the concrete value of a
   random affine expression always lies within the computed interval. *)
let interval_soundness =
  QCheck.Test.make ~name:"interval soundness on affine exprs" ~count:200
    QCheck.(quad (int_range 1 6) (int_range 1 6) (int_range (-8) 8) (int_range 1 9))
    (fun (ext_x, ext_y, c, d) ->
      let x = Expr.Var.fresh "x" and y = Expr.Var.fresh "y" in
      let modulus = d + 3 in
      let e = Expr.(((Var x * int d) + (Var y * int c)) % int modulus) in
      let env =
        [ (x, Interval.of_extent ~min:0 ~extent:ext_x);
          (y, Interval.of_extent ~min:0 ~extent:ext_y) ]
      in
      let itv = eval_under env e in
      let ok = ref true in
      for vx = 0 to ext_x - 1 do
        for vy = 0 to ext_y - 1 do
          let v =
            let m = (vx * d) + (vy * c) in
            let r = m mod modulus in
            if r < 0 then r + modulus else r
          in
          if not (Interval.contains itv v) then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Simplify                                                             *)
(* ------------------------------------------------------------------ *)

let test_simplify_stmt () =
  let v = Expr.Var.fresh "i" in
  let b = Expr.Buffer.create "out" [ Expr.int 4 ] in
  let dead = Stmt.For { Stmt.loop_var = v; min_ = Expr.zero; extent = Expr.int 0;
                        kind = Stmt.Serial; body = Stmt.Store (b, [ Expr.zero ], Expr.f32 1.) } in
  checkb "zero-trip loop removed" (Simplify.stmt dead = Stmt.Skip);
  let taken = Stmt.If_then_else (Expr.int 1, Stmt.Skip, Some (Stmt.Store (b, [ Expr.zero ], Expr.f32 1.))) in
  checkb "taken branch" (Simplify.stmt taken = Stmt.Skip)

let test_single_trip_loop () =
  let v = Expr.Var.fresh "i" in
  let b = Expr.Buffer.create "out" [ Expr.int 4 ] in
  let s = Stmt.for_ v (Expr.int 2) (Expr.int 1) (Stmt.Store (b, [ Expr.Var v ], Expr.f32 1.)) in
  (* single-trip loops become lets, which simplify substitutes away *)
  match Simplify.stmt s with
  | Stmt.Store (_, [ Expr.IntImm 2 ], _) -> ()
  | other -> Alcotest.failf "expected direct store, got %s" (Printer.stmt_to_string other)

(* An [If] whose branches both simplify away is itself dropped, so a
   second pass finds nothing left to do. *)
let test_empty_if_dropped () =
  let v = Expr.Var.fresh "i" and c = Expr.Var.fresh "c" in
  let b = Expr.Buffer.create "out" [ Expr.int 4 ] in
  let dead = Stmt.for_ v Expr.zero Expr.zero (Stmt.Store (b, [ Expr.zero ], Expr.f32 1.)) in
  let s = Stmt.If_then_else (Expr.(var c < int 2), dead, Some dead) in
  checkb "both branches empty" (Simplify.stmt s = Stmt.Skip)

(* The per-binding simplifier [Simplify.stmt] replaced, as the oracle
   for its single pass: every cheap binding rewrites its whole body
   through [Visit.subst_var_stmt], a serial unit loop's body is
   simplified once before and once after its binding is substituted,
   and every expression is re-normalized. Its empty-[If] rule is
   today's, under which simplification is idempotent. *)
let rec per_binding_simplify (s : Stmt.t) : Stmt.t =
  let go = per_binding_simplify and ex = Test_helpers.renormalize in
  match s with
  | Stmt.Store (b, idx, v) -> Stmt.Store (b, List.map ex idx, ex v)
  | Stmt.For l -> (
      let min_ = ex l.Stmt.min_ and extent = ex l.Stmt.extent in
      let body = go l.Stmt.body in
      match extent with
      | Expr.IntImm 0 -> Stmt.Skip
      | Expr.IntImm 1 when l.Stmt.kind = Stmt.Serial ->
          go (Stmt.Let_stmt (l.Stmt.loop_var, min_, body))
      | _ -> Stmt.For { l with min_; extent; body })
  | Stmt.If_then_else (c, t, e) -> (
      match ex c with
      | Expr.IntImm 0 -> ( match e with Some e -> go e | None -> Stmt.Skip)
      | Expr.IntImm _ -> go t
      | c -> (
          match (go t, Option.map go e) with
          | Stmt.Skip, (None | Some Stmt.Skip) -> Stmt.Skip
          | t, Some Stmt.Skip -> Stmt.If_then_else (c, t, None)
          | t, e -> Stmt.If_then_else (c, t, e)))
  | Stmt.Let_stmt (v, e, b) -> (
      match ex e with
      | (Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _) as e -> go (Visit.subst_var_stmt v e b)
      | e -> Stmt.Let_stmt (v, e, go b))
  | Stmt.Seq ss -> Stmt.seq (List.concat_map Stmt.flatten_seq (List.map go ss))
  | Stmt.Allocate (b, body) -> (
      match go body with Stmt.Skip -> Stmt.Skip | body -> Stmt.Allocate (b, body))
  | Stmt.Evaluate e -> Stmt.Evaluate (ex e)
  | Stmt.Call_intrin _ | Stmt.Dma_copy _ | Stmt.Barrier | Stmt.Push_dep _
  | Stmt.Pop_dep _ | Stmt.Skip ->
      s

(* Same statement shape, every expression structurally equal. *)
let rec equal_stmt (a : Stmt.t) (b : Stmt.t) =
  match (a, b) with
  | Stmt.Store (b1, i1, v1), Stmt.Store (b2, i2, v2) ->
      b1 == b2 && List.equal Expr.equal i1 i2 && Expr.equal v1 v2
  | Stmt.For l1, Stmt.For l2 ->
      Expr.Var.equal l1.Stmt.loop_var l2.Stmt.loop_var
      && Expr.equal l1.Stmt.min_ l2.Stmt.min_
      && Expr.equal l1.Stmt.extent l2.Stmt.extent
      && l1.Stmt.kind = l2.Stmt.kind
      && equal_stmt l1.Stmt.body l2.Stmt.body
  | Stmt.If_then_else (c1, t1, e1), Stmt.If_then_else (c2, t2, e2) ->
      Expr.equal c1 c2 && equal_stmt t1 t2 && Option.equal equal_stmt e1 e2
  | Stmt.Let_stmt (v1, e1, b1), Stmt.Let_stmt (v2, e2, b2) ->
      Expr.Var.equal v1 v2 && Expr.equal e1 e2 && equal_stmt b1 b2
  | Stmt.Seq s1, Stmt.Seq s2 -> List.equal equal_stmt s1 s2
  | Stmt.Allocate (b1, s1), Stmt.Allocate (b2, s2) -> b1 == b2 && equal_stmt s1 s2
  | Stmt.Evaluate e1, Stmt.Evaluate e2 -> Expr.equal e1 e2
  | Stmt.Skip, Stmt.Skip -> true
  | _ -> false

(* A random loop program over the variables in scope: nests of [For]
   (extents 0, 1 and 3, or symbolic; serial and annotated), cheap and
   non-cheap [Let_stmt], [If] with and without an else branch, [Seq]
   and [Allocate], around stores whose indices mix the bound
   variables. *)
let random_program rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let out = Expr.Buffer.create "out" [ Expr.int 64 ] in
  let free = Expr.Var.fresh "n" in
  let rec gen_expr vars depth =
    if depth = 0 || Random.State.int rng 3 = 0 then
      if Random.State.bool rng then Expr.int (Random.State.int rng 4)
      else Expr.var (pick vars)
    else
      let a = gen_expr vars (depth - 1) and b = gen_expr vars (depth - 1) in
      let divisor () = Expr.int (1 + Random.State.int rng 3) in
      match Random.State.int rng 6 with
      | 0 -> Expr.(a + b)
      | 1 -> Expr.(a - b)
      | 2 -> Expr.(a * b)
      | 3 -> Expr.(a / divisor ())
      | 4 -> Expr.(a % divisor ())
      | _ -> if Random.State.bool rng then Expr.min_ a b else Expr.max_ a b
  in
  let cheap vars = if Random.State.bool rng then Expr.int 2 else Expr.var (pick vars) in
  let rec gen vars depth =
    let leaf () =
      Stmt.Store (out, [ gen_expr vars 3 ], Expr.cast Dtype.Float32 (gen_expr vars 2))
    in
    if depth = 0 then leaf ()
    else
      let sub vars = gen vars (depth - 1) in
      match Random.State.int rng 12 with
      | 0 | 1 | 2 ->
          let v = Expr.Var.fresh "i" in
          let extent =
            pick [ Expr.zero; Expr.one; Expr.one; Expr.int 3; gen_expr vars 1 ]
          in
          let kind = pick [ Stmt.Serial; Stmt.Serial; Stmt.Parallel; Stmt.Unrolled ] in
          let min_ = if Random.State.bool rng then cheap vars else gen_expr vars 2 in
          Stmt.for_ ~kind v min_ extent (sub (v :: vars))
      | 3 | 4 ->
          let v = Expr.Var.fresh "l" in
          let value = if Random.State.bool rng then cheap vars else gen_expr vars 2 in
          Stmt.Let_stmt (v, value, sub (v :: vars))
      | 5 | 6 ->
          let c = Expr.(gen_expr vars 2 < gen_expr vars 1) in
          let e = if Random.State.bool rng then Some (sub vars) else None in
          Stmt.If_then_else (c, sub vars, e)
      | 7 | 8 | 9 -> Stmt.Seq (List.init (Random.State.int rng 5) (fun _ -> sub vars))
      | 10 -> Stmt.Allocate (Expr.Buffer.create "tmp" [ Expr.int 4 ], sub vars)
      | _ -> leaf ()
  in
  gen [ free ] 7

let single_pass_simplify_matches_per_binding =
  QCheck.Test.make ~name:"single-pass simplify = per-binding simplify" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let s = random_program (Random.State.make [| seed |]) in
      let expected = per_binding_simplify s and got = Simplify.stmt s in
      equal_stmt expected got
      || QCheck.Test.fail_reportf "per-binding:\n%s\nsingle pass:\n%s"
           (Printer.stmt_to_string expected) (Printer.stmt_to_string got))

(* ------------------------------------------------------------------ *)
(* Analysis                                                             *)
(* ------------------------------------------------------------------ *)

(* A hand-built 2-level tiled copy loop for footprint checks. *)
let tiled_copy () =
  let src = Expr.Buffer.create "src" [ Expr.int 64 ] in
  let dst = Expr.Buffer.create "dst" [ Expr.int 64 ] in
  let o = Expr.Var.fresh "o" and i = Expr.Var.fresh "i" in
  let idx = Expr.((Var o * int 8) + Var i) in
  let body = Stmt.Store (dst, [ idx ], Expr.load src [ idx ]) in
  (Stmt.for_ o Expr.zero (Expr.int 8) (Stmt.for_ i Expr.zero (Expr.int 8) body), src, dst)

let accesses_of stmt =
  (Analysis.program ~intrin_flops:(fun _ -> 0.) stmt).Analysis.accesses

let test_collect_accesses () =
  let stmt, src, _ = tiled_copy () in
  let accesses = accesses_of stmt in
  check Alcotest.int "two accesses" 2 (List.length accesses);
  let load = List.find (fun a -> not a.Analysis.acc_is_store) accesses in
  checkb "load buffer" (Expr.Buffer.equal load.Analysis.acc_buffer src);
  check Alcotest.int "count" 64 load.Analysis.acc_count

let test_footprints () =
  let stmt, _, _ = tiled_copy () in
  let load =
    List.find (fun a -> not a.Analysis.acc_is_store) (accesses_of stmt)
  in
  check Alcotest.int "whole" 64 (Analysis.footprint_at_level load 0);
  check Alcotest.int "inner tile" 8 (Analysis.footprint_at_level load 1);
  check Alcotest.int "point" 1 (Analysis.footprint_at_level load 2);
  (* Occurrences of one variable are never merged: [x - x] over 8
     iterations spans [-7, 7], interval arithmetic's 15, not 1. *)
  let x = Expr.Var.fresh "x" in
  let a = Expr.Buffer.create "a" [ Expr.int 64 ] in
  let store = Stmt.Store (a, [ Expr.(var x - var x) ], Expr.f32 0.) in
  match accesses_of (Stmt.for_ x Expr.zero (Expr.int 8) store) with
  | [ acc ] -> check Alcotest.int "x - x" 15 (Analysis.footprint_at_level acc 0)
  | _ -> Alcotest.fail "expected one access"

let test_strides () =
  let stmt, _, _ = tiled_copy () in
  let load =
    List.find (fun a -> not a.Analysis.acc_is_store) (accesses_of stmt)
  in
  (match load.Analysis.acc_loops with
  | [ o; i ] ->
      checkb "stride o" (Analysis.stride_wrt load o.Analysis.lvar = Some 8);
      checkb "stride i" (Analysis.stride_wrt load i.Analysis.lvar = Some 1)
  | _ -> Alcotest.fail "expected two loops");
  checkb "unit innermost" (Analysis.is_unit_stride_innermost load)

(* The walk the index skeletons replaced, kept as their reference:
   an association-list environment per query, through
   [eval_under]. *)
let ref_env_at_level (a : Analysis.access) level =
  List.mapi
    (fun depth l ->
      let m = Option.value ~default:0 (Interval.const_of_expr l.Analysis.lmin) in
      let itv =
        if depth >= level then Interval.of_extent ~min:m ~extent:l.Analysis.lextent
        else Interval.point m
      in
      (l.Analysis.lvar, itv))
    a.Analysis.acc_loops

let ref_footprint (a : Analysis.access) level =
  let env = ref_env_at_level a level in
  try
    List.fold_left
      (fun acc idx -> acc * Interval.length (eval_under env idx))
      1 a.Analysis.acc_indices
  with Interval.Not_analyzable _ -> (
    try Expr.Buffer.num_elems a.Analysis.acc_buffer with _ -> 1)

let ref_stride (a : Analysis.access) (v : Expr.var) =
  let shape = try Expr.Buffer.const_shape a.Analysis.acc_buffer with _ -> [] in
  if shape = [] || List.length shape <> List.length a.Analysis.acc_indices then None
  else
    let rec build = function [] -> [] | _ :: rest -> List.fold_left ( * ) 1 rest :: build rest in
    let flat_at value =
      let env =
        List.map
          (fun l ->
            let m = Option.value ~default:0 (Interval.const_of_expr l.Analysis.lmin) in
            (l.Analysis.lvar, Interval.point (if Expr.Var.equal l.Analysis.lvar v then value else m)))
          a.Analysis.acc_loops
      in
      try
        Some
          (List.fold_left ( + ) 0
             (List.map2
                (fun idx stride ->
                  let itv = eval_under env idx in
                  if itv.Interval.lo = itv.Interval.hi then itv.Interval.lo * stride
                  else raise (Interval.Not_analyzable "range"))
                a.Analysis.acc_indices (build shape)))
      with Interval.Not_analyzable _ -> None
    in
    match (flat_at 0, flat_at 1) with Some x, Some y -> Some (y - x) | _ -> None

(* A random loop nest over a pool of three vars (so a var id can bind
   two depths) with extents from -1 to 5 (extent-1 loops, and empty
   ranges that take the fallback), minima from -2 to 3 (now and then
   not constant), and one store whose one or two indices are random
   raw trees: repeated vars under [+]/[-], nested [*] by constants from
   -3 to 3 on either side, div and mod (now and then by a subtree,
   which may be zero, negative or a range), min, max, select, cast,
   comparisons, a rare constant past 2^31, and rare float, load, call
   and unbound-var leaves. Loads in the indices are accesses too. *)
let random_nest rng =
  let pool = Array.init 3 (fun i -> Expr.Var.fresh (Printf.sprintf "l%d" i)) in
  let foreign = Expr.Var.fresh "foreign" in
  let int n = Expr.IntImm n in
  let between lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let buf = Expr.Buffer.create "g" [ Expr.int 16 ] in
  let leaf () =
    match Random.State.int rng 80 with
    | 0 -> Expr.FloatImm 0.5
    | 1 -> Expr.Load (buf, [ Expr.Var pool.(0) ])
    | 2 -> Expr.Call ("popcount", [])
    | 3 -> Expr.Var foreign
    | 4 -> int ((1 lsl 31) + 1)
    | k when k < 30 -> int (between (-3) 5)
    | _ -> Expr.Var pool.(Random.State.int rng 3)
  in
  let rec gen n =
    if n = 0 then leaf ()
    else
      let sub () = gen (n - 1) in
      let bin op a b = Expr.Binop (op, a, b) in
      match Random.State.int rng 16 with
      | 0 | 1 | 2 -> bin Expr.Add (sub ()) (sub ())
      | 3 | 4 | 5 -> bin Expr.Sub (sub ()) (sub ())
      | 6 | 7 -> bin Expr.Mul (sub ()) (int (between (-3) 3))
      | 8 -> bin Expr.Mul (int (between (-3) 3)) (sub ())
      | 9 -> bin Expr.Mul (sub ()) (sub ())
      | 10 ->
          let divisor = if Random.State.int rng 4 = 0 then sub () else int (between 1 4) in
          bin (if Random.State.bool rng then Expr.Div else Expr.FloorMod) (sub ()) divisor
      | 11 -> bin (if Random.State.bool rng then Expr.Min else Expr.Max) (sub ()) (sub ())
      | 12 -> Expr.Select (Expr.Cmp (Expr.Lt, sub (), sub ()), sub (), sub ())
      | 13 -> Expr.Cast (Dtype.Int64, sub ())
      | 14 -> Expr.Cmp (Expr.Ge, sub (), sub ())
      | _ -> leaf ()
  in
  let n_idx = between 1 2 in
  let rank = if Random.State.int rng 5 = 0 then 3 - n_idx else n_idx in
  let dst = Expr.Buffer.create "dst" (List.init rank (fun _ -> Expr.int 16)) in
  let body = Stmt.Store (dst, List.init n_idx (fun _ -> gen (between 0 4)), Expr.FloatImm 0.) in
  let nest =
    List.fold_left
      (fun body _ ->
        let min_ = if Random.State.int rng 12 = 0 then Expr.Var foreign else int (between (-2) 3) in
        Stmt.For
          { Stmt.loop_var = pool.(Random.State.int rng 3); min_;
            extent = int (between (-1) 5); kind = Stmt.Serial; body })
      body
      (List.init (between 0 4) Fun.id)
  in
  (nest, Array.to_list pool @ [ foreign ])

let shuffle rng l =
  List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))

(* Footprints at every level -1..depth+1, asked twice in a shuffled
   order (a stale or misplaced memo entry would show), and strides for
   every var, equal the association-list walk on every access. *)
let skeleton_matches_interval_walk =
  QCheck.Test.make ~name:"index skeletons = interval walk" ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nest, vars = random_nest rng in
      List.for_all
        (fun (a : Analysis.access) ->
          let depth = List.length a.Analysis.acc_loops in
          let levels = List.init (depth + 3) (fun l -> l - 1) in
          List.for_all
            (fun l -> Analysis.footprint_at_level a l = ref_footprint a l)
            (shuffle rng levels @ shuffle rng levels)
          && List.for_all (fun v -> Analysis.stride_wrt a v = ref_stride a v) vars)
        (accesses_of nest))

let test_flops () =
  let b = Expr.Buffer.create "acc" [ Expr.int 1 ] in
  let v = Expr.Var.fresh "k" in
  let body =
    Stmt.Store (b, [ Expr.zero ],
      Expr.(Expr.load b [ Expr.zero ] + (Expr.load b [ Expr.zero ] * f32 3.)))
  in
  let loop = Stmt.for_ v Expr.zero (Expr.int 10) body in
  let p = Analysis.program ~intrin_flops:(fun _ -> 0.) loop in
  check (Alcotest.float 1e-9) "2 flops x 10" 20. p.Analysis.flops

let test_ann_summary () =
  let v = Expr.Var.fresh "p" in
  let b = Expr.Buffer.create "o" [ Expr.int 4 ] in
  let s = Stmt.For { Stmt.loop_var = v; min_ = Expr.zero; extent = Expr.int 4;
                     kind = Stmt.Parallel; body = Stmt.Store (b, [ Expr.Var v ], Expr.f32 0.) } in
  let loops = (Analysis.program ~intrin_flops:(fun _ -> 0.) s).Analysis.loops in
  let count kind =
    List.length (List.filter (fun l -> l.Analysis.site_kind = kind) loops)
  in
  check Alcotest.int "parallel" 1 (count Stmt.Parallel);
  check Alcotest.int "serial" 0 (count Stmt.Serial)

(* A loop whose extent is a free variable: the feature vector keeps the
   annotation, allocation and barrier features and zeroes flops and the
   buffer slots; the GPU model rejects a bad shared allocation before
   it raises; both models raise on the extent. *)
let test_non_constant_extent () =
  let n = Expr.Var.fresh "n" and i = Expr.Var.fresh "i" and tx = Expr.Var.fresh "tx" in
  let src = Expr.Buffer.create "src" [ Expr.int 64 ] in
  let dst = Expr.Buffer.create "dst" [ Expr.int 64 ] in
  let prog shared_elems =
    let tile = Expr.Buffer.create ~scope:Expr.Shared "tile" [ Expr.int shared_elems ] in
    let copy =
      Stmt.Store (dst, [ Expr.Var i ], Expr.(load src [ Var i ] * f32 2.))
    in
    Stmt.Allocate
      ( tile,
        Stmt.for_ ~kind:(Stmt.Thread_binding "threadIdx.x") tx Expr.zero (Expr.int 32)
          (Stmt.seq [ Stmt.Barrier; Stmt.for_ i Expr.zero (Expr.Var n) copy ]) )
  in
  let s = prog 4 in
  let expected = Array.make Tvm_autotune.Feature.length 0. in
  expected.(4) <- 1.;
  expected.(6) <- 1.;
  expected.(7) <- Float.log 17.;
  expected.(9) <- 1.;
  check
    Alcotest.(array (float 0.))
    "features" expected (Tvm_autotune.Feature.extract s);
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Non_constant_extent" name
    | exception Analysis.Non_constant_extent e -> check Alcotest.string name "n" e
  in
  let gpu = Tvm_sim.Gpu_model.estimate Tvm_sim.Machine.titan_x in
  raises "gpu" (fun () -> gpu s);
  raises "cpu" (fun () -> Tvm_sim.Cpu_model.estimate Tvm_sim.Machine.xeon_host s);
  checkb "gpu rejects shared overflow first"
    (not (gpu (prog 65536)).Tvm_sim.Gpu_model.valid)

(* An access indexed by [x / y] lies outside the interval fragment:
   evaluation raises [Not_analyzable], the footprint falls back to the
   whole buffer and feature extraction still succeeds. *)
let test_variable_divisor () =
  let x = Expr.Var.fresh "x" and y = Expr.Var.fresh "y" in
  let src = Expr.Buffer.create "src" [ Expr.int 64 ] in
  let dst = Expr.Buffer.create "dst" [ Expr.int 64 ] in
  let idx = Expr.(var x / var y) in
  let env = [ (x, Interval.of_extent ~min:0 ~extent:8); (y, Interval.of_extent ~min:1 ~extent:4) ] in
  (match eval_under env idx with
  | _ -> Alcotest.fail "expected Not_analyzable"
  | exception Interval.Not_analyzable _ -> ());
  let stmt =
    Stmt.for_ x Expr.zero (Expr.int 8)
      (Stmt.for_ y Expr.one (Expr.int 4)
         (Stmt.Store (dst, [ Expr.var x ], Expr.load src [ idx ])))
  in
  let load = List.find (fun a -> not a.Analysis.acc_is_store) (accesses_of stmt) in
  check Alcotest.int "whole-buffer footprint" 64 (Analysis.footprint_at_level load 1);
  check Alcotest.int "feature length" Tvm_autotune.Feature.length
    (Array.length (Tvm_autotune.Feature.extract stmt))

(* ------------------------------------------------------------------ *)
(* Visit / substitution                                                 *)
(* ------------------------------------------------------------------ *)

let test_subst () =
  let x = Expr.Var.fresh "x" in
  let e = Expr.((Var x * int 2) + int 1) in
  let e' = Visit.subst_var_expr x (Expr.int 5) e in
  checkb "subst folds" (Expr.equal e' (Expr.int 11))

let test_free_vars () =
  let x = Expr.Var.fresh "x" and y = Expr.Var.fresh "y" in
  let e = Expr.((Var x + Var y) * Var x) in
  check Alcotest.int "two free vars" 2 (List.length (Visit.free_vars e))

let test_retarget () =
  let b1 = Expr.Buffer.create "a" [ Expr.int 8 ] in
  let b2 = Expr.Buffer.create "b" [ Expr.int 8 ] in
  let v = Expr.Var.fresh "i" in
  let s = Stmt.for_ v Expr.zero (Expr.int 8)
      (Stmt.Store (b1, [ Expr.Var v ], Expr.load b1 [ Expr.Var v ])) in
  let s' = Visit.retarget_buffer ~old_b:b1 ~new_b:b2 ~remap:Fun.id s in
  let uses_b1 = ref false in
  Stmt.iter
    (function Stmt.Store (b, _, _) when Expr.Buffer.equal b b1 -> uses_b1 := true | _ -> ())
    s';
  checkb "no b1 store left" (not !uses_b1)

(* ------------------------------------------------------------------ *)
(* Direct walks vs memo walks                                           *)
(* ------------------------------------------------------------------ *)

(* A plain [Hashtbl] over physical identity, independent of the
   [Expr.Memo] tables under test. *)
module Phys = Test_helpers.Phys

(* Reference for [Interval.eval]: a memo walk over the whole
   expression, with no node limit. *)
let rec memo_eval memo env (e : Expr.t) : Interval.t =
  match e with
  | Expr.Binop _ | Expr.Select _ | Expr.Cast _ -> (
      match Phys.find_opt memo e with
      | Some i -> i
      | None ->
          let i =
            match e with
            | Expr.Binop (op, a, b) -> (
                let ia = memo_eval memo env a and ib = memo_eval memo env b in
                match op with
                | Expr.Add -> Interval.add ia ib
                | Expr.Sub -> Interval.sub ia ib
                | Expr.Mul -> Interval.mul ia ib
                | Expr.Div -> Interval.div ia ib
                | Expr.FloorMod -> Interval.modulo ia ib
                | Expr.Min -> Interval.min_ ia ib
                | Expr.Max -> Interval.max_ ia ib)
            | Expr.Select (_, t, f) -> Interval.union (memo_eval memo env t) (memo_eval memo env f)
            | Expr.Cast (_, a) -> memo_eval memo env a
            | _ -> assert false
          in
          Phys.add memo e i;
          i)
  | _ -> Interval.eval env e (* no recursion below these *)

let outcome f = match f () with i -> Ok i | exception Interval.Not_analyzable m -> Error m

(* A random DAG over [vars]: each step combines earlier entries of a
   pool, mostly the last three, so subtrees are shared. About a quarter
   of the DAGs pass [Expr.Memo.direct_limit] composite nodes, some many
   times over; a cap on tree size keeps the unshared [Visit.map_expr]
   affordable. Rare leaves (a load, a call, a float, an unbound var, a
   variable divisor) put each [Not_analyzable] case in reach. *)
let random_dag rng vars =
  let buf = Expr.Buffer.create "b" [ Expr.int 16 ] in
  let any_var () = Expr.var vars.(Random.State.int rng (Array.length vars)) in
  let leaf () =
    match Random.State.int rng 60 with
    | 0 -> Expr.load buf [ any_var () ]
    | 1 -> Expr.call "popcount" [ any_var () ]
    | 2 -> Expr.float 0.5
    | 3 -> Expr.var (Expr.Var.fresh "unbound")
    | 4 -> Expr.binop Expr.Div (any_var ()) (any_var ())
    | k when k < 25 -> Expr.int (Random.State.int rng 9 - 2)
    | _ -> any_var ()
  in
  let n = 2 + Random.State.int rng 60 in
  let pool = Array.make n (Expr.zero, 1) in
  for k = 0 to n - 1 do
    let pick () =
      if k = 0 || Random.State.int rng 6 = 0 then (leaf (), 1)
      else pool.(k - 1 - Random.State.int rng (min k 3))
    in
    let (a, sa), (b, sb) = (pick (), pick ()) in
    let d () = Expr.int (1 + Random.State.int rng 4) in
    pool.(k) <-
      (if sa + sb > 2000 then (a, sa)
       else
         match Random.State.int rng 10 with
         | 0 | 1 -> (Expr.(a + b), sa + sb + 1)
         | 2 -> (Expr.(a - b), sa + sb + 1)
         | 3 | 4 -> (Expr.(a * b), sa + sb + 1)
         | 5 -> (Expr.(a / d ()), sa + 2)
         | 6 -> (Expr.(a % d ()), sa + 2)
         | 7 -> ((if Random.State.bool rng then Expr.min_ a b else Expr.max_ a b), sa + sb + 1)
         | 8 -> (Expr.select Expr.(a < b) a b, (2 * (sa + sb)) + 2)
         | _ -> (Expr.cast Dtype.Int64 a, sa + 1))
  done;
  fst pool.(n - 1)

let dag_vars = Array.init 3 (fun i -> Expr.Var.fresh (Printf.sprintf "v%d" i))

let dag_env vid =
  if vid = dag_vars.(0).Expr.vid then Some (Interval.make 0 7)
  else if vid = dag_vars.(1).Expr.vid then Some (Interval.make (-3) 2)
  else if vid = dag_vars.(2).Expr.vid then Some (Interval.point 5)
  else None

let direct_eval_matches_memo_walk =
  QCheck.Test.make ~name:"direct interval eval = memo walk" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let e = random_dag (Random.State.make [| seed |]) dag_vars in
      outcome (fun () -> Interval.eval dag_env e)
      = outcome (fun () -> memo_eval (Phys.create 16) dag_env e))

(* A pure callback that rewrites both variables and constants. *)
let dag_rewrite = function
  | Expr.Var v when Expr.Var.equal v dag_vars.(0) -> Expr.(var dag_vars.(1) + int 1)
  | Expr.IntImm n when n >= 0 -> Expr.int (n + 1)
  | e -> e

let map_shared_matches_map =
  QCheck.Test.make ~name:"map_expr_shared = map_expr for a pure callback" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let e = random_dag (Random.State.make [| seed |]) dag_vars in
      Expr.equal (Visit.map_expr dag_rewrite e) (Visit.map_expr_shared dag_rewrite e))

(* A callback that changes nothing returns its input itself, nodes
   built without the smart constructors included; one that changes
   part of the tree agrees with [map_expr]. *)
let map_shared_keeps_unchanged =
  let buf = Expr.Buffer.create "raw" [ Expr.int 16 ] in
  let only_v2 = function
    | Expr.Var v when Expr.Var.equal v dag_vars.(2) -> Expr.int 5
    | e -> e
  in
  QCheck.Test.make ~name:"map_expr_shared keeps what the callback keeps" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let e = random_dag (Random.State.make [| seed |]) dag_vars in
      let raw = Expr.Call ("exp", [ Expr.Load (buf, [ e ]) ]) in
      Visit.map_expr_shared Fun.id e == e
      && Visit.map_expr_shared Fun.id raw == raw
      && Expr.equal (Visit.map_expr only_v2 raw) (Visit.map_expr_shared only_v2 raw))

(* e_{k+1} = e_k * 3 + e_k from e_0 = [v]: 40 levels make a tree of
   more than 2^40 nodes from 82 distinct ones, so only the memo
   fallbacks finish. *)
let deep_chain v =
  let rec build e k = if k = 0 then e else build Expr.((e * int 3) + e) (k - 1) in
  build (Expr.var v) 40

let test_deep_dag_bounded () =
  let x = Expr.Var.fresh "x" and y = Expr.Var.fresh "y" in
  let e = deep_chain x in
  let t0 = Sys.time () in
  let env_x vid = if vid = x.Expr.vid then Some (Interval.make 0 1) else None in
  let env_y vid = if vid = y.Expr.vid then Some (Interval.make 0 1) else None in
  let itv = Interval.eval env_x e in
  let e' = Visit.subst_var_expr x (Expr.var y) e in
  checkb "substituted eval" (Interval.eval env_y e' = itv);
  checkb "memo walk agrees" (memo_eval (Phys.create 16) env_x e = itv);
  (* flops e_{k+1} = 2 flops e_k + 2 *)
  checkb "flops" (Analysis.expr_flops e = Float.pow 2. 41. -. 2.);
  checkb "under a second" (Sys.time () -. t0 < 1.0)

(* Two builds of the chain share no node. *)
let test_deep_dag_equal () =
  let x = Expr.Var.fresh "x" and y = Expr.Var.fresh "y" in
  let t0 = Sys.time () in
  let a = deep_chain x and b = deep_chain x in
  checkb "separate builds" (a != b);
  checkb "equal" (Expr.equal a b);
  checkb "max_ folds them" (Expr.max_ a b == a);
  checkb "chains over different vars differ" (not (Expr.equal a (deep_chain y)));
  checkb "under a second" (Sys.time () -. t0 < 1.0)

(* Reference for [Expr.equal]: plain recursion over every occurrence. *)
let rec plain_equal (a : Expr.t) (b : Expr.t) =
  let all = List.equal plain_equal in
  match (a, b) with
  | Expr.IntImm x, Expr.IntImm y -> x = y
  | Expr.FloatImm x, Expr.FloatImm y -> Float.equal x y
  | Expr.Var x, Expr.Var y -> Expr.Var.equal x y
  | Expr.Binop (o1, a1, b1), Expr.Binop (o2, a2, b2) -> o1 = o2 && all [ a1; b1 ] [ a2; b2 ]
  | Expr.Cmp (o1, a1, b1), Expr.Cmp (o2, a2, b2) -> o1 = o2 && all [ a1; b1 ] [ a2; b2 ]
  | Expr.And (a1, b1), Expr.And (a2, b2) | Expr.Or (a1, b1), Expr.Or (a2, b2) ->
      all [ a1; b1 ] [ a2; b2 ]
  | Expr.Not a, Expr.Not b -> plain_equal a b
  | Expr.Select (c1, t1, f1), Expr.Select (c2, t2, f2) -> all [ c1; t1; f1 ] [ c2; t2; f2 ]
  | Expr.Cast (d1, a), Expr.Cast (d2, b) -> Dtype.equal d1 d2 && plain_equal a b
  | Expr.Load (b1, i1), Expr.Load (b2, i2) -> Expr.Buffer.equal b1 b2 && all i1 i2
  | Expr.Call (n1, a1), Expr.Call (n2, a2) -> n1 = n2 && all a1 a2
  | _ -> false

(* Two builds from one seed (equal unless an unbound-var leaf was
   drawn: each build mints its own), a DAG against its rewrite, and
   [a + a] against [b + c], where the shared [a] meets a node equal to
   it first and then one that mostly is not. *)
let equal_matches_plain =
  QCheck.Test.make ~name:"Expr.equal = plain recursion" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let build () = random_dag (Random.State.make [| seed |]) dag_vars in
      let a = build () and b = build () in
      let c = Visit.map_expr dag_rewrite a in
      let agree x y = Expr.equal x y = plain_equal x y in
      agree a b && agree a c && agree Expr.(a + a) Expr.(b + c))

(* ------------------------------------------------------------------ *)
(* Expr.Memo                                                            *)
(* ------------------------------------------------------------------ *)

(* [n] physically distinct keys; key [k] and key [k + n/2] are
   structurally equal but not the same node. *)
let memo_keys n =
  let x = Expr.Var.fresh "x" in
  Array.init n (fun k -> Expr.Binop (Expr.Add, Expr.Var x, Expr.IntImm (k mod (n / 2))))

let key_value = function Expr.Binop (_, _, Expr.IntImm k) -> k * 7 | _ -> -1

(* Below the limit, [compute] runs once per physically distinct key,
   however often the table grows from its 16 buckets. *)
let test_memo_computes_once () =
  let keys = memo_keys 600 in
  let memo = Expr.Memo.create 16 and computed = ref 0 in
  let compute e = incr computed; key_value e in
  for round = 1 to 3 do
    Array.iteri
      (fun i _ ->
        (* a different order each round *)
        let e = keys.((i * (2 * round + 1)) mod Array.length keys) in
        if Expr.Memo.memo memo compute e <> key_value e then Alcotest.fail "wrong value")
      keys
  done;
  check Alcotest.int "one compute per distinct key" (Array.length keys) !computed

(* Past its limit the table empties and keeps answering correctly. *)
let test_memo_overflow () =
  let keys = memo_keys 200 in
  let memo = Expr.Memo.create ~limit:50 16 and computed = ref 0 in
  let compute e = incr computed; key_value e in
  for _ = 1 to 2 do
    Array.iter
      (fun e -> if Expr.Memo.memo memo compute e <> key_value e then Alcotest.fail "wrong value")
      keys
  done;
  checkb "overflow recomputed" (!computed > Array.length keys)

(* A compute that recurses into the same table, as
   [Analysis.expr_flops] does, grows the table (and, with a small
   limit, empties it) under its own probe. The results must still be
   the tree sizes of the shared DAG, and without a limit each distinct
   composite node is computed once. *)
let memo_reentrant =
  QCheck.Test.make ~name:"re-entrant memo compute = plain recursion" ~count:300
    QCheck.(pair (int_range 0 1_000_000) (int_range 8 200))
    (fun (seed, limit) ->
      (* four DAGs, so most tables grow past their 16 buckets *)
      let rng = Random.State.make [| seed |] in
      let e = List.fold_left Expr.( + ) Expr.zero (List.init 4 (fun _ -> random_dag rng dag_vars)) in
      let rec plain (e : Expr.t) =
        match e with
        | Expr.Binop (_, a, b) -> 1 + plain a + plain b
        | Expr.Cast (_, a) -> 1 + plain a
        | Expr.Select (c, t, f) -> 1 + plain c + plain t + plain f
        | _ -> 1
      in
      let distinct = Phys.create 16 in
      let rec collect (e : Expr.t) =
        match e with
        | (Expr.Binop _ | Expr.Cast _ | Expr.Select _) when not (Phys.mem distinct e) -> (
            Phys.add distinct e ();
            match e with
            | Expr.Binop (_, a, b) -> collect a; collect b
            | Expr.Cast (_, a) -> collect a
            | Expr.Select (c, t, f) -> collect c; collect t; collect f
            | _ -> ())
        | _ -> ()
      in
      collect e;
      let sizes memo =
        let computed = ref 0 in
        let rec size (e : Expr.t) =
          match e with
          | Expr.Binop _ | Expr.Cast _ | Expr.Select _ -> Expr.Memo.memo memo node e
          | _ -> 1
        and node (e : Expr.t) =
          incr computed;
          match e with
          | Expr.Binop (_, a, b) -> 1 + size a + size b
          | Expr.Cast (_, a) -> 1 + size a
          | Expr.Select (c, t, f) -> 1 + size c + size t + size f
          | _ -> 1
        in
        let first = size e in
        let second = size e in
        (first, second, !computed)
      in
      let expected = plain e in
      let a, a', computed = sizes (Expr.Memo.create 16) in
      let b, b', _ = sizes (Expr.Memo.create ~limit 16) in
      a = expected && a' = expected && computed = Phys.length distinct
      && b = expected && b' = expected)

let suite =
  [
    Alcotest.test_case "dtype roundtrip" `Quick test_dtype_roundtrip;
    Alcotest.test_case "dtype bits" `Quick test_dtype_bits;
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "cmp folding" `Quick test_cmp_folding;
    Alcotest.test_case "dtype_of" `Quick test_dtype_of;
    Alcotest.test_case "buffer" `Quick test_buffer;
    QCheck_alcotest.to_alcotest constructors_idempotent;
    Alcotest.test_case "interval basics" `Quick test_interval_basics;
    Alcotest.test_case "interval eval" `Quick test_interval_eval;
    Alcotest.test_case "interval div/mod" `Quick test_interval_divmod;
    QCheck_alcotest.to_alcotest interval_soundness;
    Alcotest.test_case "simplify stmt" `Quick test_simplify_stmt;
    Alcotest.test_case "single-trip loop" `Quick test_single_trip_loop;
    Alcotest.test_case "empty if dropped" `Quick test_empty_if_dropped;
    QCheck_alcotest.to_alcotest single_pass_simplify_matches_per_binding;
    Alcotest.test_case "collect accesses" `Quick test_collect_accesses;
    Alcotest.test_case "footprints" `Quick test_footprints;
    Alcotest.test_case "strides" `Quick test_strides;
    QCheck_alcotest.to_alcotest skeleton_matches_interval_walk;
    Alcotest.test_case "flops" `Quick test_flops;
    Alcotest.test_case "ann summary" `Quick test_ann_summary;
    Alcotest.test_case "non-constant extent" `Quick test_non_constant_extent;
    Alcotest.test_case "variable divisor" `Quick test_variable_divisor;
    Alcotest.test_case "substitution" `Quick test_subst;
    Alcotest.test_case "free vars" `Quick test_free_vars;
    Alcotest.test_case "retarget buffer" `Quick test_retarget;
    QCheck_alcotest.to_alcotest direct_eval_matches_memo_walk;
    QCheck_alcotest.to_alcotest map_shared_matches_map;
    QCheck_alcotest.to_alcotest map_shared_keeps_unchanged;
    Alcotest.test_case "40-level DAG in bounded time" `Quick test_deep_dag_bounded;
    Alcotest.test_case "40-level DAGs built apart compare equal" `Quick test_deep_dag_equal;
    QCheck_alcotest.to_alcotest equal_matches_plain;
    Alcotest.test_case "memo computes once per node" `Quick test_memo_computes_once;
    Alcotest.test_case "memo overflow" `Quick test_memo_overflow;
    QCheck_alcotest.to_alcotest memo_reentrant;
  ]
