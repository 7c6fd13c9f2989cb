(* Shared helpers for the test suite: reference kernels, random
   tensors, and a lower+interpret harness. *)

open Tvm_tir
module Tensor = Tvm_te.Tensor
module Sched = Tvm_schedule.Sched
module Lower = Tvm_lower.Lower
module Interp = Tvm_sim.Interp
module Nd = Tvm_nd.Ndarray

let checkb name = Alcotest.(check bool) name true

(** Lower [sched] and execute with the given tensor bindings. *)
let run ?(target = Lower.Cpu) sched bindings =
  let stmt = Lower.lower ~target sched in
  Interp.run stmt ~bindings:(List.map (fun (t, v) -> (Tensor.buffer t, v)) bindings);
  stmt

(** Reference dense: C[y,x] = sum_k A[y,k] * B[x,k]. *)
let ref_dense a b =
  match (Nd.shape a, Nd.shape b) with
  | [ m; k ], [ n; _ ] ->
      Nd.init [ m; n ] (fun idx ->
          match idx with
          | [ y; x ] ->
              let acc = ref 0. in
              for kk = 0 to k - 1 do
                acc := !acc +. (Nd.get a [ y; kk ] *. Nd.get b [ x; kk ])
              done;
              !acc
          | _ -> assert false)
  | _ -> invalid_arg "ref_dense"

(** Reference direct conv2d, NCHW/OIHW, SAME-style explicit padding. *)
let ref_conv2d ?(stride = 1) ?(pad = 1) data weight =
  match (Nd.shape data, Nd.shape weight) with
  | [ n; c; h; w ], [ oc; _; kh; kw ] ->
      let oh = ((h + (2 * pad) - kh) / stride) + 1 in
      let ow = ((w + (2 * pad) - kw) / stride) + 1 in
      Nd.init [ n; oc; oh; ow ] (fun idx ->
          match idx with
          | [ bn; f; y; x ] ->
              let acc = ref 0. in
              for ic = 0 to c - 1 do
                for dy = 0 to kh - 1 do
                  for dx = 0 to kw - 1 do
                    let yy = (y * stride) + dy - pad and xx = (x * stride) + dx - pad in
                    if yy >= 0 && yy < h && xx >= 0 && xx < w then
                      acc :=
                        !acc
                        +. (Nd.get data [ bn; ic; yy; xx ] *. Nd.get weight [ f; ic; dy; dx ])
                  done
                done
              done;
              !acc
          | _ -> assert false)
  | _ -> invalid_arg "ref_conv2d"

(** Run a te output tensor with a default (untransformed) schedule. *)
let run_default output bindings =
  let sched = Sched.create [ output ] in
  run sched bindings

let approx ?(tol = 1e-4) name a b = checkb name (Nd.equal_approx ~tol a b)

(** Expressions keyed by physical identity. *)
module Phys = Hashtbl.Make (struct
  type t = Expr.t

  let equal = ( == )
  let hash = Expr.hash
end)

(** The re-normalization [Simplify] once ran over every expression of a
    lowered program, kept as an oracle: rebuild bottom-up through the
    smart constructors, each physically distinct node once per call. An
    expression the constructors built is a structural fixed point of it
    (DESIGN, "Expressions are normal by construction"). *)
let renormalize e =
  let memo = Phys.create 64 in
  let rec go (e : Expr.t) =
    match e with
    | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ -> e
    | _ -> (
        match Phys.find_opt memo e with
        | Some r -> r
        | None ->
            let r = rebuild e in
            Phys.add memo e r;
            r)
  and rebuild (e : Expr.t) =
    match e with
    | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ -> e
    | Expr.Binop (op, a, b) -> Expr.binop op (go a) (go b)
    | Expr.Cmp (op, a, b) -> Expr.cmp op (go a) (go b)
    | Expr.And (a, b) -> Expr.and_ (go a) (go b)
    | Expr.Or (a, b) -> Expr.or_ (go a) (go b)
    | Expr.Not a -> Expr.not_ (go a)
    | Expr.Select (c, t, f) -> Expr.select (go c) (go t) (go f)
    | Expr.Cast (d, a) -> Expr.cast d (go a)
    | Expr.Load (b, idx) -> Expr.load b (List.map go idx)
    | Expr.Call (n, args) -> Expr.call n (List.map go args)
  in
  go e
