(* Golden lowering corpus: a fixed, seeded sample of configurations over
   every Table-2 workload x the flat GPU/CPU templates plus a dense GPU
   matmul, each lowered, printed and featurized. The digest of that
   output pins lowering and feature extraction byte for byte, so a
   change to the IR's hashing, memoization or construction that claims
   "same output, less time" is held to it. The corpus also drives the
   hash-quality checks on the expression intern table. *)

open Tvm_tir
module Cfg = Tvm_autotune.Cfg_space
module Tuner = Tvm_autotune.Tuner
module Templates = Tvm_autotune.Templates
module Feature = Tvm_autotune.Feature
module Workloads = Tvm_models.Workloads
open Test_helpers

(* Digest of the corpus output on the reference implementation. Update
   only for a deliberate change to lowered programs or features, never
   for a change that claims to preserve them. *)
let expected_digest = "b2bd6ffcb1c066a9746ea828caf1cc8c"

let configs_per_template = 12
let matmul_configs = 34

(* One corpus entry: template label, config, then either the printed
   program and its features in exact hex, or the invalid verdict. *)
let render buf label (tpl : Tuner.template) cfg =
  Buffer.add_string buf label;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Cfg.to_string cfg);
  Buffer.add_char buf '\n';
  match tpl.Tuner.tpl_instantiate cfg with
  | exception _ -> Buffer.add_string buf "invalid\n"
  | stmt ->
      Buffer.add_string buf (Printer.stmt_to_string stmt);
      Buffer.add_char buf '\n';
      Array.iter
        (fun f -> Buffer.add_string buf (Printf.sprintf "%h " f))
        (Feature.extract stmt);
      Buffer.add_char buf '\n'

let sample buf label (tpl : Tuner.template) ~seed n =
  let rs = Random.State.make [| 1913; seed |] in
  for _ = 1 to n do
    render buf label tpl (Cfg.random_config tpl.Tuner.tpl_space rs)
  done

let corpus =
  lazy
    (let buf = Buffer.create (1 lsl 20) in
     List.iteri
       (fun wi (w : Workloads.conv) ->
         let out = Tvm_experiments.Fig_e2e.conv_tensor w in
         List.iteri
           (fun ti (tname, mk) ->
             let tpl = mk ~name:("golden_" ^ w.Workloads.name) out in
             sample buf (w.Workloads.name ^ "/" ^ tname) tpl
               ~seed:((wi * 2) + ti) configs_per_template)
           [ ("gpu_flat", Templates.gpu_flat); ("cpu_flat", Templates.cpu_flat) ])
       Workloads.all;
     let a = Tvm_te.Tensor.placeholder "golden_a" [ Expr.int 256; Expr.int 256 ] in
     let b = Tvm_te.Tensor.placeholder "golden_b" [ Expr.int 256; Expr.int 256 ] in
     let c = Tvm_te.Operators.dense ~name:"golden_c" a b in
     sample buf "dense/gpu_matmul" (Templates.gpu_matmul ~name:"golden_mm" c)
       ~seed:1000 matmul_configs;
     Buffer.contents buf)

let test_corpus_digest () =
  let out = Lazy.force corpus in
  checkb "corpus lowered real programs"
    (List.length (String.split_on_char '\n' out) > 1000);
  Alcotest.(check string)
    "printed programs, features and verdicts match the reference" expected_digest
    (Digest.to_hex (Digest.string out))

(* ------------------------------------------------------------------ *)
(* Hash quality of the hash-consed IR                                   *)
(* ------------------------------------------------------------------ *)

(* The corpus builds many node families that differ only deep inside
   (fused-axis index chains); a hash that sees only their first few
   words piles each family into one bucket. *)
let test_intern_buckets () =
  ignore (Lazy.force corpus);
  let longest = Expr.Hashcons.max_bucket () in
  if longest > 32 then
    Alcotest.failf "intern table's longest bucket is %d after the corpus (> 32)" longest

(* A recipe for an expression; building it twice through the smart
   constructors must give one interned node, and a physically fresh
   copy of that node must hash the same. *)
type recipe =
  | R_int of int
  | R_float of float
  | R_var of int
  | R_bin of Expr.binop * recipe * recipe
  | R_cmp of Expr.cmpop * recipe * recipe
  | R_and of recipe * recipe
  | R_not of recipe
  | R_select of recipe * recipe * recipe
  | R_cast of recipe
  | R_load of recipe list
  | R_call of recipe list

(* Two distinct vars share the name "x". *)
let hq_vars = [| Expr.Var.fresh "x"; Expr.Var.fresh "x"; Expr.Var.fresh "y" |]
let hq_buf = Expr.Buffer.create "hq_buf" [ Expr.int 8; Expr.int 8 ]

(* Bit-distinct floats that compare equal ([0.]/[-0.]) or unordered
   (both NaN signs). *)
let hq_floats = [| 0.; -0.; Float.nan; Float.neg Float.nan; 1.5; Float.infinity |]

let rec build = function
  | R_int n -> Expr.int n
  | R_float f -> Expr.float f
  | R_var i -> Expr.var hq_vars.(i)
  | R_bin (op, a, b) -> Expr.binop op (build a) (build b)
  | R_cmp (op, a, b) -> Expr.cmp op (build a) (build b)
  | R_and (a, b) -> Expr.and_ (build a) (build b)
  | R_not a -> Expr.not_ (build a)
  | R_select (c, t, f) -> Expr.select (build c) (build t) (build f)
  | R_cast a -> Expr.cast Dtype.Float32 (build a)
  | R_load idx -> Expr.load hq_buf (List.map build idx)
  | R_call args -> Expr.call "exp" (List.map build args)

(* Structurally identical, physically fresh at every node. *)
let rec fresh_copy (e : Expr.t) : Expr.t =
  match e with
  | Expr.IntImm n -> Expr.IntImm n
  | Expr.FloatImm f -> Expr.FloatImm f
  | Expr.Var v -> Expr.Var v
  | Expr.Binop (op, a, b) -> Expr.Binop (op, fresh_copy a, fresh_copy b)
  | Expr.Cmp (op, a, b) -> Expr.Cmp (op, fresh_copy a, fresh_copy b)
  | Expr.And (a, b) -> Expr.And (fresh_copy a, fresh_copy b)
  | Expr.Or (a, b) -> Expr.Or (fresh_copy a, fresh_copy b)
  | Expr.Not a -> Expr.Not (fresh_copy a)
  | Expr.Select (c, t, f) -> Expr.Select (fresh_copy c, fresh_copy t, fresh_copy f)
  | Expr.Cast (d, a) -> Expr.Cast (d, fresh_copy a)
  | Expr.Load (b, idx) -> Expr.Load (b, List.map fresh_copy idx)
  | Expr.Call (n, args) -> Expr.Call (n, List.map fresh_copy args)

let gen_recipe =
  let open QCheck.Gen in
  let binops = Expr.[ Add; Sub; Mul; Div; FloorMod; Min; Max ] in
  let cmpops = Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let leaf =
    oneof
      [
        map (fun n -> R_int n) (oneof [ int_range (-2) 300; int ]);
        map (fun i -> R_float hq_floats.(i)) (int_bound (Array.length hq_floats - 1));
        map (fun i -> R_var i) (int_bound (Array.length hq_vars - 1));
      ]
  in
  sized_size (int_bound 40)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           let sub = self (n / 2) in
           frequency
             [
               (2, leaf);
               (4, map3 (fun op a b -> R_bin (op, a, b)) (oneofl binops) sub sub);
               (1, map3 (fun op a b -> R_cmp (op, a, b)) (oneofl cmpops) sub sub);
               (1, map2 (fun a b -> R_and (a, b)) sub sub);
               (1, map (fun a -> R_not a) sub);
               (1, map3 (fun c t f -> R_select (c, t, f)) sub sub sub);
               (1, map (fun a -> R_cast a) sub);
               (1, map (fun idx -> R_load idx) (list_size (int_range 1 3) sub));
               (1, map (fun args -> R_call args) (list_size (int_range 1 2) sub));
             ])

(* [Div]/[FloorMod] by a zero constant raise while folding; those
   recipes build nothing and are skipped. *)
let hash_agrees_with_structure =
  QCheck.Test.make ~name:"equal structure, equal hash" ~count:500
    (QCheck.make
       ~print:(fun r ->
         match build r with
         | e -> Printer.expr_to_string e
         | exception Invalid_argument m -> m)
       gen_recipe)
    (fun r ->
      match build r with
      | exception Invalid_argument _ -> QCheck.assume_fail ()
      | e ->
          let again = build r in
          again == e && Expr.hash (fresh_copy e) = Expr.hash e)

let test_hash_edge_cases () =
  let x1 = Expr.var hq_vars.(0) and x2 = Expr.var hq_vars.(1) in
  checkb "same-name vars stay distinct nodes" (x1 != x2);
  checkb "same-name vars hash apart" (Expr.hash x1 <> Expr.hash x2);
  checkb "0. and -0. stay distinct nodes" (Expr.float 0. != Expr.float (-0.));
  checkb "NaN interns to one node" (Expr.float Float.nan == Expr.float Float.nan);
  checkb "NaN signs stay distinct nodes"
    (Expr.float Float.nan != Expr.float (Float.neg Float.nan));
  (* operand order matters *)
  checkb "a-b and b-a hash apart"
    (Expr.hash (Expr.binop Expr.Sub x1 x2) <> Expr.hash (Expr.binop Expr.Sub x2 x1))

(* The hash runs on every intern and memo probe; it must not allocate. *)
let test_hash_allocates_nothing () =
  let v = Expr.var hq_vars.(2) in
  let e =
    Expr.load hq_buf
      [ Expr.binop Expr.Add (Expr.binop Expr.Mul v (Expr.int 12544)) (Expr.float 2.5);
        Expr.cast Dtype.Float32 (Expr.call "exp" [ v ]) ]
  in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Expr.hash e))
  done;
  let words = Gc.minor_words () -. before in
  if words > 0. then Alcotest.failf "1000 hashes allocated %.0f minor words" words

(* ------------------------------------------------------------------ *)
(* Measurement golden: tuning histories and a compiled kernel table      *)
(* ------------------------------------------------------------------ *)

(* Fault-free tuning through the device pool must not depend on how
   the pool is built: the histories (config, exact time, attempts) of
   two ops at 1 and 4 devices, plus the kernel table of one small
   build, are pinned to the reference digest. *)
let expected_measure_digest = "7407320689658efe087a1c0a427d5ede"

let measure_corpus () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (op, devices) ->
      let out = Tvm_experiments.Fig_e2e.conv_tensor (Workloads.find op) in
      let tpl = Templates.gpu_flat ~name:("golden_tune_" ^ op) out in
      let spec =
        Tvm_spec.Job_spec.make ~op:Tvm_spec.Job_spec.Tune ~workload:op ~trials:24
          ~seed:21 ~jobs:1 ~devices ()
      in
      let pool = Tvm_rpc.Device_pool.of_spec spec in
      let kind_pred _ = true in
      let res =
        Tuner.tune ~spec
          ~measure_batch:(Tvm_rpc.Device_pool.batch_measure_fn pool ~kind_pred)
          ~method_:Tuner.Ml_model
          ~measure:(Tvm_rpc.Device_pool.measure_fn pool ~kind_pred)
          ~n_trials:24 tpl
      in
      List.iter
        (fun (t : Tuner.trial) ->
          Buffer.add_string buf
            (Printf.sprintf "%s/%d %s %s %d\n" op devices (Cfg.to_string t.Tuner.config)
               (match t.Tuner.result.Tvm_autotune.Measure_result.time_s with
               | Some v -> Printf.sprintf "%h" v
               | None -> "-")
               t.Tuner.result.Tvm_autotune.Measure_result.attempts))
        res.Tuner.history)
    [ ("C7", 1); ("C7", 4); ("D4", 1); ("D4", 4) ];
  let spec =
    Tvm_spec.Job_spec.make ~op:Tvm_spec.Job_spec.Compile ~workload:"dqn" ~target:"cuda"
      ~trials:8 ~seed:21 ~jobs:1 ()
  in
  let r =
    Tvm.Compiler.build ~spec ~tuned:(Tvm.Compiler.create_tuned_cache ())
      (Tvm_models.Models.dqn ()) (Tvm.Target.cuda ())
  in
  List.iter
    (fun (k : Tvm_runtime.Rt_module.kernel) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %h %s\n" k.Tvm_runtime.Rt_module.k_name
           k.Tvm_runtime.Rt_module.k_time_s
           (Digest.to_hex
              (Digest.string (Printer.stmt_to_string k.Tvm_runtime.Rt_module.k_stmt)))))
    (Tvm_runtime.Rt_module.kernels r.Tvm.Compiler.module_);
  Buffer.contents buf

let test_measure_digest () =
  let out = measure_corpus () in
  checkb "histories and kernels recorded"
    (List.length (String.split_on_char '\n' out) > 100);
  Alcotest.(check string)
    "tuning histories and kernel table match the reference"
    expected_measure_digest
    (Digest.to_hex (Digest.string out))

let suite =
  [
    Alcotest.test_case "golden lowering corpus digest" `Quick test_corpus_digest;
    Alcotest.test_case "intern buckets stay short on the corpus" `Quick
      test_intern_buckets;
    QCheck_alcotest.to_alcotest hash_agrees_with_structure;
    Alcotest.test_case "hash edge cases: floats, same-name vars" `Quick
      test_hash_edge_cases;
    Alcotest.test_case "hash allocates nothing" `Quick test_hash_allocates_nothing;
    Alcotest.test_case "tuning histories and kernel table digest" `Quick
      test_measure_digest;
  ]
