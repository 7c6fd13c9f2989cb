(* Golden lowering corpus: a fixed, seeded sample of configurations over
   every Table-2 workload x the flat GPU/CPU templates plus a dense GPU
   matmul, each lowered, printed and featurized. The digest of that
   output pins lowering and feature extraction byte for byte, so a
   change to the IR's hashing, memoization or construction that claims
   "same output, less time" is held to it. A second digest pins both
   machine models on the same programs. The corpus also drives the
   hash-quality check on the expression memos. *)

open Tvm_tir
module Cfg = Tvm_autotune.Cfg_space
module Tuner = Tvm_autotune.Tuner
module Templates = Tvm_autotune.Templates
module Feature = Tvm_autotune.Feature
module Gbt = Tvm_autotune.Gbt
module Workloads = Tvm_models.Workloads
open Test_helpers

(* Digest of the corpus output on the reference implementation. Update
   only for a deliberate change to lowered programs or features, never
   for a change that claims to preserve them. *)
let expected_digest = "b2bd6ffcb1c066a9746ea828caf1cc8c"

let configs_per_template = 12
let matmul_configs = 34

(* Every corpus configuration, in corpus order: its label line and
   the lowered program, or [None] when lowering rejects the config. *)
let programs =
  lazy
    (let entries = ref [] in
     let sample label (tpl : Tuner.template) ~seed n =
       let rs = Random.State.make [| 1913; seed |] in
       for _ = 1 to n do
         let cfg = Cfg.random_config tpl.Tuner.tpl_space rs in
         let stmt = Tuner.try_instantiate tpl cfg in
         entries := (label ^ " " ^ Cfg.to_string cfg, stmt) :: !entries
       done
     in
     List.iteri
       (fun wi (w : Workloads.conv) ->
         let out = Tvm_experiments.Fig_e2e.conv_tensor w in
         List.iteri
           (fun ti (tname, mk) ->
             let tpl = mk ~name:("golden_" ^ w.Workloads.name) out in
             sample (w.Workloads.name ^ "/" ^ tname) tpl
               ~seed:((wi * 2) + ti) configs_per_template)
           [ ("gpu_flat", Templates.gpu_flat); ("cpu_flat", Templates.cpu_flat) ])
       Workloads.all;
     let a = Tvm_te.Tensor.placeholder "golden_a" [ Expr.int 256; Expr.int 256 ] in
     let b = Tvm_te.Tensor.placeholder "golden_b" [ Expr.int 256; Expr.int 256 ] in
     let c = Tvm_te.Operators.dense ~name:"golden_c" a b in
     sample "dense/gpu_matmul" (Templates.gpu_matmul ~name:"golden_mm" c)
       ~seed:1000 matmul_configs;
     List.rev !entries)

(* One corpus entry: label line, then either the printed program and
   its features in exact hex, or the invalid verdict. *)
let corpus =
  lazy
    (let buf = Buffer.create (1 lsl 20) in
     List.iter
       (fun (label, stmt) ->
         Buffer.add_string buf label;
         Buffer.add_char buf '\n';
         match stmt with
         | None -> Buffer.add_string buf "invalid\n"
         | Some stmt ->
             Buffer.add_string buf (Printer.stmt_to_string stmt);
             Buffer.add_char buf '\n';
             Array.iter
               (fun f -> Buffer.add_string buf (Printf.sprintf "%h " f))
               (Feature.extract stmt);
             Buffer.add_char buf '\n')
       (Lazy.force programs);
     Buffer.contents buf)

let test_corpus_digest () =
  let out = Lazy.force corpus in
  checkb "corpus lowered real programs"
    (List.length (String.split_on_char '\n' out) > 1000);
  Alcotest.(check string)
    "printed programs, features and verdicts match the reference" expected_digest
    (Digest.to_hex (Digest.string out))

(* ------------------------------------------------------------------ *)
(* Hash quality                                                         *)
(* ------------------------------------------------------------------ *)

(* Expressions keyed by structure, each distinct node once. *)
module Structural = Hashtbl.Make (struct
  type t = Expr.t

  let equal = Expr.equal
  let hash = Expr.hash
end)

(* The corpus builds many node families that differ only deep inside
   (fused-axis index chains); a hash that sees only their first few
   words piles each family into one bucket of the [Expr.Memo] tables
   that [Analysis], [Visit], [Interval] and [Expr.equal] key by it.
   Every structurally distinct node of the corpus programs goes into
   one memo. *)
let test_memo_buckets () =
  let distinct = Structural.create 4096 in
  let rec add (e : Expr.t) =
    if not (Structural.mem distinct e) then begin
      Structural.add distinct e ();
      match e with
      | Expr.IntImm _ | Expr.FloatImm _ | Expr.Var _ -> ()
      | Expr.Binop (_, a, b) | Expr.Cmp (_, a, b) | Expr.And (a, b) | Expr.Or (a, b) ->
          add a;
          add b
      | Expr.Not a | Expr.Cast (_, a) -> add a
      | Expr.Select (c, t, f) -> add c; add t; add f
      | Expr.Load (_, es) | Expr.Call (_, es) -> List.iter add es
    end
  in
  List.iter
    (fun (_, stmt) -> Option.iter (Stmt.fold_exprs (fun () e -> add e) ()) stmt)
    (Lazy.force programs);
  let memo = Expr.Memo.create 4096 in
  Structural.iter (fun e () -> Expr.Memo.memo memo ignore e) distinct;
  let rec length n = function
    | Expr.Memo.Empty -> n
    | Expr.Memo.Cons c -> length (n + 1) c.next
  in
  let longest = Array.fold_left (fun m b -> max m (length 0 b)) 0 memo.Expr.Memo.buckets in
  checkb "the corpus has thousands of distinct nodes" (Structural.length distinct > 5000);
  if longest > 32 then
    Alcotest.failf "memo's longest bucket is %d over %d corpus nodes (> 32)" longest
      (Structural.length distinct)

(* A recipe for an expression; building it twice through the smart
   constructors must give two equal nodes of one hash, and a physically
   fresh copy of that node must hash the same. *)
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
          Expr.equal again e
          && Expr.hash again = Expr.hash e
          && Expr.hash (fresh_copy e) = Expr.hash e)

let test_hash_edge_cases () =
  let x1 = Expr.var hq_vars.(0) and x2 = Expr.var hq_vars.(1) in
  checkb "same-name vars stay distinct nodes" (x1 != x2);
  checkb "same-name vars hash apart" (Expr.hash x1 <> Expr.hash x2);
  checkb "0. and -0. stay distinct nodes" (Expr.float 0. != Expr.float (-0.));
  checkb "NaN signs stay distinct nodes"
    (Expr.float Float.nan != Expr.float (Float.neg Float.nan));
  (* operand order matters *)
  checkb "a-b and b-a hash apart"
    (Expr.hash (Expr.binop Expr.Sub x1 x2) <> Expr.hash (Expr.binop Expr.Sub x2 x1))

(* The hash runs on every memo probe; it must not allocate. *)
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
(* Machine models on the corpus                                         *)
(* ------------------------------------------------------------------ *)

(* Every field of both analytical timing models on every corpus
   program: the GPU model on titan_x and on mali forced to fp16, the
   CPU model on xeon_host and arm_a53. An exception is recorded by
   name. A change to how the models read a program must leave this
   digest unchanged. *)
let expected_model_digest = "973d46011b9b708c2e05624c24e7ca8f"

let model_corpus () =
  let buf = Buffer.create (1 lsl 18) in
  let line name f =
    Buffer.add_string buf name;
    (match f () with
    | fields -> List.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %h" v)) fields
    | exception e -> Buffer.add_string buf (" raise " ^ Printexc.to_string e));
    Buffer.add_char buf '\n'
  in
  let gpu ?force_dtype m stmt () =
    let r = Tvm_sim.Gpu_model.estimate ?force_dtype m stmt in
    Tvm_sim.Gpu_model.
      [ float_of_int r.blocks; float_of_int r.threads_per_block; r.global_bytes;
        r.shared_bytes; r.flops; r.compute_s; r.global_s; r.shared_s; r.total_s;
        (if r.valid then 1. else 0.) ]
  in
  let cpu m stmt () =
    let r = Tvm_sim.Cpu_model.estimate m stmt in
    Tvm_sim.Cpu_model.
      [ r.compute_s; r.dram_s; r.l2_s; r.overhead_s; r.dram_bytes; r.l2_bytes;
        r.flops; r.total_s ]
  in
  List.iter
    (fun (label, stmt) ->
      match stmt with
      | None -> ()
      | Some stmt ->
          Buffer.add_string buf (label ^ "\n");
          line "titan_x" (gpu Tvm_sim.Machine.titan_x stmt);
          line "mali_fp16" (gpu ~force_dtype:Dtype.Float16 Tvm_sim.Machine.mali_t860 stmt);
          line "xeon_host" (cpu Tvm_sim.Machine.xeon_host stmt);
          line "arm_a53" (cpu Tvm_sim.Machine.arm_a53 stmt))
    (Lazy.force programs);
  Buffer.contents buf

let test_model_digest () =
  let out = model_corpus () in
  checkb "models priced the corpus"
    (List.length (String.split_on_char '\n' out) > 1000);
  Alcotest.(check string)
    "GPU and CPU model breakdowns match the reference" expected_model_digest
    (Digest.to_hex (Digest.string out))

(* ------------------------------------------------------------------ *)
(* GBT cost model: fitted trees                                         *)
(* ------------------------------------------------------------------ *)

(* Every fitted tree (split feature, [%h] threshold and leaf) and the
   pairwise rank accuracy, for both objectives, on: the corpus's
   feature rows, which have tied values and constant columns; a seeded
   96-row set fitted sequentially and on a 4-domain pool; and sets too
   small to split. A change to how the split search runs must leave
   this digest unchanged. *)
let expected_gbt_digest = "e4ac5cbb14624231fa48656a742474de"

let rec print_tree buf = function
  | Gbt.Leaf v -> Printf.bprintf buf "%h" v
  | Gbt.Node n ->
      Printf.bprintf buf "(f%d<=%h " n.feature n.threshold;
      print_tree buf n.left;
      Buffer.add_char buf ' ';
      print_tree buf n.right;
      Buffer.add_char buf ')'

let gbt_corpus () =
  let buf = Buffer.create (1 lsl 18) in
  let fit label ?pool xs ys =
    List.iter
      (fun (oname, obj) ->
        let m = Gbt.fit ~params:{ Gbt.default_params with obj } ?pool xs ys in
        Printf.bprintf buf "%s %s base %h accuracy %h\n" label oname m.Gbt.base
          (Gbt.rank_accuracy m xs ys);
        List.iter
          (fun t ->
            print_tree buf t;
            Buffer.add_char buf '\n')
          m.Gbt.trees)
      [ ("regression", Gbt.Regression); ("rank", Gbt.Rank) ]
  in
  let rows =
    Array.of_list (List.filter_map (fun (_, s) -> Option.map Feature.extract s)
                     (Lazy.force programs))
  in
  fit "corpus" rows (Array.mapi (fun i _ -> float_of_int (i * 7919 mod 97)) rows);
  (* A continuous, a coarse (many ties), a constant and a two-valued
     column; the target mixes them with seeded noise. *)
  let rng = Random.State.make [| 2718 |] in
  let xs =
    Array.init 96 (fun _ ->
        [| Random.State.float rng 1.; Float.of_int (Random.State.int rng 5); 3.;
           (if Random.State.bool rng then 0. else 1.) |])
  in
  let ys =
    Array.map
      (fun x -> (x.(0) *. x.(1)) -. x.(3) +. Random.State.float rng 0.1)
      xs
  in
  fit "seeded/seq" xs ys;
  fit "seeded/pool4" ~pool:(Tvm_par.Pool.create ~domains:4 ()) xs ys;
  fit "small" (Array.sub xs 0 3) (Array.sub ys 0 3);
  fit "empty" [||] [||];
  Buffer.contents buf

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

(* ------------------------------------------------------------------ *)
(* Virtual-clock loops: device pool, tvmd scheduler, serving executor    *)
(* ------------------------------------------------------------------ *)

(* Each of the three virtual-clock event loops is pinned on inputs that
   exercise its tie-breaks: simultaneous completions and retries in the
   pool, priority/FIFO and quota releases in the scheduler, and batch
   completions racing delay deadlines in the server. A change to how a
   loop orders its events must leave these digests unchanged. *)

module Pool = Tvm_rpc.Device_pool
module Journal = Tvm_obs.Journal
module Sched = Tvm_serve.Scheduler
module Srv = Tvm_serve.Model_server
module Traffic = Tvm_serve.Traffic

let expected_pool_digest = "48b10f04b8354cf417020a0f609d8380"
let expected_sched_digest = "ec4c5939885d6f2c440ff48d7cdae5b3"
let expected_server_digest = "404fb0ffff07ca00fda89d5d48f7f949"

let result_line (r : Tvm_autotune.Measure_result.t) =
  Printf.sprintf "%s %s %d"
    (Tvm_autotune.Measure_result.status_name r.Tvm_autotune.Measure_result.status)
    (match r.Tvm_autotune.Measure_result.time_s with
    | Some v -> Printf.sprintf "%h" v
    | None -> "-")
    r.Tvm_autotune.Measure_result.attempts

let stats_line (s : Pool.stats) =
  Printf.sprintf "dev %d jobs %d att %d retries %d" s.Pool.fs_devices
    s.Pool.fs_jobs s.Pool.fs_attempts s.Pool.fs_retries

(* Synthetic model times with many exact ties, a few over the 10 s
   budget (deterministic overruns) and a few rejected schedules. *)
let pool_costs ~salt n =
  Array.init n (fun i ->
      match (i * 7 + salt) mod 53 with
      | 0 -> 4.
      | 1 -> Float.nan
      | r -> 0.02 *. float_of_int (1 + (r mod 5)))

let pool_corpus () =
  let buf = Buffer.create 65536 in
  let titan = Pool.Gpu_dev Tvm_sim.Machine.titan_x in
  let xeon = Pool.Cpu_dev Tvm_sim.Machine.xeon_host in
  List.iter
    (fun (label, rate, straggler, n_devs) ->
      let cat =
        Pool.catalog
          ~fault_plan:(Tvm_rpc.Fault.transient ~seed:17 ~rate ())
          (Pool.mixed_kinds ?straggler n_devs)
      in
      let t = Pool.session ~salt:9 cat in
      let batches = [ (titan, 90, 0); (xeon, 40, 3); (titan, 70, 5) ] in
      let total = List.fold_left (fun a (_, n, _) -> a + n) 0 batches in
      Journal.set_enabled true;
      Journal.set_job_tags (Array.init total (fun i -> i));
      List.iter
        (fun (kind, n, salt) ->
          let res = Pool.simulate t ~kind ~cost_s:(pool_costs ~salt n) in
          Array.iter (fun r -> Buffer.add_string buf (label ^ " " ^ result_line r ^ "\n")) res)
        batches;
      Journal.clear_job_tags ();
      List.iter
        (fun e ->
          match e with
          | Journal.Dispatch _ ->
              Buffer.add_string buf (Journal.entry_to_line e ^ "\n")
          | _ -> ())
        (Journal.entries ());
      Journal.set_enabled false;
      Buffer.add_string buf
        (Printf.sprintf "%s makespan %h\n%s\n" label (Pool.makespan t)
           (stats_line (Pool.stats t))))
    [
      ("slow0", 0.3, Some 0, 24);
      ("slow2", 0.2, Some 2, 18);
      ("even", 0.25, None, 40);
    ];
  Buffer.contents buf

(* Jobs over three tenants with weights, a quota, priorities, staggered
   arrivals with exact ties, and executions that fail or exceed the
   budget on some attempts. *)
let sched_corpus () =
  let buf = Buffer.create 65536 in
  let tenants =
    [ Sched.tenant ~weight:2. "alpha"; Sched.tenant ~quota:2 "beta";
      Sched.tenant ~weight:0.5 ~quota:3 "gamma" ]
  in
  let names = [| "alpha"; "beta"; "gamma" |] in
  let jobs =
    List.init 90 (fun i ->
        {
          Sched.jb_id = i;
          jb_tenant = names.((i * 5) mod 3);
          jb_priority = (i * 7) mod 4 - 1;
          jb_submit_s = float_of_int ((i * 11) mod 13) *. 0.5;
          jb_payload = i;
        })
  in
  let execute (j : int Sched.job) ~attempt =
    let p = j.Sched.jb_payload in
    if p mod 9 = 4 && attempt = 0 then Error "flaky"
    else if p mod 17 = 5 then Error "dead"
    else if p mod 23 = 7 && attempt < 2 then Ok 12.
    else Ok (0.25 *. float_of_int (1 + ((p * 3) mod 6)))
  in
  List.iter
    (fun slots ->
      let cs = Sched.run ~slots ~tenants ~execute jobs in
      List.iter
        (fun (c : int Sched.completion) ->
          Buffer.add_string buf
            (Printf.sprintf "%d %d %d %d %h %h %h %h %s\n" slots
               c.Sched.cp_job.Sched.jb_id c.Sched.cp_slot c.Sched.cp_attempts
               c.Sched.cp_start_s c.Sched.cp_service_s c.Sched.cp_finish_s
               c.Sched.cp_queue_wait_s
               (Option.value ~default:"-" c.Sched.cp_error)))
        cs;
      Buffer.add_string buf
        (Printf.sprintf "peak %h\n"
           (Option.value ~default:Float.nan
              (Tvm_obs.Metrics.get "sched.running_peak"))))
    [ 1; 3; 8 ];
  Buffer.contents buf

(* The two-model serving suite at the default config and three
   variants that move batching, admission and deadline handling. *)
let server_corpus () =
  let buf = Buffer.create (1 lsl 18) in
  let suite =
    List.filter
      (fun (n, _) -> n = "resnet18" || n = "mobilenet")
      (Tvm_models.Models.serving_suite ())
  in
  let reqs =
    Traffic.generate ~seed:4 ~horizon_s:0.04
      (List.init 6 (fun i ->
           Traffic.tenant ~rate_hz:1500. ~slo_s:0.05
             ~model:(if i mod 2 = 0 then "resnet18" else "mobilenet")
             (Printf.sprintf "t%d" i)))
  in
  List.iter
    (fun (label, cfg) ->
      let server = Srv.load cfg suite in
      let o = Srv.run server reqs in
      List.iter
        (fun l -> Buffer.add_string buf (label ^ " " ^ l ^ "\n"))
        (Srv.results_lines o @ Srv.journal_lines server o);
      Buffer.add_string buf
        (Printf.sprintf "%s slab %h p99 %h\n" label o.Srv.oc_slab_bytes o.Srv.oc_p99_s))
    [
      ("default", Srv.config ());
      ("unbatched", Srv.config ~max_batch:1 ());
      ("inflight2", Srv.config ~max_inflight:2 ~hetero:false ());
      ("nodelay", Srv.config ~max_delay_s:0. ());
    ];
  Buffer.contents buf

let check_loop_digest name expected corpus () =
  let out = corpus () in
  checkb (name ^ " corpus non-empty") (String.length out > 1000);
  Alcotest.(check string)
    (name ^ " output matches the reference") expected
    (Digest.to_hex (Digest.string out))

let suite =
  [
    Alcotest.test_case "golden lowering corpus digest" `Quick test_corpus_digest;
    Alcotest.test_case "memo buckets stay short on the corpus" `Quick test_memo_buckets;
    QCheck_alcotest.to_alcotest hash_agrees_with_structure;
    Alcotest.test_case "hash edge cases: floats, same-name vars" `Quick
      test_hash_edge_cases;
    Alcotest.test_case "hash allocates nothing" `Quick test_hash_allocates_nothing;
    Alcotest.test_case "machine model breakdowns digest" `Quick test_model_digest;
    Alcotest.test_case "GBT fitted trees digest" `Quick
      (check_loop_digest "GBT trees" expected_gbt_digest gbt_corpus);
    Alcotest.test_case "tuning histories and kernel table digest" `Quick
      test_measure_digest;
    Alcotest.test_case "device pool loop digest" `Quick
      (check_loop_digest "device pool" expected_pool_digest pool_corpus);
    Alcotest.test_case "tvmd scheduler loop digest" `Quick
      (check_loop_digest "scheduler" expected_sched_digest sched_corpus);
    Alcotest.test_case "serving executor loop digest" `Quick
      (check_loop_digest "serving executor" expected_server_digest server_corpus);
  ]
