(* Multicore layer tests: the Tvm_par domain pool itself, and the
   determinism guarantee of every tuning phase that fans out over it —
   the whole point of the design is that -j N never changes results. *)

open Tvm_tir
module Par = Tvm_par.Pool
module Cfg = Tvm_autotune.Cfg_space
module Gbt = Tvm_autotune.Gbt
module Explorers = Tvm_autotune.Explorers
module Tuner = Tvm_autotune.Tuner
module Templates = Tvm_autotune.Templates
module Compile_cache = Tvm_autotune.Compile_cache
module R = Tvm_autotune.Measure_result
module Pool = Tvm_rpc.Device_pool
module Fault = Tvm_rpc.Fault
module Machine = Tvm_sim.Machine
module Tensor = Tvm_te.Tensor
module Op = Tvm_te.Operators
open Test_helpers

(* ------------------------------------------------------------------ *)
(* The pool                                                             *)
(* ------------------------------------------------------------------ *)

let map_matches_sequential =
  QCheck.Test.make ~name:"parallel_map = Array.map at any domain count"
    ~count:60
    QCheck.(pair (int_range 0 80) (int_range 1 6))
    (fun (n, domains) ->
      let pool = Par.create ~domains () in
      let xs = Array.init n (fun i -> i) in
      let f x = (x * x) + 7 in
      Par.parallel_map pool f xs = Array.map f xs)

let test_map_list () =
  let pool = Par.create ~domains:4 () in
  let xs = List.init 33 (fun i -> i) in
  Alcotest.(check (list int))
    "map_list preserves order" (List.map succ xs)
    (Par.map_list pool succ xs)

let test_reduce_ordered () =
  (* string concat is non-commutative: only an input-index-order fold
     produces this result, so any merge-order bug shows up. *)
  let check_at domains =
    let pool = Par.create ~domains () in
    let xs = Array.init 26 (fun i -> Char.chr (Char.code 'a' + i)) in
    let s =
      Par.parallel_reduce pool
        ~map:(fun c -> String.make 1 c)
        ~combine:( ^ ) ~init:"" xs
    in
    Alcotest.(check string)
      (Printf.sprintf "ordered fold at %d domains" domains)
      "abcdefghijklmnopqrstuvwxyz" s
  in
  List.iter check_at [ 1; 2; 4; 8 ]

let test_exception_lowest_index () =
  let check_at domains =
    let pool = Par.create ~domains () in
    let f i = if i mod 5 = 3 then failwith (string_of_int i) else i in
    match Par.parallel_map pool f (Array.init 32 (fun i -> i)) with
    | _ -> Alcotest.fail "expected an exception"
    | exception Failure msg ->
        Alcotest.(check string)
          (Printf.sprintf "lowest failing index at %d domains" domains)
          "3" msg
  in
  List.iter check_at [ 1; 2; 4 ]

let test_nested_rejected () =
  let check_at domains =
    let pool = Par.create ~domains () in
    let nested _ =
      Array.length (Par.parallel_map Par.sequential succ [| 1; 2 |])
    in
    match Par.parallel_map pool nested [| 0; 1; 2 |] with
    | _ ->
        Alcotest.fail
          (Printf.sprintf "nested fan-out not rejected at %d domains" domains)
    | exception Par.Nested_parallelism -> ()
  in
  (* must trip at -j1 too, or the bug hides until someone passes -j *)
  List.iter check_at [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Feature memo: int-hash collisions must not share entries             *)
(* ------------------------------------------------------------------ *)

let test_feature_cache_collision () =
  (* Find two distinct configurations with the same [Cfg.hash] by
     enumerating a 64^3 space (the seed space has a collision within
     the first ~34k points; bound the scan so the test stays fast).
     The old memo was keyed by this int hash, so the second config
     silently inherited the first one's features. *)
  let space =
    Cfg.space
      [
        Cfg.knob "a" (List.init 64 Fun.id);
        Cfg.knob "b" (List.init 64 Fun.id);
        Cfg.knob "c" (List.init 64 Fun.id);
      ]
  in
  let seen = Hashtbl.create 65536 in
  let colliding = ref None in
  (try
     for i = 0 to min (Cfg.size space) 65536 - 1 do
       let cfg = Cfg.config_at space i in
       let h = Cfg.hash cfg in
       match Hashtbl.find_opt seen h with
       | Some prev when prev <> cfg ->
           colliding := Some (prev, cfg);
           raise Exit
       | Some _ -> ()
       | None -> Hashtbl.add seen h cfg
     done
   with Exit -> ());
  match !colliding with
  | None -> Alcotest.fail "no hash collision found in the scan bound"
  | Some (c1, c2) ->
      checkb "the pair really collides" (Cfg.hash c1 = Cfg.hash c2 && c1 <> c2);
      let valid fs = Compile_cache.Valid fs in
      let cache = Compile_cache.create () in
      Compile_cache.add cache c1 (valid [| 1.; 2. |]);
      checkb "colliding config is NOT found"
        (Compile_cache.find cache c2 = None);
      Compile_cache.add cache c2 (valid [| 3. |]);
      Alcotest.(check int) "both entries kept" 2 (Compile_cache.size cache);
      checkb "first entry intact"
        (Option.bind (Compile_cache.find cache c1) Compile_cache.feats
        = Some [| 1.; 2. |]);
      checkb "second entry distinct"
        (Option.bind (Compile_cache.find cache c2) Compile_cache.feats
        = Some [| 3. |])

(* A fresh memo filled by an ML tune: SA chains fill it in parallel,
   so its insertion order and the lookup counts must not depend on the
   domain count. *)
let test_feature_memo_identical_across_jobs () =
  let tpl = Test_cache.sweep_template () in
  let count name = Option.value ~default:0. (Tvm_obs.Metrics.get name) in
  let run jobs =
    let cache = Compile_cache.create ~name:"par_memo" () in
    let hit0 = count "cache.hit" and miss0 = count "cache.miss" in
    ignore (Test_cache.run_tune ~cache ~seed:5 ~jobs ~fault_rate:0. tpl);
    let keys = ref [] in
    Compile_cache.iter_entries cache (fun k _ -> keys := k :: !keys);
    (List.rev !keys, count "cache.hit" -. hit0, count "cache.miss" -. miss0)
  in
  let keys1, hits1, misses1 = run 1 in
  let keys4, hits4, misses4 = run 4 in
  checkb "memo filled" (keys1 <> []);
  checkb "memo keys in the same insertion order" (keys1 = keys4);
  Alcotest.(check (float 0.)) "same cache.hit count" hits1 hits4;
  Alcotest.(check (float 0.)) "same cache.miss count" misses1 misses4

(* ------------------------------------------------------------------ *)
(* Db under concurrent adds                                             *)
(* ------------------------------------------------------------------ *)

let test_db_concurrent_adds () =
  let db = Tuner.Db.create () in
  let n_domains = 4 and per_domain = 500 in
  let worker d () =
    for i = 0 to per_domain - 1 do
      let t = 1.0 +. float_of_int ((d * per_domain) + i) in
      let t = if d = 2 && i = 123 then 0.25 else t in
      Tuner.Db.add db "k" [ ("a", (d * per_domain) + i) ] (R.ok t)
    done
  in
  let ds = List.init n_domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no add lost" (n_domains * per_domain) (Tuner.Db.size db);
  Alcotest.(check int) "tally consistent" (n_domains * per_domain)
    (Tuner.Db.status_count db "ok");
  checkb "replay index survived the races"
    (Option.bind (Tuner.Db.find db "k" [ ("a", (2 * per_domain) + 123) ]) R.time
    = Some 0.25);
  checkb "every record indexed"
    (List.for_all
       (fun i -> Tuner.Db.find db "k" [ ("a", i) ] <> None)
       (List.init (n_domains * per_domain) Fun.id))

(* ------------------------------------------------------------------ *)
(* Phase determinism: SA chains and GBT training                        *)
(* ------------------------------------------------------------------ *)

let sa_space () =
  Cfg.space
    [
      Cfg.knob "a" (List.init 8 (fun i -> i + 1));
      Cfg.knob "b" (List.init 8 (fun i -> i + 1));
      Cfg.knob "c" (List.init 8 (fun i -> i + 1));
    ]

let test_sa_bit_identical () =
  let space = sa_space () in
  let predict _chain cfg =
    Float.sin (float_of_int (Cfg.hash cfg land 0xFFFF))
  in
  let run domains =
    let pool = Par.create ~domains () in
    let rng = Random.State.make [| 7 |] in
    let state = Explorers.sa_init space rng ~n_chains:8 in
    Explorers.simulated_annealing ~pool space rng state
      ~predict_for_chain:predict ~visited:(Hashtbl.create 16) ~n_steps:60
      ~temp:1.0 ~batch:16
  in
  let base = run 1 in
  checkb "SA proposed something" (base <> []);
  List.iter
    (fun d ->
      checkb
        (Printf.sprintf "SA batch identical at %d domains" d)
        (run d = base))
    [ 2; 4; 8 ]

(* Whole trees must match at every domain count. Tied and constant
   columns make nodes whose columns have few or no candidate
   thresholds while other domains search the same node's rows. *)
let test_gbt_pool_identical () =
  let rng = Random.State.make [| 11 |] in
  let xs =
    Array.init 128 (fun _ ->
        [| Random.State.float rng 1.; Random.State.float rng 1.;
           Float.of_int (Random.State.int rng 4); 2.5;
           Random.State.float rng 1.; (if Random.State.bool rng then 0. else 1.) |])
  in
  let ys = Array.map (fun x -> (x.(0) *. x.(2)) -. x.(4) +. x.(5)) xs in
  List.iter
    (fun obj ->
      let params = { Gbt.default_params with obj } in
      let seq = Gbt.fit ~params xs ys in
      checkb "trees split" (List.exists (function Gbt.Node _ -> true | _ -> false) seq.Gbt.trees);
      List.iter
        (fun d ->
          let pool = Par.create ~domains:d () in
          let par = Gbt.fit ~params ~pool xs ys in
          checkb (Printf.sprintf "trees identical at %d domains" d) (par = seq))
        [ 1; 2; 4 ])
    [ Gbt.Regression; Gbt.Rank ]

(* ------------------------------------------------------------------ *)
(* End-to-end: the whole tuning loop at -j1 vs -j4                      *)
(* ------------------------------------------------------------------ *)

let conv_template () =
  let d = Tensor.placeholder "par_d" (List.map Expr.int [ 1; 16; 8; 8 ]) in
  let w = Tensor.placeholder "par_w" (List.map Expr.int [ 16; 16; 3; 3 ]) in
  let c = Op.conv2d ~name:"par_conv" ~stride:1 d w in
  Templates.gpu_flat ~name:"par_tpl" c

let trial_fingerprint (t : Tuner.trial) =
  (t.Tuner.config, R.status_name t.Tuner.result.R.status, R.time t.Tuner.result,
   t.Tuner.best_so_far)

let run_tune ~jobs ~fault_rate tpl =
  let pool = Pool.of_spec (Tvm_spec.Job_spec.make ~devices:4 ~fault_rate ~seed:7 ()) in
  let par = Par.create ~domains:jobs () in
  let measure = Pool.measure_fn pool ~kind_pred:(fun _ -> true) in
  let measure_batch = Pool.batch_measure_fn ~par pool ~kind_pred:(fun _ -> true) in
  Tuner.tune
    ~spec:(Tvm_spec.Job_spec.make ~seed:5 ~jobs ())
    ~measure_batch ~method_:Tuner.Ml_model ~measure ~n_trials:32 tpl

let test_tune_identical_across_jobs () =
  let tpl = conv_template () in
  let check ~fault_rate =
    let r1 = run_tune ~jobs:1 ~fault_rate tpl in
    let r4 = run_tune ~jobs:4 ~fault_rate tpl in
    checkb
      (Printf.sprintf "best config identical (fault %.0f%%)" (100. *. fault_rate))
      (r1.Tuner.best_config = r4.Tuner.best_config);
    checkb "best time identical" (r1.Tuner.best_time = r4.Tuner.best_time);
    Alcotest.(check int) "same trial count"
      (List.length r1.Tuner.history)
      (List.length r4.Tuner.history);
    checkb "tuning log identical trial by trial"
      (List.map trial_fingerprint r1.Tuner.history
      = List.map trial_fingerprint r4.Tuner.history)
  in
  check ~fault_rate:0.0;
  (* the fault machinery replays on the coordinator, so a faulty
     pool must be exactly as deterministic as a healthy one *)
  check ~fault_rate:0.2

let test_measure_batch_matches_sequential () =
  let tpl = conv_template () in
  let rng = Random.State.make [| 13 |] in
  let rec valid n acc =
    if List.length acc >= 6 || n = 0 then acc
    else
      let cfg = Cfg.random_config tpl.Tuner.tpl_space rng in
      match Tuner.try_instantiate tpl cfg with
      | Some s -> valid (n - 1) ((Cfg.hash cfg, s) :: acc)
      | None -> valid (n - 1) acc
  in
  let jobs = Array.of_list (List.rev (valid 200 [])) in
  checkb "found batch jobs" (Array.length jobs > 0);
  let mk () =
    Pool.of_spec (Tvm_spec.Job_spec.make ~devices:2 ~fault_rate:0.2 ~seed:3 ())
  in
  let kind_pred _ = true in
  let p_seq = mk () and p_j1 = mk () and p_j4 = mk () in
  let seq =
    Array.map (fun job -> (Pool.measure_batch p_seq ~kind_pred [| job |]).(0)) jobs
  in
  let batch p par = Pool.measure_batch ~par p ~kind_pred jobs in
  let j1 = batch p_j1 Par.sequential in
  let j4 = batch p_j4 (Par.create ~domains:4 ()) in
  checkb "batch results byte-identical to sequential submits" (seq = j4);
  checkb "batch results identical at -j1 and -j4" (j1 = j4);
  (* One-job submissions each close at their own makespan, so only
     batches of equal shape share a simulated clock. *)
  checkb "simulated clocks agree at -j1 and -j4" (Pool.makespan p_j1 = Pool.makespan p_j4)

let suite =
  [
    QCheck_alcotest.to_alcotest map_matches_sequential;
    Alcotest.test_case "map_list order" `Quick test_map_list;
    Alcotest.test_case "parallel_reduce is an ordered fold" `Quick test_reduce_ordered;
    Alcotest.test_case "lowest-index exception wins" `Quick test_exception_lowest_index;
    Alcotest.test_case "nested fan-out rejected" `Quick test_nested_rejected;
    Alcotest.test_case "feature memo survives hash collisions" `Quick
      test_feature_cache_collision;
    Alcotest.test_case "feature memo and lookup counts identical at -j1 vs -j4"
      `Quick test_feature_memo_identical_across_jobs;
    Alcotest.test_case "db concurrent adds" `Quick test_db_concurrent_adds;
    Alcotest.test_case "sa chains bit-identical across -j" `Quick test_sa_bit_identical;
    Alcotest.test_case "gbt training bit-identical across -j" `Quick
      test_gbt_pool_identical;
    Alcotest.test_case "measure_batch = sequential measure" `Quick
      test_measure_batch_matches_sequential;
    Alcotest.test_case "tune log identical at -j1 vs -j4 (with faults)" `Slow
      test_tune_identical_across_jobs;
  ]
