(* Automation-layer tests: configuration spaces, the GBT cost model,
   the explorers, and the tuning loop (§5). *)

open Tvm_tir
module Cfg = Tvm_autotune.Cfg_space
module Gbt = Tvm_autotune.Gbt
module Feature = Tvm_autotune.Feature
module Explorers = Tvm_autotune.Explorers
module Tuner = Tvm_autotune.Tuner
module Templates = Tvm_autotune.Templates
module Tensor = Tvm_te.Tensor
module Op = Tvm_te.Operators
module Pool = Tvm_rpc.Device_pool
module Machine = Tvm_sim.Machine
open Test_helpers

let small_space () =
  Cfg.space
    [ Cfg.knob "a" [ 1; 2; 4 ]; Cfg.knob "b" [ 0; 1 ]; Cfg.knob "c" [ 3; 5; 7; 9 ] ]

let test_divisors () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ] (Cfg.divisors 12);
  Alcotest.(check (list int)) "capped" [ 1; 2; 3; 4 ] (Cfg.divisors_upto 12 5)

(* Trial division up to [n]: the reference for the √n enumeration. *)
let naive_divisors n =
  let rec go d acc =
    if d < 1 then acc else go (d - 1) (if n mod d = 0 then d :: acc else acc)
  in
  go n []

(* Perfect squares, where d = n/d, are drawn as often as other n. *)
let divisors_match_trial_division =
  QCheck.Test.make ~name:"divisors = trial division" ~count:100
    QCheck.(
      oneof
        [ int_range (-3) (1 lsl 22); map (fun k -> k * k) (int_range 0 2048) ])
    (fun n -> Cfg.divisors n = naive_divisors n)

(* The output sizes of every fused group of the five full-size serving
   networks — the [n] the compiler's templates enumerate. *)
let test_divisors_network_sizes () =
  let sizes =
    List.concat_map
      (fun (_, graph) ->
        List.map
          (fun g ->
            let out, _ = Tvm_graph.Fusion.build_group_te graph g in
            List.fold_left ( * ) 1 (Tensor.const_shape out))
          (Tvm_graph.Fusion.fuse graph))
      (Tvm_models.Models.serving_suite ~full:true ())
    |> List.sort_uniq compare
  in
  checkb "resnet18's first conv is among them" (List.mem 802_816 sizes);
  List.iter
    (fun n ->
      Alcotest.(check (list int))
        (Printf.sprintf "divisors %d" n)
        (naive_divisors n) (Cfg.divisors n))
    sizes

let test_space_size () =
  Alcotest.(check int) "3*2*4" 24 (Cfg.size (small_space ()))

let config_roundtrip =
  QCheck.Test.make ~name:"config index bijection" ~count:100
    QCheck.(int_range 0 23)
    (fun idx ->
      let s = small_space () in
      Cfg.index_of s (Cfg.config_at s idx) = idx)

let mutate_stays_valid =
  QCheck.Test.make ~name:"mutation keeps values in choice sets" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let s = small_space () in
      let rng = Random.State.make [| seed |] in
      let cfg = Cfg.mutate s rng (Cfg.random_config s rng) in
      List.for_all
        (fun k -> Array.exists (fun c -> c = Cfg.get cfg k.Cfg.k_name) k.Cfg.k_choices)
        s.Cfg.knobs)

let test_crossover () =
  let s = small_space () in
  let rng = Random.State.make [| 1 |] in
  let a = Cfg.random_config s rng and b = Cfg.random_config s rng in
  let child = Cfg.crossover rng a b in
  List.iter
    (fun (k, v) ->
      checkb "gene from a parent" (v = Cfg.get a k || v = Cfg.get b k))
    child

(* ------------------------------------------------------------------ *)
(* GBT                                                                  *)
(* ------------------------------------------------------------------ *)

let synth_data n f =
  let rng = Random.State.make [| 11 |] in
  let xs =
    Array.init n (fun _ -> Array.init 6 (fun _ -> Random.State.float rng 1.))
  in
  let ys = Array.map f xs in
  (xs, ys)

let test_gbt_learns_nonlinear () =
  let f x = (x.(0) *. x.(1)) +. (if x.(2) > 0.5 then 1. else 0.) -. x.(3) in
  let xs, ys = synth_data 300 f in
  let train_x = Array.sub xs 0 200 and train_y = Array.sub ys 0 200 in
  let test_x = Array.sub xs 200 100 and test_y = Array.sub ys 200 100 in
  let model = Gbt.fit ~params:{ Gbt.default_params with Gbt.obj = Gbt.Regression } train_x train_y in
  let acc = Gbt.rank_accuracy model test_x test_y in
  checkb (Printf.sprintf "rank accuracy %.2f > 0.8" acc) (acc > 0.8)

let test_gbt_rank_objective () =
  let f x = 10. *. x.(0) in
  let xs, ys = synth_data 100 f in
  let model = Gbt.fit ~params:{ Gbt.default_params with Gbt.obj = Gbt.Rank } xs ys in
  let acc = Gbt.rank_accuracy model xs ys in
  checkb "rank objective orders correctly" (acc > 0.9)

let test_gbt_empty () =
  let model = Gbt.fit [||] [||] in
  Alcotest.(check (float 1e-9)) "empty model predicts base" 0. (Gbt.predict model (Array.make 6 0.))

let test_transform_targets () =
  let ranked = Gbt.transform_targets Gbt.Rank [| 5.; 1.; 3. |] in
  checkb "rank order" (ranked.(1) < ranked.(2) && ranked.(2) < ranked.(0))

(* ------------------------------------------------------------------ *)
(* Features                                                             *)
(* ------------------------------------------------------------------ *)

let conv_template () =
  let d = Tensor.placeholder "at_d" (List.map Expr.int [ 1; 16; 8; 8 ]) in
  let w = Tensor.placeholder "at_w" (List.map Expr.int [ 16; 16; 3; 3 ]) in
  let c = Op.conv2d ~name:"at_conv" ~stride:1 d w in
  Templates.gpu_flat ~name:"at_tpl" c

let test_feature_extraction () =
  let tpl = conv_template () in
  let rng = Random.State.make [| 5 |] in
  let rec get_stmt n =
    if n = 0 then Alcotest.fail "no valid config found"
    else
      let cfg = Cfg.random_config tpl.Tuner.tpl_space rng in
      match Tuner.try_instantiate tpl cfg with
      | Some s -> s
      | None -> get_stmt (n - 1)
  in
  let stmt = get_stmt 100 in
  let f = Feature.extract stmt in
  Alcotest.(check int) "fixed length" Feature.length (Array.length f);
  checkb "flops feature positive" (f.(0) > 0.);
  (* determinism *)
  checkb "deterministic" (Feature.extract stmt = f)

(* ------------------------------------------------------------------ *)
(* Explorers + tuner                                                    *)
(* ------------------------------------------------------------------ *)

let test_random_batch_dedups () =
  let s = small_space () in
  let rng = Random.State.make [| 2 |] in
  let visited = Hashtbl.create 16 in
  let batch = Explorers.random_batch s rng ~visited ~batch:10 in
  let hashes = List.map Cfg.hash batch in
  Alcotest.(check int) "no duplicates" (List.length hashes)
    (List.length (List.sort_uniq compare hashes))

let measure_fn_for machine =
  let pool = Pool.of_spec ~kind:(Pool.Gpu_dev machine) Tvm_spec.Job_spec.default in
  Pool.measure_fn pool ~kind_pred:(fun _ -> true)

let test_tuner_improves () =
  let tpl = conv_template () in
  let measure = measure_fn_for Machine.titan_x in
  let res =
    Tuner.tune
      ~spec:(Tvm_spec.Job_spec.make ~seed:3 ())
      ~method_:Tuner.Ml_model ~measure ~n_trials:48 tpl
  in
  checkb "found a config" (res.Tuner.best_time > 0.);
  (* best-so-far is monotone *)
  let rec mono best = function
    | [] -> true
    | (t : Tuner.trial) :: rest ->
        t.Tuner.best_so_far <= best +. 1e-12 && mono t.Tuner.best_so_far rest
  in
  checkb "best-so-far monotone" (mono Float.infinity res.Tuner.history);
  Alcotest.(check int) "exactly n trials" 48 (List.length res.Tuner.history)

let test_ml_beats_random_on_budget () =
  let tpl = conv_template () in
  let run m =
    (Tuner.tune
       ~spec:(Tvm_spec.Job_spec.make ~seed:9 ())
       ~method_:m ~measure:(measure_fn_for Machine.titan_x) ~n_trials:40 tpl)
      .Tuner.best_time
  in
  let ml = run Tuner.Ml_model and rand = run Tuner.Random_search in
  (* allow a small tolerance: with tiny budgets random can tie *)
  checkb
    (Printf.sprintf "ml (%.4g) <= 1.25 * random (%.4g)" ml rand)
    (ml <= rand *. 1.25)

(* The model is refitted only for a proposal round still to come: an
   ML tune whose trials fit in one batch (the seed probe plus one random
   round of 11) never fits, and one that needs a second round does. *)
let test_no_unread_fit () =
  let tpl = conv_template () in
  let fit_s n_trials =
    Tvm_obs.Metrics.reset ();
    ignore
      (Tuner.tune
         ~spec:(Tvm_spec.Job_spec.make ~seed:3 ~batch:16 ())
         ~method_:Tuner.Ml_model ~measure:(measure_fn_for Machine.titan_x) ~n_trials tpl);
    Tvm_obs.Metrics.get "tune.phase.fit_s"
  in
  checkb "single batch: no fit" (fit_s 12 = None);
  checkb "second round: fitted" (fit_s 24 <> None)

(* A compile-shaped tune (the seed probe plus one random round, no
   fit) reads no features, so it extracts none, and hands the seed's
   program forward, so no configuration is lowered twice. *)
let test_compile_shaped_tune () =
  let tpl = conv_template () in
  let lowered = Hashtbl.create 64 in
  let tpl_instantiate cfg =
    let k = Cfg.canonical cfg in
    Hashtbl.replace lowered k (1 + Option.value ~default:0 (Hashtbl.find_opt lowered k));
    tpl.Tuner.tpl_instantiate cfg
  in
  Tvm_obs.Metrics.reset ();
  let res =
    Tuner.tune
      ~spec:(Tvm_spec.Job_spec.make ~seed:3 ~batch:16 ())
      ~cache:(Tvm_autotune.Compile_cache.create ())
      ~method_:Tuner.Ml_model ~measure:(measure_fn_for Machine.titan_x)
      ~n_trials:12 { tpl with Tuner.tpl_instantiate }
  in
  Alcotest.(check int) "12 trials" 12 (List.length res.Tuner.history);
  checkb "no feature extracted" (Tvm_obs.Metrics.get "tune.phase.feature_s" = None);
  Hashtbl.iter
    (fun k n ->
      if n > 1 then
        Alcotest.failf "%s lowered %d times" (Cfg.to_string k) n)
    lowered

let test_measurement_deterministic () =
  let tpl = conv_template () in
  let rng = Random.State.make [| 17 |] in
  let rec valid n =
    if n = 0 then Alcotest.fail "no valid cfg"
    else
      let cfg = Cfg.random_config tpl.Tuner.tpl_space rng in
      match Tuner.try_instantiate tpl cfg with
      | Some s -> (cfg, s)
      | None -> valid (n - 1)
  in
  let cfg, stmt = valid 100 in
  let time m =
    match Tvm_autotune.Measure_result.time m with
    | Some t -> t
    | None -> Alcotest.fail "expected a successful measurement"
  in
  let m1 = time (measure_fn_for Machine.titan_x cfg stmt) in
  let m2 = time (measure_fn_for Machine.titan_x cfg stmt) in
  Alcotest.(check (float 1e-12)) "same config same measurement" m1 m2

let test_db_records () =
  let module R = Tvm_autotune.Measure_result in
  let db = Tuner.Db.create () in
  Tuner.Db.add db "k" [ ("a", 1) ] (R.ok 0.5);
  Tuner.Db.add db "k" [ ("a", 2) ] (R.ok 0.3);
  Tuner.Db.add db "k" [ ("a", 4) ] (R.fail R.Timeout);
  Tuner.Db.add db "other" [ ("a", 3) ] (R.ok 0.1);
  Alcotest.(check int) "all records kept" 4 (Tuner.Db.size db);
  Alcotest.(check int) "ok tally" 3 (Tuner.Db.status_count db "ok");
  Alcotest.(check int) "timeout tally" 1 (Tuner.Db.status_count db "timeout");
  let time cfg = Option.bind (Tuner.Db.find db "k" cfg) R.time in
  Alcotest.(check (option (float 1e-9))) "record a=1" (Some 0.5)
    (time [ ("a", 1) ]);
  Alcotest.(check (option (float 1e-9))) "record a=2" (Some 0.3)
    (time [ ("a", 2) ]);
  checkb "failed record indexed"
    (Option.map (fun r -> R.status_name r.R.status)
       (Tuner.Db.find db "k" [ ("a", 4) ])
    = Some "timeout");
  checkb "keys kept apart" (Tuner.Db.find db "k" [ ("a", 3) ] = None)

let suite =
  [
    Alcotest.test_case "divisors" `Quick test_divisors;
    QCheck_alcotest.to_alcotest divisors_match_trial_division;
    Alcotest.test_case "divisors of network output sizes" `Quick
      test_divisors_network_sizes;
    Alcotest.test_case "space size" `Quick test_space_size;
    QCheck_alcotest.to_alcotest config_roundtrip;
    QCheck_alcotest.to_alcotest mutate_stays_valid;
    Alcotest.test_case "crossover" `Quick test_crossover;
    Alcotest.test_case "gbt learns nonlinear" `Quick test_gbt_learns_nonlinear;
    Alcotest.test_case "gbt rank objective" `Quick test_gbt_rank_objective;
    Alcotest.test_case "gbt empty" `Quick test_gbt_empty;
    Alcotest.test_case "rank transform" `Quick test_transform_targets;
    Alcotest.test_case "feature extraction" `Quick test_feature_extraction;
    Alcotest.test_case "random batch dedups" `Quick test_random_batch_dedups;
    Alcotest.test_case "tuner improves" `Quick test_tuner_improves;
    Alcotest.test_case "ml >= random on budget" `Quick test_ml_beats_random_on_budget;
    Alcotest.test_case "no fit after the last batch" `Quick test_no_unread_fit;
    Alcotest.test_case "compile-shaped tune: no features, one lowering" `Quick
      test_compile_shaped_tune;
    Alcotest.test_case "deterministic measurement" `Quick test_measurement_deterministic;
    Alcotest.test_case "tuning database" `Quick test_db_records;
  ]
