(* Feature-memo tests: cached features equal a fresh extraction at any
   -j, the memo is first-wins and never changes a tuning log, and
   lowered programs are handed forward ([best_stmt], the compiler's
   final lowering) instead of being kept. *)

open Tvm_tir
module Par = Tvm_par.Pool
module Cfg = Tvm_autotune.Cfg_space
module Cache = Tvm_autotune.Compile_cache
module Tuner = Tvm_autotune.Tuner
module Templates = Tvm_autotune.Templates
module Feature = Tvm_autotune.Feature
module R = Tvm_autotune.Measure_result
module Pool = Tvm_rpc.Device_pool
module Machine = Tvm_sim.Machine
module Workloads = Tvm_models.Workloads
module Fe = Tvm_experiments.Fig_e2e
module G = Tvm_graph.Graph_ir
module Tensor = Tvm_te.Tensor
module Op = Tvm_te.Operators
open Test_helpers

(* ------------------------------------------------------------------ *)
(* Compile_cache unit behavior                                          *)
(* ------------------------------------------------------------------ *)

let valid feats = Cache.Valid feats

let test_first_wins () =
  let c = Cache.create ~name:"fw" () in
  let k = [ ("a", 1) ] in
  Cache.add c k (valid [| 1. |]);
  Cache.add c k (valid [| 2. |]);
  checkb "duplicate add ignored"
    (Option.bind (Cache.find c k) Cache.feats = Some [| 1. |]);
  let compiled = ref 0 in
  let e =
    Cache.find_or_compile c k ~compile:(fun _ ->
        incr compiled;
        valid [| 3. |])
  in
  checkb "find_or_compile returns the stored entry" (Cache.feats e = Some [| 1. |]);
  Alcotest.(check int) "a hit never compiles" 0 !compiled;
  (* Invalid entries are terminal *)
  let k2 = [ ("a", 2) ] in
  Cache.add c k2 Cache.Invalid;
  Cache.add c k2 (valid [| 9. |]);
  checkb "invalid entry never replaced" (Cache.find c k2 = Some Cache.Invalid);
  (* keys are canonical: knob order never splits an entry *)
  let ka = [ ("x", 1); ("y", 2) ] and kb = [ ("y", 2); ("x", 1) ] in
  Cache.add c ka (valid [| 7. |]);
  checkb "permuted config is the same key"
    (Option.bind (Cache.find c kb) Cache.feats = Some [| 7. |]);
  Alcotest.(check int) "one entry per canonical key" 3 (Cache.size c)

(* A small conv template whose instantiations are counted per
   canonical configuration. *)
let counting_template name =
  let d = Tensor.placeholder (name ^ "_d") (List.map Expr.int [ 1; 16; 8; 8 ]) in
  let w = Tensor.placeholder (name ^ "_w") (List.map Expr.int [ 16; 16; 3; 3 ]) in
  let c = Op.conv2d ~name:(name ^ "_conv") ~stride:1 d w in
  let tpl = Templates.gpu_flat ~name c in
  let counts = Hashtbl.create 64 in
  let instantiate cfg =
    let k = Cfg.canonical cfg in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k));
    tpl.Tuner.tpl_instantiate cfg
  in
  ({ tpl with Tuner.tpl_instantiate = instantiate }, counts)

let tune_on_pool ?db ?cache ?(replay = false) ~seed ~n_trials tpl =
  let spec = Tvm_spec.Job_spec.make ~seed ~jobs:1 ~replay () in
  let pool = Pool.of_spec spec in
  Tuner.tune ~spec ?db ?cache
    ~measure_batch:(Pool.batch_measure_fn pool ~kind_pred:(fun _ -> true))
    ~method_:Tuner.Ml_model
    ~measure:(Pool.measure_fn pool ~kind_pred:(fun _ -> true))
    ~n_trials tpl

let test_best_stmt_is_fresh_lowering () =
  let tpl, _ = counting_template "bst" in
  let db = Tuner.Db.create () and cache = Cache.create () in
  let r = tune_on_pool ~db ~cache ~seed:3 ~n_trials:24 tpl in
  (match r.Tuner.best_stmt with
  | None -> Alcotest.fail "a live run must hand its best program forward"
  | Some s ->
      let fresh = tpl.Tuner.tpl_instantiate r.Tuner.best_config in
      Alcotest.(check string)
        "best_stmt prints like a fresh lowering of best_config"
        (Printer.stmt_to_string fresh) (Printer.stmt_to_string s);
      checkb "same validator verdict" (Validate.check s = Validate.check fresh));
  (* A replayed best trial has no program: the caller re-lowers.
     Replay needs the recorded features, hence the shared memo. *)
  let r' = tune_on_pool ~db ~cache ~replay:true ~seed:3 ~n_trials:24 tpl in
  checkb "replay picks the same best" (r'.Tuner.best_config = r.Tuner.best_config);
  checkb "replayed best has no program" (r'.Tuner.best_stmt = None)

let test_best_stmt_is_measured_program () =
  let tpl, _ = counting_template "bsm" in
  let measured = Hashtbl.create 64 in
  let measure cfg s =
    Hashtbl.replace measured (Cfg.canonical cfg) s;
    R.ok (Tvm_sim.Gpu_model.time_s Machine.titan_x s)
  in
  let r =
    Tuner.tune
      ~spec:(Tvm_spec.Job_spec.make ~seed:4 ~jobs:1 ())
      ~method_:Tuner.Ml_model ~measure ~n_trials:16 tpl
  in
  match r.Tuner.best_stmt with
  | None -> Alcotest.fail "a live run must hand its best program forward"
  | Some s ->
      checkb "best_stmt is the program measured for best_config"
        (Hashtbl.find measured (Cfg.canonical r.Tuner.best_config) == s)

(* The store's persistence walk forces pending entries: a memo saved
   while its last batch still holds programs writes the same bytes as
   one whose every entry was featurized first, and each stored feature
   vector is that of a fresh lowering. *)
let test_save_forces_pending_entries () =
  let tpl, _ = counting_template "sfp" in
  (* The compile's shape: the seed probe and one random batch, no fit,
     so every valid row is still pending at the end. *)
  let tune () =
    let cache = Cache.create () in
    (cache, tune_on_pool ~cache ~seed:5 ~n_trials:12 tpl)
  in
  let pending cache (r : Tuner.result) =
    List.filter
      (fun (t : Tuner.trial) ->
        match Cache.find ~record:false cache t.Tuner.config with
        | Some (Cache.Pending _) -> true
        | _ -> false)
      r.Tuner.history
  in
  let save cache =
    let path = Filename.temp_file "tvm_cache" ".store" in
    Sys.remove path;
    Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    @@ fun () ->
    ignore (Tvm_autotune.Store.save_cache path ~scope:"sfp" cache);
    let bytes = In_channel.with_open_bin path In_channel.input_all in
    let loaded = Cache.create () in
    ignore
      (Tvm_autotune.Store.load_cache
         (Tvm_autotune.Store.load_blocks path)
         ~scope:"sfp" ~into:loaded);
    (bytes, loaded)
  in
  let lazy_cache, r = tune () in
  checkb "the last batch is still pending" (pending lazy_cache r <> []);
  let lazy_bytes, loaded = save lazy_cache in
  checkb "saving forced every entry" (pending lazy_cache r = []);
  let forced_cache, r' = tune () in
  (* Force in reverse trial order: the walk's order must not depend on
     when entries were forced. *)
  List.iter
    (fun (t : Tuner.trial) -> ignore (Cache.force forced_cache t.Tuner.config))
    (List.rev r'.Tuner.history);
  checkb "nothing left pending" (pending forced_cache r' = []);
  let forced_bytes, _ = save forced_cache in
  Alcotest.(check string) "store bytes independent of forcing" forced_bytes
    lazy_bytes;
  let n_valid = ref 0 in
  Cache.iter_entries loaded (fun cfg e ->
      match e with
      | Cache.Valid f ->
          incr n_valid;
          let fresh = Feature.extract (tpl.Tuner.tpl_instantiate cfg) in
          checkb (Cfg.to_string cfg ^ ": stored features = fresh extraction")
            (f = fresh)
      | Cache.Invalid -> ()
      | Cache.Pending _ -> Alcotest.fail "a loaded entry is pending");
  checkb "valid entries were stored" (!n_valid > 0)

(* Kernel table, and the cache verdict of every compiler record in
   the journal, of a journaled dqn build on [tuned]. *)
let compile_outputs tuned =
  let spec =
    Tvm_spec.Job_spec.make ~op:Tvm_spec.Job_spec.Compile ~workload:"dqn"
      ~target:"cuda" ~trials:8 ~seed:9 ~jobs:1 ()
  in
  Tvm_obs.Journal.set_enabled false;
  Tvm_obs.Journal.set_enabled true;
  Fun.protect ~finally:(fun () -> Tvm_obs.Journal.set_enabled false) @@ fun () ->
  let r =
    Tvm.Compiler.build ~spec ~tuned (Tvm_models.Models.dqn ())
      (Tvm.Target.cuda ())
  in
  let table =
    List.map
      (fun (k : Tvm_runtime.Rt_module.kernel) ->
        Printf.sprintf "%s %h %s" k.Tvm_runtime.Rt_module.k_name
          k.Tvm_runtime.Rt_module.k_time_s
          (Printer.stmt_to_string k.Tvm_runtime.Rt_module.k_stmt))
      (Tvm_runtime.Rt_module.kernels r.Tvm.Compiler.module_)
  in
  let entries = Tvm_obs.Journal.entries () in
  let compiler_uids =
    List.filter_map
      (function
        | Tvm_obs.Journal.Propose { p_uid; p_origin = "compiler"; _ } ->
            Some p_uid
        | _ -> None)
      entries
  in
  let verdicts =
    List.filter_map
      (function
        | Tvm_obs.Journal.Prepare { q_uid; q_cache; _ }
          when List.mem q_uid compiler_uids ->
            Some q_cache
        | _ -> None)
      entries
  in
  (String.concat "\n" table, verdicts)

let test_compile_hands_programs_forward () =
  let tuned = Tvm.Compiler.create_tuned_cache () in
  let t_fresh, v_fresh = compile_outputs tuned in
  let tuned_groups = List.length (Tvm.Compiler.tuned_entries ~cache:tuned ()) in
  let t_warm, v_warm = compile_outputs tuned in
  let count v l = List.length (List.filter (String.equal v) l) in
  checkb "every kernel journaled" (v_fresh <> [] && List.length v_warm = List.length v_fresh);
  Alcotest.(check int)
    "fresh build: each tuned group's program handed forward" tuned_groups
    (count "hit" v_fresh);
  Alcotest.(check int) "warm build: every program re-lowered" 0
    (count "hit" v_warm);
  Alcotest.(check string) "re-lowered kernel table identical" t_fresh t_warm

(* ------------------------------------------------------------------ *)
(* Graph adjacency indexes vs brute-force scans                         *)
(* ------------------------------------------------------------------ *)

let test_graph_adjacency_matches_scan () =
  let b = G.builder () in
  let d = G.input b "d" [ 1; 8 ] in
  let w = G.param b "w" [ 8; 8 ] in
  let m = G.op b "dense" [ d; w ] in
  let r = G.op b "relu" [ m ] in
  (* duplicate input: the consumer must be listed once *)
  let s = G.op b "add" [ m; m ] in
  let t = G.op b "add" [ s; r ] in
  let g = G.finalize b [ t; r ] in
  Array.iter
    (fun (n : G.node) ->
      let brute =
        Array.fold_left
          (fun acc (c : G.node) ->
            if List.mem n.G.id c.G.inputs then c.G.id :: acc else acc)
          [] g.G.nodes
        |> List.rev
      in
      Alcotest.(check (list int))
        (Printf.sprintf "consumers(%d) = brute-force scan" n.G.id)
        brute (G.consumers g n.G.id);
      checkb
        (Printf.sprintf "is_output(%d) = membership scan" n.G.id)
        (G.is_output g n.G.id = List.mem n.G.id g.G.outputs))
    g.G.nodes

(* ------------------------------------------------------------------ *)
(* Equivalence sweep: cached features ≡ fresh extraction, -j1 and -j4  *)
(* ------------------------------------------------------------------ *)

let test_equivalence_sweep () =
  let per_template = 2 in
  let checked = ref 0 in
  List.iter
    (fun w ->
      let out = Fe.conv_tensor w in
      let tpls =
        [
          Templates.gpu_flat ~name:(w.Workloads.name ^ "_sweep_gpu") out;
          Templates.cpu_flat ~name:(w.Workloads.name ^ "_sweep_cpu") out;
        ]
      in
      List.iter
        (fun (tpl : Tuner.template) ->
          let rng =
            Random.State.make [| 31; Hashtbl.hash tpl.Tuner.tpl_name |]
          in
          let rec sample n acc =
            if List.length acc >= per_template || n = 0 then acc
            else
              let cfg = Cfg.random_config tpl.Tuner.tpl_space rng in
              match (try ignore (tpl.Tuner.tpl_instantiate cfg); true with _ -> false) with
              | true -> sample (n - 1) (cfg :: acc)
              | false -> sample (n - 1) acc
          in
          let cfgs = sample 80 [] in
          (* Populate the shared cache on the coordinator (the tuner's
             write discipline), then read it from worker domains. *)
          let cache = Cache.create ~name:"sweep" () in
          let compile cfg =
            match Tuner.try_instantiate tpl cfg with
            | Some s -> valid (Feature.extract s)
            | None -> Cache.Invalid
          in
          List.iter
            (fun c -> ignore (Cache.find_or_compile cache c ~compile))
            cfgs;
          List.iter
            (fun domains ->
              let pool = Par.create ~domains () in
              let oks =
                Par.parallel_map pool
                  (fun cfg ->
                    let reference =
                      Feature.extract (tpl.Tuner.tpl_instantiate cfg)
                    in
                    match
                      Option.bind (Cache.find ~record:false cache cfg) Cache.feats
                    with
                    | None -> false
                    | Some cached ->
                        Array.length cached = Array.length reference
                        && Array.for_all2 Float.equal cached reference)
                  (Array.of_list cfgs)
              in
              Array.iteri
                (fun i ok ->
                  checkb
                    (Printf.sprintf "%s cfg %d: cached ≡ fresh features at -j%d"
                       tpl.Tuner.tpl_name i domains)
                    ok)
                oks)
            [ 1; 4 ];
          checked := !checked + List.length cfgs)
        tpls)
    Workloads.all;
  checkb "sweep covered a meaningful sample" (!checked >= 30)

(* ------------------------------------------------------------------ *)
(* The full tuning loop: fresh vs pre-warmed memo, -j1 vs -j4, faults   *)
(* ------------------------------------------------------------------ *)

let sweep_template () =
  let d = Tensor.placeholder "eq_d" (List.map Expr.int [ 1; 16; 8; 8 ]) in
  let w = Tensor.placeholder "eq_w" (List.map Expr.int [ 16; 16; 3; 3 ]) in
  let c = Op.conv2d ~name:"eq_conv" ~stride:1 d w in
  Templates.gpu_flat ~name:"eq_tpl" c

let trial_fingerprint (t : Tuner.trial) =
  (t.Tuner.config, R.status_name t.Tuner.result.R.status, R.time t.Tuner.result,
   t.Tuner.best_so_far)

let run_tune ?cache ~seed ~jobs ~fault_rate tpl =
  let pool = Pool.of_spec (Tvm_spec.Job_spec.make ~devices:4 ~fault_rate ~seed:7 ()) in
  let par = Par.create ~domains:jobs () in
  let measure = Pool.measure_fn pool ~kind_pred:(fun _ -> true) in
  let measure_batch = Pool.batch_measure_fn ~par pool ~kind_pred:(fun _ -> true) in
  Tuner.tune
    ~spec:(Tvm_spec.Job_spec.make ~seed ~jobs ())
    ?cache ~measure_batch ~method_:Tuner.Ml_model ~measure ~n_trials:32 tpl

(* A memo already filled by a run from another seed: its entries must
   only change how much the seed-5 run re-derives, never its log. *)
let prewarmed_memo ~fault_rate tpl =
  let cache = Cache.create ~name:"prewarmed" () in
  ignore (run_tune ~cache ~seed:6 ~jobs:1 ~fault_rate tpl);
  checkb "pre-warm run filled the memo" (Cache.size cache > 0);
  cache

let test_tune_log_invariant_to_cache_and_jobs () =
  let tpl = sweep_template () in
  let check ~fault_rate =
    let reference = run_tune ~seed:5 ~jobs:1 ~fault_rate tpl in
    let fp r = List.map trial_fingerprint r.Tuner.history in
    List.iter
      (fun (jobs, prewarm) ->
        let cache = if prewarm then Some (prewarmed_memo ~fault_rate tpl) else None in
        let r = run_tune ?cache ~seed:5 ~jobs ~fault_rate tpl in
        checkb
          (Printf.sprintf
             "log identical at -j%d prewarmed=%b (fault %.0f%%)" jobs prewarm
             (100. *. fault_rate))
          (fp r = fp reference))
      [ (1, true); (4, false); (4, true) ]
  in
  check ~fault_rate:0.0;
  check ~fault_rate:0.2

let suite =
  [
    Alcotest.test_case "first-wins adds; invalid entries are terminal" `Quick
      test_first_wins;
    Alcotest.test_case "best_stmt prints like a fresh lowering of best_config"
      `Quick test_best_stmt_is_fresh_lowering;
    Alcotest.test_case "best_stmt is the program the best trial measured"
      `Quick test_best_stmt_is_measured_program;
    Alcotest.test_case
      "compile hands tuned programs forward; tuned-cache hits re-lower"
      `Quick test_compile_hands_programs_forward;
    Alcotest.test_case "saving forces pending entries; same bytes" `Quick
      test_save_forces_pending_entries;
    Alcotest.test_case "graph adjacency = brute-force scans" `Quick
      test_graph_adjacency_matches_scan;
    Alcotest.test_case "cached lowering ≡ uncached across workloads" `Slow
      test_equivalence_sweep;
    Alcotest.test_case "tune log invariant to cache and -j (with faults)" `Slow
      test_tune_log_invariant_to_cache_and_jobs;
  ]
