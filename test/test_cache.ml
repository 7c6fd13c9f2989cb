(* Compile-cache and hash-consing tests: the PR-5 guarantees — cached
   lowerings are byte-identical to uncached ones with the same
   validator verdicts at any -j, the cache's memory policy (first-wins,
   stmt-fill, FIFO stmt eviction) never loses features, and interned
   TIR construction gives physically-shared nodes. *)

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
(* Hash-consed expression construction                                  *)
(* ------------------------------------------------------------------ *)

let test_hashcons_interning () =
  (* Equal immediates intern to one node (small ints via the pool,
     large ones and floats via the intern table)... *)
  checkb "pooled ints share" (Expr.int 5 == Expr.int 5);
  checkb "interned ints share" (Expr.int 3000 == Expr.int 3000);
  checkb "interned floats share" (Expr.float 2.5 == Expr.float 2.5);
  (* ...and so do composite nodes built from shared children. *)
  let v = Expr.var (Expr.Var.fresh "hc_x") in
  let mk () = Expr.binop Expr.Add (Expr.binop Expr.Mul v (Expr.int 7)) (Expr.int 3) in
  checkb "identical composites are physically equal" (mk () == mk ());
  checkb "structural equality agrees" (Expr.equal (mk ()) (mk ()));
  (* Distinct values must stay distinct. *)
  checkb "different constants differ"
    (not (Expr.equal (Expr.int 3000) (Expr.int 3001)));
  (* -0. and 0. are bitwise-distinct: interning must not conflate them
     (the printer distinguishes them, so conflation would change
     output). *)
  checkb "negative zero not conflated" (Expr.float 0. != Expr.float (-0.))

(* ------------------------------------------------------------------ *)
(* Compile_cache unit behavior                                          *)
(* ------------------------------------------------------------------ *)

let tiny_stmt =
  (* any real lowered program will do as a stmt payload *)
  lazy
    (let d = Tensor.placeholder "cch_d" (List.map Expr.int [ 1; 4; 4; 4 ]) in
     let w = Tensor.placeholder "cch_w" (List.map Expr.int [ 4; 4; 3; 3 ]) in
     let c = Op.conv2d ~name:"cch_conv" ~stride:1 d w in
     let tpl = Templates.gpu_flat ~name:"cch_tpl" c in
     let rng = Random.State.make [| 2 |] in
     let rec go n =
       if n = 0 then invalid_arg "no valid config for tiny_stmt"
       else
         let cfg = Cfg.random_config tpl.Tuner.tpl_space rng in
         match (try Some (tpl.Tuner.tpl_instantiate cfg) with _ -> None) with
         | Some s -> s
         | None -> go (n - 1)
     in
     go 100)

let valid ?stmt feats = Cache.Valid { feats; stmt }

let test_first_wins_and_stmt_fill () =
  let s = Lazy.force tiny_stmt in
  let c = Cache.create ~name:"fw" () in
  let k = [ ("a", 1) ] in
  Cache.add c k (valid [| 1. |]);
  (* stmt-fill: a later entry with a program upgrades in place, keeping
     the stored features *)
  Cache.add c k (valid ~stmt:s [| 2. |]);
  checkb "features kept from first add"
    (Option.bind (Cache.find c k) Cache.feats = Some [| 1. |]);
  checkb "stmt filled in" (Option.is_some (Option.bind (Cache.find c k) Cache.stmt));
  (* after that, strictly first-wins *)
  Cache.add c k (valid ~stmt:s [| 3. |]);
  checkb "duplicate add ignored"
    (Option.bind (Cache.find c k) Cache.feats = Some [| 1. |]);
  (* Invalid entries are terminal *)
  let k2 = [ ("a", 2) ] in
  Cache.add c k2 Cache.Invalid;
  Cache.add c k2 (valid ~stmt:s [| 9. |]);
  checkb "invalid entry never upgraded" (Cache.find c k2 = Some Cache.Invalid);
  (* keys are canonical: knob order never splits an entry *)
  let ka = [ ("x", 1); ("y", 2) ] and kb = [ ("y", 2); ("x", 1) ] in
  Cache.add c ka (valid [| 7. |]);
  checkb "permuted config is the same key"
    (Option.bind (Cache.find c kb) Cache.feats = Some [| 7. |])

let test_stmt_eviction_keeps_features () =
  let s = Lazy.force tiny_stmt in
  let c = Cache.create ~stmt_cap:2 ~name:"evict" () in
  List.iter (fun i -> Cache.add c [ ("a", i) ] (valid ~stmt:s [| float_of_int i |])) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "stmts bounded by cap" 2 (Cache.stmts_held c);
  Alcotest.(check int) "every entry kept" 4 (Cache.size c);
  (* FIFO: the two oldest lost their program, none lost features *)
  List.iter
    (fun i ->
      let e = Cache.find c [ ("a", i) ] in
      checkb
        (Printf.sprintf "entry %d features intact" i)
        (Option.bind e Cache.feats = Some [| float_of_int i |]);
      checkb
        (Printf.sprintf "entry %d stmt %s" i (if i <= 2 then "evicted" else "retained"))
        (Option.is_some (Option.bind e Cache.stmt) = (i > 2)))
    [ 1; 2; 3; 4 ]

let test_keep_stmts_false_strips () =
  let s = Lazy.force tiny_stmt in
  let c = Cache.create ~keep_stmts:false ~name:"strip" () in
  let k = [ ("a", 1) ] in
  let stored = Cache.find_or_compile c k ~compile:(fun _ -> valid ~stmt:s [| 1. |]) in
  checkb "find_or_compile returns the stripped entry" (Cache.stmt stored = None);
  checkb "stored entry has no stmt"
    (Option.bind (Cache.find c k) Cache.stmt = None);
  checkb "features survive the strip"
    (Option.bind (Cache.find c k) Cache.feats = Some [| 1. |]);
  Alcotest.(check int) "no stmts held" 0 (Cache.stmts_held c)

let test_merge_first_wins_in_source_order () =
  let s = Lazy.force tiny_stmt in
  let into = Cache.create ~name:"into" () in
  let src = Cache.create ~name:"src" () in
  Cache.add into [ ("a", 1) ] (valid [| 1. |]);
  Cache.add src [ ("a", 1) ] (valid [| 9. |]);
  Cache.add src [ ("a", 2) ] (valid ~stmt:s [| 2. |]);
  Cache.add_validation src [ ("a", 2) ] [];
  Cache.merge ~into src;
  checkb "existing entry not overwritten"
    (Option.bind (Cache.find into [ ("a", 1) ]) Cache.feats = Some [| 1. |]);
  checkb "new entry merged with its stmt"
    (Option.is_some (Option.bind (Cache.find into [ ("a", 2) ]) Cache.stmt));
  checkb "validation verdicts merged"
    (Cache.find_validation into [ ("a", 2) ] = Some [])

let test_scope_registry () =
  Cache.clear_scopes ();
  let a = Cache.for_scope "wl@cuda|fusion=true" in
  let b = Cache.for_scope "wl@cuda|fusion=true" in
  let c = Cache.for_scope "wl@cuda|fusion=false" in
  checkb "same scope returns the same cache" (a == b);
  checkb "different scope is a different cache" (a != c);
  Cache.add a [ ("a", 1) ] (valid [| 1. |]);
  Cache.clear_scopes ();
  let a' = Cache.for_scope "wl@cuda|fusion=true" in
  Alcotest.(check int) "clear_scopes drops contents" 0 (Cache.size a')

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
(* Equivalence sweep: cached lowering ≡ uncached, at -j1 and -j4        *)
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
            match (try Some (tpl.Tuner.tpl_instantiate cfg) with _ -> None) with
            | Some s -> valid ~stmt:s (Feature.extract s)
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
                    let reference = tpl.Tuner.tpl_instantiate cfg in
                    match
                      Option.bind (Cache.find ~record:false cache cfg) Cache.stmt
                    with
                    | None -> false
                    | Some cached ->
                        String.equal
                          (Printer.stmt_to_string cached)
                          (Printer.stmt_to_string reference)
                        && Validate.check cached = Validate.check reference)
                  (Array.of_list cfgs)
              in
              Array.iteri
                (fun i ok ->
                  checkb
                    (Printf.sprintf "%s cfg %d: cached ≡ uncached at -j%d"
                       tpl.Tuner.tpl_name i domains)
                    ok)
                oks)
            [ 1; 4 ];
          checked := !checked + List.length cfgs)
        tpls)
    Workloads.all;
  checkb "sweep covered a meaningful sample" (!checked >= 30)

(* ------------------------------------------------------------------ *)
(* The full tuning loop: cache on vs off, -j1 vs -j4, clean and faulty  *)
(* ------------------------------------------------------------------ *)

let sweep_template () =
  let d = Tensor.placeholder "eq_d" (List.map Expr.int [ 1; 16; 8; 8 ]) in
  let w = Tensor.placeholder "eq_w" (List.map Expr.int [ 16; 16; 3; 3 ]) in
  let c = Op.conv2d ~name:"eq_conv" ~stride:1 d w in
  Templates.gpu_flat ~name:"eq_tpl" c

let trial_fingerprint (t : Tuner.trial) =
  (t.Tuner.config, R.status_name t.Tuner.result.R.status, R.time t.Tuner.result,
   t.Tuner.best_so_far)

let run_tune ~jobs ~use_cache ~fault_rate tpl =
  let pool = Pool.of_spec (Tvm_spec.Job_spec.make ~devices:4 ~fault_rate ~seed:7 ()) in
  let par = Par.create ~domains:jobs () in
  let measure = Pool.measure_fn pool ~kind_pred:(fun _ -> true) in
  let measure_batch = Pool.batch_measure_fn ~par pool ~kind_pred:(fun _ -> true) in
  Tuner.tune
    ~spec:(Tvm_spec.Job_spec.make ~seed:5 ~jobs ~use_compile_cache:use_cache ())
    ~measure_batch ~method_:Tuner.Ml_model ~measure ~n_trials:32 tpl

let test_tune_log_invariant_to_cache_and_jobs () =
  let tpl = sweep_template () in
  let check ~fault_rate =
    let reference = run_tune ~jobs:1 ~use_cache:false ~fault_rate tpl in
    let fp r = List.map trial_fingerprint r.Tuner.history in
    List.iter
      (fun (jobs, use_cache) ->
        let r = run_tune ~jobs ~use_cache ~fault_rate tpl in
        checkb
          (Printf.sprintf
             "log identical at -j%d cache=%b (fault %.0f%%)" jobs use_cache
             (100. *. fault_rate))
          (fp r = fp reference))
      [ (1, true); (4, false); (4, true) ]
  in
  check ~fault_rate:0.0;
  check ~fault_rate:0.2

let suite =
  [
    Alcotest.test_case "hash-consed construction interns nodes" `Quick
      test_hashcons_interning;
    Alcotest.test_case "first-wins adds with stmt-fill upgrade" `Quick
      test_first_wins_and_stmt_fill;
    Alcotest.test_case "stmt eviction is FIFO and keeps features" `Quick
      test_stmt_eviction_keeps_features;
    Alcotest.test_case "keep_stmts:false stores features only" `Quick
      test_keep_stmts_false_strips;
    Alcotest.test_case "merge is first-wins in source order" `Quick
      test_merge_first_wins_in_source_order;
    Alcotest.test_case "scope registry shares and clears" `Quick
      test_scope_registry;
    Alcotest.test_case "graph adjacency = brute-force scans" `Quick
      test_graph_adjacency_matches_scan;
    Alcotest.test_case "cached lowering ≡ uncached across workloads" `Slow
      test_equivalence_sweep;
    Alcotest.test_case "tune log invariant to cache and -j (with faults)" `Slow
      test_tune_log_invariant_to_cache_and_jobs;
  ]
