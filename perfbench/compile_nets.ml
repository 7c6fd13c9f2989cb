(* compile_nets: Compiler.build_executor over the five full-shape
   serving networks for cuda and llvm, at one host domain with
   validation on. The budget of 24 trials is one random batch per
   half-budget tuner run, so no simulated-annealing round ever runs:
   fusion, memory planning, validation, the CPU model and cold-cache
   lowering of fresh configurations do the work, and the propose phase
   does none. *)

open Common
module Compiler = Tvm.Compiler
module Target = Tvm.Target
module Spec = Tvm_spec.Job_spec
module Models = Tvm_models.Models
module Exec = Tvm_runtime.Graph_executor
module Rt = Tvm_runtime.Rt_module

let trials = 24
let targets () = [ Target.cuda (); Target.llvm () ]
let target_name t = if Target.is_gpu t then "cuda" else "llvm"

type env = { nets : (string * Tvm_graph.Graph_ir.t) list }

let setup () = { nets = Models.serving_suite ~full:true () }

let spec ~seed ~net target =
  Spec.make ~op:Spec.Compile ~workload:net ~target:(target_name target) ~trials ~seed
    ~jobs:1 ~validate:true ()

type build = {
  net : string;
  target : Target.t;
  cost : cost;
  result : Compiler.build_result option;  (* None: Validation_failed *)
  latency_s : float;
  tuned : Compiler.tuned_cache;
  counters : (string * float) list;
}

(* Every network for every target, each build with a fresh tuned
   cache, as a separate [tvmc compile] would have. *)
let run_pass ?db env ~seed =
  Compiler.clear_cache ();
  List.concat_map
    (fun (net, graph) ->
      List.map
        (fun target ->
          let tuned = Compiler.create_tuned_cache () in
          let spec = spec ~seed ~net target in
          let (res, cost), counters =
            counter_delta Layers.tuner_counters (fun () ->
                timed_unit (fun () ->
                    try Some (Compiler.build_executor ~spec ?db ~tuned graph target)
                    with Compiler.Validation_failed _ -> None))
          in
          {
            net; target; cost; tuned; counters;
            result = Option.map fst res;
            latency_s =
              (match res with Some (_, exec) -> Exec.estimated_time_s exec | None -> Float.nan);
          })
        (targets ()))
    env.nets

let pass_seconds builds = sum (List.map (fun b -> b.cost.wall_s) builds)
let build_wall_s b = b.cost.wall_s

let check_pass builds =
  List.iter
    (fun b ->
      check
        (Printf.sprintf "%s/%s builds without Validation_failed" b.net (target_name b.target))
        (b.result <> None))
    builds

(* Virtual outputs: every kernel's simulated time and the modelled
   network latency, exactly. *)
let digest builds =
  String.concat "\n"
    (List.map
       (fun b ->
         Printf.sprintf "%s %s %h %s" b.net (target_name b.target) b.latency_s
           (match b.result with
           | None -> "-"
           | Some r ->
               String.concat ","
                 (List.map
                    (fun (k : Rt.kernel) -> Printf.sprintf "%h" k.Rt.k_time_s)
                    (Rt.kernels r.Compiler.module_))))
       builds)

let record_virtual builds =
  record "net_latency_ms"
    (geomean
       (List.filter_map
          (fun b -> if Float.is_finite b.latency_s then Some (1e3 *. b.latency_s) else None)
          builds))

(* The reduced shapes of the end-to-end tests: small enough for the
   reference interpreter. *)
let reduced_nets () =
  [
    ("resnet18", Models.resnet18 ~input_hw:32 ~width:0.125 ~num_classes:10 ());
    ("mobilenet", Models.mobilenet ~input_hw:32 ~width:0.125 ~num_classes:10 ());
    ("lstm", Models.lstm_lm ~hidden:32 ~layers:2 ~vocab:50 ());
    ("dqn", Models.dqn ~input_hw:40 ());
    ("dcgan", Models.dcgan ~code_dim:8 ~base:4 ());
  ]

(* Compiled output must equal the reference computation on a reduced
   network, under the same build settings, for both targets. The
   reference interpreter is slow, so each run checks one network,
   chosen by the seed; five consecutive seeds cover the suite. *)
let check_outputs ~seed =
  let nets = reduced_nets () in
  let net, graph = List.nth nets (abs seed mod List.length nets) in
  List.iter
    (fun target ->
      let ok =
        match
          Compiler.build_executor ~spec:(spec ~seed ~net target)
            ~tuned:(Compiler.create_tuned_cache ()) graph target
        with
        | _, exec ->
            Exec.set_params exec (Models.random_params graph);
            List.iter (fun (n, v) -> Exec.set_input exec n v) (Models.random_inputs graph);
            Exec.run ~mode:`Reference exec;
            let reference = Tvm_nd.Ndarray.copy (Exec.get_output exec 0) in
            Exec.run ~mode:`Compiled exec;
            Tvm_nd.Ndarray.equal_approx ~tol:2e-3 reference (Exec.get_output exec 0)
        | exception Compiler.Validation_failed _ -> false
      in
      check (Printf.sprintf "%s/%s compiled == reference" net (target_name target)) ok)
    (targets ());
  Compiler.clear_cache ()

let measure env ~seed ~seconds =
  let passes =
    repeat_for ~seconds (fun _ ->
        let builds = run_pass env ~seed in
        check_pass builds;
        builds)
  in
  let first = List.hd passes in
  List.iteri
    (fun k p ->
      same_virtual_output (Printf.sprintf "compile_nets pass %d" k) (digest first) (digest p))
    passes;
  let builds = float_of_int (List.length first) in
  record "cpu_ms_per_op" (1e3 *. sum (median_units (fun b -> calibrated b.cost) passes) /. builds);
  record "alloc_kwords_per_op" (sum (List.map (fun b -> b.cost.words) first) /. builds /. 1e3);
  record "compile_s" (sum (median_units build_wall_s passes));
  record_cal (List.concat_map (List.map (fun b -> b.cost)) passes);
  record_virtual first

let traced env ~seed ~seconds =
  let untraced = ref [] and traced = ref [] in
  let first =
    repeat_for ~seconds (fun k ->
        let u = run_pass env ~seed in
        let db = Tvm_autotune.Tuner.Db.create () in
        let t, phase_s =
          Layers.with_phase_spans ~except:[ "phase.tuning" ] (fun () -> run_pass ~db env ~seed)
        in
        check_pass t;
        same_virtual_output (Printf.sprintf "compile_nets pass %d" k) (digest u) (digest t);
        untraced := u :: !untraced;
        traced := (t, db, phase_s) :: !traced;
        u)
    |> List.hd
  in
  record_virtual first;
  let untraced_s = median_units build_wall_s !untraced in
  Layers.record_overhead ~untraced_s:(sum untraced_s)
    ~traced_s:(sum (median_units build_wall_s (List.map (fun (t, _, _) -> t) !traced)));
  List.iter2
    (fun b s -> record (Printf.sprintf "compile.%s.%s_s" b.net (target_name b.target)) s)
    first untraced_s;
  let builds, db, phase_s = List.hd !traced in
  let wall_s = pass_seconds builds in
  let sum_b f = sum (List.map f builds) in
  let d n b = List.assoc n b.counters in
  Layers.record_tuner_counters (List.map (fun n -> (n, sum_b (d n))) Layers.tuner_counters);
  let results = List.filter_map (fun b -> Option.map (fun r -> (b, r)) b.result) builds in
  let stmts pred =
    List.concat_map
      (fun (b, r) ->
        if pred b.target then
          List.map (fun (k : Rt.kernel) -> k.Rt.k_stmt) (Rt.kernels r.Compiler.module_)
        else [])
      results
  in
  let n_kernels = List.length (stmts (fun _ -> true)) in
  let trials_run = List.fold_left (fun a (_, r) -> a + r.Compiler.tuning_trials_run) 0 results in
  record "compiler.kernels" (float_of_int n_kernels);
  record "compiler.trials_run" (float_of_int trials_run);
  record "lower.calls_per_trial" (ratio (sum_b (d "cache.miss")) (float_of_int trials_run));
  record "tuner.ok_ratio"
    (ratio
       (float_of_int (Tvm_autotune.Tuner.Db.status_count db "ok"))
       (float_of_int (Tvm_autotune.Tuner.Db.size db)));
  (* Replays on the compiled kernels and graphs. *)
  ignore (Layers.replay_programs (stmts (fun _ -> true)));
  Layers.replay_model (Target.cuda ()) (stmts Target.is_gpu);
  Layers.replay_model (Target.llvm ()) (stmts (fun t -> not (Target.is_gpu t)));
  Layers.replay_lowering
    (List.concat_map (fun (b, r) -> Layers.lowering_jobs ~target:b.target b.tuned r) results);
  let graphs = List.map snd env.nets in
  Layers.replay_graph_passes graphs;
  Layers.replay_vdla (Layers.graph_convs graphs);
  (* Covered host time: the compiler's own phase spans outside tuning
     (fusion, templates, final lowering, validation, packaging) and
     the tuner's own phase timers; the rest is tuner bookkeeping
     outside its phases and executor creation. *)
  Layers.record_unattributed ~wall_s ~domains:1
    (phase_s
    +. List.fold_left (fun a n -> a +. sum_b (d n)) 0.
         [ "tune.phase.propose_s"; "tune.phase.prepare_s"; "tune.phase.fit_s";
           "tune.phase.measure_s" ])
