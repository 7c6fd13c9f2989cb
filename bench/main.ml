(** Benchmark harness: regenerates every table and figure of the paper
    (see DESIGN.md's per-experiment index), the ablation studies, and
    the service, cache and fleet benchmarks. Per-layer costs of the
    compiler's hot paths are timed by [perfbench/run.py].

    Usage: [main.exe [--quick] [--json FILE] [--baseline FILE] [-j N]
    [exp ...]] where [exp] is one of fig4 fig6 fig7 fig10 fig12 fig14
    fig15 fig16 fig17 fig18 fig19 fig21 table1 table2 ablations partune
    lower cache serve serve_rt fleet all (default: all). [-j N] sets
    the domain/device count the [partune] throughput comparison scales
    to (default 4).

    [--json FILE] dumps the observability metrics registry (including
    one [bench.<exp>.duration_s] gauge per experiment run) as JSON —
    e.g. [--json BENCH_obs.json] — so the perf trajectory of the repo
    is machine-readable PR over PR.

    [--baseline FILE] compares the run's metrics against a committed
    baseline dump under {!Tvm_obs.Bench_gate.default_rules} and exits
    nonzero on regression — the [make check-bench] gate. Update the
    baseline with [make bench-baseline] when a change legitimately
    moves the numbers. *)

module E = Tvm_experiments.Exp_util
module Fm = Tvm_experiments.Fig_micro
module Fe = Tvm_experiments.Fig_e2e
module Ab = Tvm_experiments.Ablations

(** Domain/device count for the multicore comparisons ([-j N]). *)
let bench_jobs = ref 4

(* ------------------------------------------------------------------ *)
(* tvmd service                                                         *)
(* ------------------------------------------------------------------ *)

module Sv = Tvm_serve.Tvmd
module Sch = Tvm_serve.Scheduler
module Js = Tvm_spec.Job_spec

(* A mixed trace from three tenants (weights 2:1:1) through tvmd:
   tuning, compiles and a profile. Records the service SLOs
   ([tvmd.queue_wait_s] / [tvmd.completion_s] histograms — p50/p90/p99
   land in the JSON dump), the warm-restart repeat-compile speedup and
   a schedule-determinism check across -j. All latencies are
   virtual-clock, so every number here is deterministic. *)
let bench_serve () =
  let req op tenant weight workload submit =
    Sv.request ~tenant ~weight ~submit_s:submit
      (Js.make ~op ~workload ~trials:(if op = Js.Profile then 0 else 12)
         ~method_name:"random" ~jobs:!bench_jobs ())
  in
  let trace =
    [
      req Js.Tune "alpha" 2. "C1" 0.;
      req Js.Compile "alpha" 2. "dqn" 0.;
      req Js.Tune "beta" 1. "C2" 0.;
      req Js.Profile "beta" 1. "dqn" 0.5;
      req Js.Tune "gamma" 1. "C3" 0.2;
      req Js.Compile "gamma" 1. "dqn" 0.6;
    ]
  in
  let store = Filename.temp_file "tvmd_bench" ".store" in
  Sys.remove store;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists store then Sys.remove store)
  @@ fun () ->
  let service_of (o : Sv.outcome) id =
    List.find_map
      (fun (c : Sv.request Sch.completion) ->
        if c.Sch.cp_job.Sch.jb_id = id then Some c.Sch.cp_service_s else None)
      o.Sv.oc_completions
    |> Option.get
  in
  (* Cold: empty store, cleared tuned cache — compiles pay for tuning. *)
  Tvm.Compiler.clear_cache ();
  let cold = Sv.serve ~slots:2 ~store trace in
  (* Warm restart (fresh process state, warm store) plus one new
     submission of the already-tuned compile: the repeat-compile probe. *)
  Tvm.Compiler.clear_cache ();
  let warm = Sv.serve ~slots:2 ~store (trace @ [ req Js.Compile "alpha" 2. "dqn" 9. ]) in
  let cold_compile = Float.max (service_of cold 1) (service_of cold 5) in
  let warm_compile = service_of warm (List.length trace) in
  let speedup = cold_compile /. warm_compile in
  Tvm_obs.Metrics.set_gauge "bench.serve.warm_speedup" speedup;
  (* Determinism across -j: the same trace at -j1 must schedule, charge
     and summarize identically, line for line. *)
  Tvm.Compiler.clear_cache ();
  let j1 =
    Sv.serve ~slots:2
      (List.map
         (fun r -> { r with Sv.rq_spec = { r.Sv.rq_spec with Js.jobs = 1 } })
         trace)
  in
  let identical = j1.Sv.oc_lines = cold.Sv.oc_lines in
  (* Concurrent lanes: a tune-heavy four-tenant trace. At --slots 4 the
     fair-share schedule overlaps the tenants' jobs, so the virtual
     makespan shrinks vs the same trace serialized at --slots 1. All
     latencies are virtual-clock — the gauge is deterministic and
     independent of the host's core count. *)
  let makespan (o : Sv.outcome) =
    List.fold_left
      (fun acc (c : Sv.request Sch.completion) ->
        Float.max acc c.Sch.cp_finish_s)
      0. o.Sv.oc_completions
  in
  let scale_trace =
    List.concat_map
      (fun (tenant, wl) ->
        [ req Js.Tune tenant 1. wl 0.; req Js.Compile tenant 1. wl 0.1 ])
      [ ("alpha", "C1"); ("beta", "C2"); ("gamma", "C3"); ("delta", "C7") ]
  in
  Tvm.Compiler.clear_cache ();
  let s1 = Sv.serve ~slots:1 scale_trace in
  Tvm.Compiler.clear_cache ();
  let s4 = Sv.serve ~slots:4 scale_trace in
  let concurrent_speedup = makespan s1 /. makespan s4 in
  Tvm_obs.Metrics.set_gauge "tvmd.concurrent_speedup" concurrent_speedup;
  (* Determinism must also hold at 4 lanes: -j1 vs -j!bench_jobs, line
     for line. *)
  Tvm.Compiler.clear_cache ();
  let s4_j1 =
    Sv.serve ~slots:4
      (List.map
         (fun r -> { r with Sv.rq_spec = { r.Sv.rq_spec with Js.jobs = 1 } })
         scale_trace)
  in
  let identical4 = s4_j1.Sv.oc_lines = s4.Sv.oc_lines in
  Tvm_obs.Metrics.set_gauge "bench.serve.identical_schedule"
    (if identical && identical4 then 1. else 0.);
  (* Store compaction: run a compile/profile-heavy trace cold, then
     three warm restarts — each restart refreshes every done record, so
     the store accretes superseded copies. Compaction must reclaim the
     dead weight while keeping every live record. *)
  let cstore = Filename.temp_file "tvmd_compact" ".store" in
  Sys.remove cstore;
  let compact_ratio =
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists cstore then Sys.remove cstore)
    @@ fun () ->
    let creq op tenant workload submit trials =
      Sv.request ~tenant ~submit_s:submit
        (Js.make ~op ~workload ~trials ~method_name:"random" ~jobs:!bench_jobs
           ())
    in
    let ctrace =
      [
        creq Js.Compile "alpha" "dqn" 0. 2;
        creq Js.Profile "alpha" "dqn" 0.1 0;
        creq Js.Profile "alpha" "dcgan" 0.2 0;
        creq Js.Profile "beta" "dqn" 0. 0;
        creq Js.Profile "beta" "dcgan" 0.2 0;
        creq Js.Profile "beta" "lstm" 0.4 0;
        creq Js.Profile "gamma" "dcgan" 0. 0;
        creq Js.Profile "gamma" "dqn" 0.3 0;
        creq Js.Profile "gamma" "lstm" 0.5 0;
      ]
    in
    for _ = 0 to 3 do
      Tvm.Compiler.clear_cache ();
      ignore (Sv.serve ~slots:2 ~store:cstore ctrace)
    done;
    match Tvm_autotune.Store.compact ~rules:Sv.store_rules cstore with
    | Some (before, after) ->
        1. -. (float_of_int after /. float_of_int (max 1 before))
    | None -> 0.
  in
  Tvm_obs.Metrics.set_gauge "store.compact_ratio" compact_ratio;
  (* Dispatch scalability: a 1000-job backlog across 8 tenants with
     unit services — exercises the per-tenant ready index and the
     in-flight pruning on a queue three orders of magnitude deeper than
     the service traces above. Timing gauge only (no gate rule: it is
     wall-clock). *)
  let backlog =
    List.init 1000 (fun i ->
        {
          Sch.jb_id = i;
          jb_tenant = Printf.sprintf "t%d" (i mod 8);
          jb_priority = i mod 3;
          jb_submit_s = float_of_int (i / 100);
          jb_payload = ();
        })
  in
  let backlog_tenants =
    List.init 8 (fun i -> Sch.tenant (Printf.sprintf "t%d" i))
  in
  let t_backlog = Unix.gettimeofday () in
  let backlog_done =
    Sch.run ~slots:4 ~tenants:backlog_tenants
      ~execute:(fun _ ~attempt:_ -> Ok 0.01)
      backlog
  in
  let backlog_s = Unix.gettimeofday () -. t_backlog in
  assert (List.length backlog_done = 1000);
  Tvm_obs.Metrics.set_gauge "bench.sched.backlog_1k_s" backlog_s;
  let pct name p =
    match Tvm_obs.Metrics.percentile name p with Some v -> v | None -> nan
  in
  Printf.printf
    "tvmd: %d jobs over 3 tenants (2:1:1), %d restored on warm restart\n"
    (List.length trace) warm.Sv.oc_restored;
  Printf.printf "  queue wait  p50 %.3fs  p90 %.3fs  p99 %.3fs\n"
    (pct "tvmd.queue_wait_s" 50.) (pct "tvmd.queue_wait_s" 90.)
    (pct "tvmd.queue_wait_s" 99.);
  Printf.printf "  completion  p50 %.3fs  p90 %.3fs  p99 %.3fs\n"
    (pct "tvmd.completion_s" 50.) (pct "tvmd.completion_s" 90.)
    (pct "tvmd.completion_s" 99.);
  Printf.printf "  repeat compile: cold %.3fs -> warm %.3fs (%.1fx)\n"
    cold_compile warm_compile speedup;
  Printf.printf "  schedule identical at -j1 vs -j%d (slots 2 and 4): %b\n"
    !bench_jobs (identical && identical4);
  Printf.printf "  virtual makespan: slots 1 %.3fs -> slots 4 %.3fs (%.1fx)\n"
    (makespan s1) (makespan s4) concurrent_speedup;
  Printf.printf "  store compaction reclaimed %.0f%%\n"
    (100. *. compact_ratio);
  Printf.printf "  1000-job backlog dispatched in %.3fs (wall)\n" backlog_s

(* ------------------------------------------------------------------ *)
(* Serving executor                                                     *)
(* ------------------------------------------------------------------ *)

module Ms = Tvm_serve.Model_server
module Tr = Tvm_serve.Traffic

(* The ISSUE-10 serving gates: load the five-model serving suite, drive
   it with a saturating open-loop trace (8 tenants at 2500 req/s), and
   lock in (1) dynamic batching ≥ 2x unbatched throughput at batch 8,
   (2) the shared slab arena saving ≥ 30% vs per-request naive buffers
   at concurrency 8, (3) byte-identical results across load lanes and
   reruns. All virtual-clock, so every number is deterministic. *)
let bench_serve_rt () =
  E.banner "Serving executor: dynamic batching, slab arena, hetero dispatch";
  let graphs = Tvm_models.Models.serving_suite () in
  let cfg max_batch = Ms.config ~max_batch ~max_delay_s:2e-3 ~max_inflight:8 () in
  let trace =
    Tr.generate ~seed:0 ~horizon_s:0.2
      (List.init 8 (fun i ->
           Tr.tenant ~rate_hz:2500. ~slo_s:0.25
             ~model:(fst (List.nth graphs (i mod List.length graphs)))
             (Printf.sprintf "tenant%d" i)))
  in
  let server = Ms.load (cfg 8) graphs in
  List.iter
    (fun (m : Ms.model) ->
      Printf.printf "  %-12s est %6.3f ms/batch1  %s\n" m.Ms.mv_name
        (1e3 *. m.Ms.mv_time1_s)
        (String.concat "  "
           (List.map (fun (d, n) -> Printf.sprintf "%s=%d" d n) m.Ms.mv_placement)))
    (Ms.models server);
  let batched = Ms.run server trace in
  let unbatched = Ms.run (Ms.load (cfg 1) graphs) trace in
  let speedup =
    batched.Ms.oc_throughput_rps /. Float.max 1e-9 unbatched.Ms.oc_throughput_rps
  in
  Printf.printf
    "  %d requests: batched %8.0f req/s (mean batch %.2f) vs unbatched %8.0f \
     req/s -> %.2fx\n"
    (List.length trace) batched.Ms.oc_throughput_rps batched.Ms.oc_mean_batch
    unbatched.Ms.oc_throughput_rps speedup;
  Printf.printf
    "  latency ms p50/p90/p99: %.3f / %.3f / %.3f (batched), slo misses %d\n"
    (1e3 *. batched.Ms.oc_p50_s) (1e3 *. batched.Ms.oc_p90_s)
    (1e3 *. batched.Ms.oc_p99_s) batched.Ms.oc_slo_misses;
  Printf.printf
    "  slab arena %.2f MB vs %.2f MB naive in-flight peak: %.0f%% saved (%d \
     reuses)\n"
    (batched.Ms.oc_slab_bytes /. 1e6)
    (batched.Ms.oc_naive_bytes /. 1e6)
    (100. *. batched.Ms.oc_slab_saving)
    batched.Ms.oc_slab_reuses;
  (* Determinism: byte-identical completion lines when the models are
     loaded over 4 lanes, and on a plain rerun. *)
  let o4 = Ms.run (Ms.load ~lanes:4 (cfg 8) graphs) trace in
  let rerun = Ms.run server trace in
  let identical =
    Ms.results_lines batched = Ms.results_lines o4
    && Ms.results_lines batched = Ms.results_lines rerun
  in
  Printf.printf "  results across -j1/-j4/rerun: %s\n"
    (if identical then "identical" else "DIFFER (bug!)");
  Tvm_obs.Metrics.set_gauge "serve_rt.batch_speedup" speedup;
  Tvm_obs.Metrics.set_gauge "serve_rt.slab_saving" batched.Ms.oc_slab_saving;
  Tvm_obs.Metrics.set_gauge "serve_rt.identical_results"
    (if identical then 1. else 0.);
  (* Leave the batched run's gauges in the registry (the unbatched and
     determinism runs overwrote them). *)
  Tvm_obs.Metrics.set_gauge "serve_rt.throughput_rps" batched.Ms.oc_throughput_rps;
  Tvm_obs.Metrics.set_gauge "serve_rt.slab_bytes" batched.Ms.oc_slab_bytes;
  Tvm_obs.Metrics.set_gauge "serve_rt.naive_bytes" batched.Ms.oc_naive_bytes;
  Tvm_obs.Metrics.set_gauge "serve_rt.mean_batch" batched.Ms.oc_mean_batch;
  Tvm_obs.Metrics.set_gauge "serve_rt.slo_misses"
    (float_of_int batched.Ms.oc_slo_misses)

(* ------------------------------------------------------------------ *)
(* Measurement fleet                                                    *)
(* ------------------------------------------------------------------ *)

module Fl = Tvm_rpc.Device_pool

(* Fleet scaling: one fixed synthetic workload dispatched to fleets of
   8/64/256/1000 heterogeneous devices. Everything is virtual-clock
   ([Device_pool.simulate]), so the makespans and the scaling efficiency
   ((T(8)/T(256)) / (usable(256)/usable(8))) are deterministic and
   gate-able. *)
let bench_fleet () =
  E.banner "Measurement fleet: scaling";
  let kind = Fl.Gpu_dev Tvm_sim.Machine.titan_x in
  let n_jobs = 2000 in
  (* Deterministic spread of model times around ~77 ms: with per-job
     dispatch 0.05 s and 3 repeats, one job charges ~0.28 s. *)
  let costs =
    Array.init n_jobs (fun i ->
        0.06 +. (0.04 *. float_of_int (i mod 7) /. 7.))
  in
  let run_at d =
    let f = Fl.session (Fl.catalog (Fl.mixed_kinds d)) in
    let r = Fl.simulate f ~kind ~cost_s:costs in
    assert (Array.length r = n_jobs);
    (Fl.makespan f, Fl.usable f ~kind)
  in
  let sizes = [ 8; 64; 256; 1000 ] in
  let results = List.map (fun d -> (d, run_at d)) sizes in
  List.iter
    (fun (d, (mk, usable)) ->
      Tvm_obs.Metrics.set_gauge
        (Printf.sprintf "bench.fleet.makespan_%d" d)
        mk;
      Printf.printf "  %4d devices (%3d usable): makespan %8.2f s\n" d usable mk)
    results;
  let span d = fst (List.assoc d results) in
  let usable_at d = snd (List.assoc d results) in
  let perfect = float_of_int (usable_at 256) /. float_of_int (usable_at 8) in
  let efficiency = span 8 /. span 256 /. perfect in
  Tvm_obs.Metrics.set_gauge "bench.fleet.scaling_efficiency" efficiency;
  Printf.printf "  scaling efficiency 8 -> 256 devices: %.2f (perfect = 1.0)\n"
    efficiency

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let experiments : (string * (unit -> unit)) list =
  [
    ("table1", fun () -> Fm.table1 ());
    ("table2", fun () -> Fm.table2 ());
    ("fig4", fun () -> ignore (Fm.fig4 ()));
    ("fig6", fun () -> Fm.fig6 ());
    ("fig7", fun () -> ignore (Fm.fig7 ()));
    ("fig10", fun () -> ignore (Fm.fig10 ()));
    ("fig12", fun () -> ignore (Fm.fig12 ()));
    ("fig14", fun () -> ignore (Fe.fig14 ()));
    ("fig15", fun () -> ignore (Fe.fig15 ()));
    ("fig16", fun () -> ignore (Fe.fig16 ()));
    ("fig17", fun () -> ignore (Fe.fig17 ()));
    ( "fig18",
      fun () ->
        ignore (Fe.fig18 ());
        ignore (Fe.fig18_tensorize_ablation ()) );
    ("fig19", fun () -> ignore (Fe.fig19 ()));
    ("fig21", fun () -> ignore (Fe.fig21 ()));
    ( "ablations",
      fun () ->
        ignore (Ab.ablation_features ());
        ignore (Ab.ablation_explorer ());
        ignore (Ab.ablation_memplan ());
        ignore (Ab.ablation_layout ());
        ignore (Ab.ablation_fusion ()) );
    ("partune", fun () -> ignore (Fm.partune ~jobs:!bench_jobs ()));
    ("lower", fun () -> ignore (Fm.bench_lower ()));
    ("cache", fun () -> ignore (Fm.bench_cache ()));
    ("serve", bench_serve);
    ("serve_rt", bench_serve_rt);
    ("fleet", fun () -> bench_fleet ());
  ]

(** Pull [--json FILE] out of the raw argument list. *)
let rec extract_json_flag = function
  | [] -> (None, [])
  | "--json" :: file :: rest ->
      let _, others = extract_json_flag rest in
      (Some file, others)
  | "--json" :: [] -> invalid_arg "--json requires a FILE argument"
  | a :: rest ->
      let file, others = extract_json_flag rest in
      (file, a :: others)

(** Pull [--baseline FILE] out of the raw argument list. *)
let rec extract_baseline_flag = function
  | [] -> (None, [])
  | "--baseline" :: file :: rest ->
      let _, others = extract_baseline_flag rest in
      (Some file, others)
  | "--baseline" :: [] -> invalid_arg "--baseline requires a FILE argument"
  | a :: rest ->
      let file, others = extract_baseline_flag rest in
      (file, a :: others)

(** Pull [-j N] out of the raw argument list. *)
let rec extract_jobs_flag = function
  | [] -> (None, [])
  | "-j" :: n :: rest ->
      let _, others = extract_jobs_flag rest in
      (Some (int_of_string n), others)
  | "-j" :: [] -> invalid_arg "-j requires a count argument"
  | a :: rest ->
      let n, others = extract_jobs_flag rest in
      (n, a :: others)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  Tvm_graph.Std_ops.register_all ();
  let args = Array.to_list Sys.argv |> List.tl in
  let json_out, args = extract_json_flag args in
  let baseline, args = extract_baseline_flag args in
  let jobs, args = extract_jobs_flag args in
  Option.iter (fun j -> bench_jobs := max 1 j) jobs;
  let quick = List.mem "--quick" args in
  if quick then E.trial_scale := 0.3;
  let wanted = List.filter (fun a -> a <> "--quick") args in
  let wanted = if wanted = [] || List.mem "all" wanted then List.map fst experiments else wanted in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          let t = Unix.gettimeofday () in
          (try f ()
           with e ->
             Printf.printf "!! experiment %s failed: %s\n" name (Printexc.to_string e);
             Tvm_obs.Metrics.incr "bench.failures");
          let dt = Unix.gettimeofday () -. t in
          Tvm_obs.Metrics.set_gauge ("bench." ^ name ^ ".duration_s") dt;
          Printf.printf "[%s done in %.1fs]\n%!" name dt
      | None -> Printf.printf "unknown experiment %s\n" name)
    wanted;
  Printf.printf "\ntotal benchmark time: %.1fs\n" (Unix.gettimeofday () -. t0);
  (match json_out with
  | Some path ->
      Tvm_obs.Metrics.write_json path;
      Printf.printf "metrics written to %s\n" path
  | None -> ());
  match baseline with
  | None -> ()
  | Some path ->
      let base = Tvm_obs.Json.parse (read_file path) in
      let checks =
        Tvm_obs.Bench_gate.compare_metrics
          ~rules:Tvm_obs.Bench_gate.default_rules ~baseline:base
          ~current:(Tvm_obs.Metrics.to_json ())
      in
      Printf.printf "\nregression gate vs %s:\n%s" path
        (Tvm_obs.Bench_gate.render checks);
      if Tvm_obs.Bench_gate.failed checks <> [] then exit 1
