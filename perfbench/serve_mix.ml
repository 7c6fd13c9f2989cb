(* serve_mix: Model_server.load of the five-model serving suite, then
   seeded open-loop traces from eight tenants round-robin over the
   five models. The virtual-clock event loop, dynamic batching and the
   slab arena do the work; nothing is tuned. *)

open Common
module Srv = Tvm_serve.Model_server
module Traffic = Tvm_serve.Traffic
module Models = Tvm_models.Models
module Spec = Tvm_spec.Job_spec

let tenants = 8

(* Per-tenant rate of the timed trace: check-servert's rate, about
   half of the server's capacity. *)
let rate_hz = 1200.
let horizon_s = 1.0
let slo_s = 0.050

(* Per-tenant rates searched for the knee: the highest whose p99 stays
   within the SLO while at least 95% of the offered load is served. *)
let ladder_hz = [ 1200.; 1500.; 1800.; 2100.; 2400.; 2700. ]

let config () = Srv.config ()

let trace ~seed ~rate_hz models =
  Traffic.generate ~seed ~horizon_s
    (List.init tenants (fun i ->
         Traffic.tenant ~rate_hz ~slo_s
           ~model:(List.nth models (i mod List.length models))
           (Printf.sprintf "tenant%d" i)))

type env = {
  graphs : (string * Tvm_graph.Graph_ir.t) list;
  server : Srv.t;
  requests : Traffic.request list;
}

let setup ~seed () =
  let graphs = Models.serving_suite () in
  let server = Srv.load (config ()) graphs in
  { graphs; server; requests = trace ~seed ~rate_hz (List.map fst graphs) }

(* Every request of the trace completes exactly once. *)
let check_completions what requests (o : Srv.outcome) =
  let n = List.length requests in
  let seen = Hashtbl.create n in
  List.iter (fun r -> Hashtbl.replace seen r.Traffic.rq_id 0) requests;
  List.iter
    (fun c ->
      match Hashtbl.find_opt seen c.Srv.rc_id with
      | Some k -> Hashtbl.replace seen c.Srv.rc_id (k + 1)
      | None -> Hashtbl.replace seen c.Srv.rc_id 2)
    o.Srv.oc_completions;
  let bad = Hashtbl.fold (fun _ k n -> if k = 1 then n else n + 1) seen 0 in
  check_count (what ^ ": requests completed exactly once") ~n ~bad

let run_pass env = timed_unit (fun () -> Srv.run env.server env.requests)

let digest o = Digest.to_hex (Digest.string (String.concat "\n" (Srv.results_lines o)))

let us_per_req env seconds = 1e6 *. seconds /. float_of_int (List.length env.requests)

(* The virtual-clock outcome at the timed rate, and the rate ladder. *)
let record_virtual env (o : Srv.outcome) ~seed =
  let n = List.length o.Srv.oc_completions in
  record "serve_p50_ms" (1e3 *. o.Srv.oc_p50_s);
  record "serve_p99_ms" (1e3 *. o.Srv.oc_p99_s);
  record "serve_samples" (float_of_int n);
  record "serve_slab_mb" (o.Srv.oc_slab_bytes /. 1e6);
  let models = List.map fst env.graphs in
  let max_rps =
    List.fold_left
      (fun best rate_hz ->
        let reqs = trace ~seed ~rate_hz models in
        let o = Srv.run env.server reqs in
        check_completions (Printf.sprintf "ladder %g" rate_hz) reqs o;
        let offered = float_of_int tenants *. rate_hz in
        Printf.printf "ladder %5.0f req/s offered: served %8.1f req/s, p50 %.3f ms, p99 %.3f ms (%d requests)\n"
          offered o.Srv.oc_throughput_rps (1e3 *. o.Srv.oc_p50_s) (1e3 *. o.Srv.oc_p99_s)
          (List.length o.Srv.oc_completions);
        if o.Srv.oc_p99_s <= slo_s && o.Srv.oc_throughput_rps >= 0.95 *. offered then
          Float.max best offered
        else best)
      0. ladder_hz
  in
  record "serve_max_rps" max_rps

(* The timed passes, each checked against the first; returns the
   first pass's outcome. *)
let run_passes env ~seed ~seconds =
  let first = ref None in
  let costs =
    repeat_for ~seconds (fun k ->
        let o, c = run_pass env in
        check_completions (Printf.sprintf "pass %d" k) env.requests o;
        (match !first with
        | None -> first := Some (o, digest o, c.words)
        | Some (_, d0, _) ->
            same_virtual_output (Printf.sprintf "serve_mix pass %d" k) d0 (digest o));
        c)
  in
  let o, _, words = Option.get !first in
  let median_us clock = us_per_req env (median (List.map clock costs)) in
  record "cpu_ms_per_op" (median_us calibrated /. 1e3);
  record "alloc_kwords_per_op" (words /. float_of_int (List.length env.requests) /. 1e3);
  record "serve_us_per_req" (median_us (fun c -> c.wall_s));
  record_cal costs;
  record_virtual env o ~seed;
  o

let measure env ~seed ~seconds = ignore (run_passes env ~seed ~seconds)

(* Compile the suite as [load] does (no tuning, one domain, private
   caches), keeping the builds for the lowering and program replays. *)
let replay_builds env =
  let spec = Spec.make ~trials:0 ~jobs:1 ~use_compile_cache:false () in
  let target = Tvm.Target.cuda () in
  List.map
    (fun (_, graph) ->
      let tuned = Tvm.Compiler.create_tuned_cache () in
      (Tvm.Compiler.build ~spec ~tuned graph target, tuned))
    env.graphs

let traced env ~seed ~seconds =
  let cfg = config () in
  let loads, phase_s =
    Layers.with_phase_spans (fun () ->
        List.map
          (fun (name, g) ->
            let _, s = timed (fun () -> Srv.load cfg [ (name, g) ]) in
            record (Printf.sprintf "serve.load_s.%s" name) s;
            s)
          env.graphs)
  in
  let models = List.map fst env.graphs in
  let gen_s =
    per_call [| () |] (fun () -> trace ~seed ~rate_hz models)
  in
  record "traffic.us_per_req" (1e6 *. gen_s /. float_of_int (List.length env.requests));
  (* Model_server.run is not wrapped: the traced run times the same
     passes as the untraced one, for half the time. *)
  let first = run_passes env ~seed ~seconds:(seconds /. 2.) in
  record "serve.mean_batch" first.Srv.oc_mean_batch;
  record "serve.batches" (float_of_int (List.length first.Srv.oc_batches));
  List.iter
    (fun dev ->
      record
        (Printf.sprintf "placement.%s_groups" dev)
        (float_of_int
           (List.fold_left
              (fun a m -> a + Option.value ~default:0 (List.assoc_opt dev m.Srv.mv_placement))
              0 (Srv.models env.server))))
    [ "cpu"; "gpu"; "vdla" ];
  record "arena.reuses" (float_of_int first.Srv.oc_slab_reuses);
  record "arena.naive_mb" (first.Srv.oc_naive_bytes /. 1e6);
  (* Replays on the suite's graphs and on its kernels as [load]
     compiles them. *)
  let graphs = List.map snd env.graphs in
  Layers.replay_graph_passes graphs;
  Layers.replay_vdla (Layers.graph_convs graphs);
  let builds = replay_builds env in
  let stmts =
    List.concat_map
      (fun (br, _) ->
        List.map
          (fun (k : Tvm_runtime.Rt_module.kernel) -> k.Tvm_runtime.Rt_module.k_stmt)
          (Tvm_runtime.Rt_module.kernels br.Tvm.Compiler.module_))
      builds
  in
  ignore (Layers.replay_programs stmts);
  Layers.replay_model (Tvm.Target.cuda ()) stmts;
  Layers.replay_lowering
    (List.concat_map
       (fun (br, tuned) -> Layers.lowering_jobs ~target:(Tvm.Target.cuda ()) tuned br)
       builds);
  (* Covered host time of the model loads: the compiler's own phase
     spans; the rest is executor creation, placement and planning. *)
  Layers.record_unattributed ~wall_s:(sum loads) ~domains:1 phase_s
