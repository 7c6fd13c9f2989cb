(* tvmc — command-line driver for the compiler stack.

   Subcommands:
     compile  — build one of the evaluation networks for a target and
                report per-kernel estimates
     tune     — run the automated optimizer on a Table-2 workload
     profile  — compile a network and price one inference per kernel
                (TVM's debug-executor view; executes nothing)
     devices  — list the simulated machines

   [compile], [tune] and [profile] all accept [--trace-out FILE]
   (Chrome trace-event JSON, load in chrome://tracing or Perfetto) and
   [--metrics-out FILE] (metrics registry dump). *)

open Cmdliner
module Models = Tvm_models.Models
module Workloads = Tvm_models.Workloads
module Machine = Tvm_sim.Machine
module Rt = Tvm_runtime.Rt_module
module Obs = Tvm_obs
module Pool = Tvm_rpc.Device_pool

(* ---- shared observability flags ---- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ]
        ~doc:"Write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~doc:"Write the metrics registry as JSON")

let journal_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal-out" ]
        ~doc:
          "Write the flight-recorder journal as JSON lines: every trial's \
           propose/prepare/dispatch/measure lifecycle with provenance \
           (explorer origin, SA chain, predicted score, cache verdict, \
           per-attempt device outcomes). Byte-identical for a fixed seed \
           at any -j; analyze with `tvmc report`.")

let jobs_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "j"; "jobs" ]
        ~doc:
          "Host domains for the tuner's parallel phases (exploration, \
           feature extraction, model training, batch measurement). Never \
           changes which configurations are chosen: results are \
           bit-identical at any -j.")

(** Run [f] with tracing/journaling enabled iff the matching output
    file was requested; write the requested observability outputs
    afterwards (also on failure, so a crashed compile still leaves its
    partial trace behind). *)
let with_obs ?(journal_out = None) ~trace_out ~metrics_out f =
  if trace_out <> None then Obs.Trace.set_enabled true;
  if journal_out <> None then Obs.Journal.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      (match trace_out with
      | Some path ->
          Obs.Trace.write_chrome_trace path;
          Printf.eprintf "[obs] trace written to %s (%d spans, %d events)\n%!" path
            (Obs.Trace.span_count ()) (Obs.Trace.event_count ())
      | None -> ());
      (match journal_out with
      | Some path ->
          Obs.Journal.write_jsonl path;
          Printf.eprintf "[obs] journal written to %s (%d records)\n%!" path
            (Obs.Journal.size ())
      | None -> ());
      match metrics_out with
      | Some path ->
          Obs.Metrics.write_json path;
          Printf.eprintf "[obs] metrics written to %s\n%!" path
      | None -> ())
    f

(** Full trial history as JSON lines — byte-identical for a fixed seed
    at any -j (and to a warm replay resume on a clean fleet). *)
let write_tune_log path history =
  let oc = open_out path in
  List.iter
    (fun (t : Tvm_autotune.Tuner.trial) ->
      Printf.fprintf oc
        "{\"trial\":%d,\"config\":%S,\"status\":%S,\"time_s\":%s,\"best_s\":%s}\n"
        t.Tvm_autotune.Tuner.trial_index
        (Tvm_autotune.Cfg_space.to_string t.Tvm_autotune.Tuner.config)
        (Tvm_autotune.Measure_result.status_name
           t.Tvm_autotune.Tuner.result.Tvm_autotune.Measure_result.status)
        (match t.Tvm_autotune.Tuner.result.Tvm_autotune.Measure_result.time_s with
        | Some v -> Printf.sprintf "%.17g" v
        | None -> "null")
        (Printf.sprintf "%.17g" t.Tvm_autotune.Tuner.best_so_far))
    history;
  close_out oc

(* ---- compile ---- *)

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:
          "Run the static TIR sanitizer on every lowered kernel and fail \
           (exit 1) if it proves a defect (out-of-bounds access, unbalanced \
           dependence tokens, write race, dtype mismatch, ...)")

let print_violations name vs =
  Printf.eprintf "validation failed for %s:\n" name;
  List.iter
    (fun v -> Printf.eprintf "  %s\n" (Tvm_tir.Validate.to_string v))
    vs

let compile_cmd =
  let network =
    Arg.(value & pos 0 string "resnet18" & info [] ~docv:"NETWORK" ~doc:"Network to compile")
  in
  let target =
    Arg.(value & opt string "cuda" & info [ "target" ] ~doc:"cuda | arm | mali | llvm")
  in
  let trials =
    Arg.(value & opt int 48 & info [ "trials" ] ~doc:"Tuning trials per kernel (0 = default schedules)")
  in
  let run network target trials validate jobs trace_out metrics_out
      journal_out =
    with_obs ~journal_out ~trace_out ~metrics_out @@ fun () ->
    let graph = Models.of_name network in
    let tgt = Tvm.Target.of_name target in
    let spec =
      Tvm_spec.Job_spec.make ~op:Tvm_spec.Job_spec.Compile ~workload:network
        ~target ~trials ~validate ~jobs ()
    in
    let t0 = Unix.gettimeofday () in
    let result, exec =
      try Tvm.Compiler.build_executor ~spec graph tgt
      with Tvm.Compiler.Validation_failed (name, errs) ->
        print_violations name errs;
        exit 1
    in
    Printf.printf "compiled %s for %s in %.1fs (%d tuning trials)\n\n" network
      (Tvm.Target.name tgt)
      (Unix.gettimeofday () -. t0)
      result.Tvm.Compiler.tuning_trials_run;
    List.iter
      (fun (k : Rt.kernel) ->
        Printf.printf "  %8.3f ms  %s\n" (1e3 *. k.Rt.k_time_s) k.Rt.k_name)
      (Rt.kernels result.Tvm.Compiler.module_);
    Printf.printf "\nestimated end-to-end latency: %.3f ms\n"
      (1e3 *. Tvm_runtime.Graph_executor.estimated_time_s exec);
    let mem = Tvm_runtime.Graph_executor.memory_stats exec in
    Printf.printf "activation memory: %.2f MB (pooled) vs %.2f MB (naive)\n"
      (float_of_int mem.Tvm_runtime.Graph_executor.pooled_bytes /. 1e6)
      (float_of_int mem.Tvm_runtime.Graph_executor.naive_bytes /. 1e6)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a network end to end")
    Term.(
      const run $ network $ target $ trials $ validate_arg $ jobs_arg
      $ trace_out_arg $ metrics_out_arg $ journal_out_arg)

(* ---- tune ---- *)

let tune_cmd =
  let workload =
    Arg.(value & pos 0 string "C7" & info [] ~docv:"WORKLOAD" ~doc:"Table-2 workload (C1..C12, D1..D9)")
  in
  let trials = Arg.(value & opt int 200 & info [ "trials" ] ~doc:"Measurement budget") in
  let method_ =
    Arg.(value & opt string "ml" & info [ "method" ] ~doc:"ml | random | genetic")
  in
  let fault_rate =
    Arg.(
      value & opt float 0.
      & info [ "fault-rate" ]
          ~doc:
            "Inject transient measurement faults (timeouts, crashes, corrupted \
             runs) at this per-attempt rate, 0 = off")
  in
  let max_retries =
    Arg.(
      value
      & opt int Tvm_rpc.Retry_policy.default.Tvm_rpc.Retry_policy.max_retries
      & info [ "max-retries" ] ~doc:"Extra measurement attempts after a transient fault")
  in
  let timeout_ms =
    Arg.(
      value
      & opt float (1e3 *. Tvm_rpc.Retry_policy.default.Tvm_rpc.Retry_policy.timeout_s)
      & info [ "timeout-ms" ] ~doc:"Per-job measurement budget on the simulated clock")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Tuning seed (fixed seed = fixed log at any -j)")
  in
  let devices =
    Arg.(
      value & opt int 1
      & info [ "devices" ]
          ~doc:
            "Simulated replicas of the target board in the measurement \
             pool. Up to 8 it never changes outcomes, like -j (fault draws \
             are keyed by job, not device), only the simulated makespan; \
             more devices widen the measurement batch, which changes the \
             search.")
  in
  let straggler =
    Arg.(
      value
      & opt (some int) None
      & info [ "straggler" ]
          ~doc:
            "Make device N a straggler: 12x slower than its peers (on a \
             $(b,--fleet) roster it is forced to the target kind, so it \
             runs the target's jobs). Results do not change, only the \
             simulated makespan; use with --journal-out and `tvmc report` \
             to see the outlier detection single it out.")
  in
  let tune_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "tune-log" ]
          ~doc:
            "Write the full trial history as JSON lines (one record per \
             measurement; byte-identical for a fixed seed at any -j)")
  in
  let fleet =
    Arg.(
      value & opt int 0
      & info [ "fleet" ]
          ~doc:
            "Measure on a roster of N simulated heterogeneous devices \
             (mixed gpu/cpu kinds, jobs pinned to the target's kind) \
             instead of $(b,--devices) replicas of the target (0 = \
             replicas); idle devices of the target's kind pull jobs from \
             one queue per batch. Results are placement-invariant: the \
             log is byte-identical across -j and $(b,--straggler).")
  in
  let run workload trials method_name fault_rate max_retries timeout_ms seed
      jobs devices fleet_n straggler tune_log validate
      trace_out metrics_out journal_out =
    with_obs ~journal_out ~trace_out ~metrics_out @@ fun () ->
    let spec =
      Tvm_spec.Job_spec.make ~op:Tvm_spec.Job_spec.Tune ~workload ~trials
        ~method_name ~seed ~jobs ~devices ~validate ~fault_rate ?straggler
        ~max_retries ~timeout_s:(timeout_ms /. 1e3) ~fleet:fleet_n ()
    in
    let w = Workloads.find workload in
    let out = Tvm_experiments.Fig_e2e.conv_tensor w in
    let tpl = Tvm_autotune.Templates.gpu_flat ~name:("tvmc_" ^ workload) out in
    let par = Tvm_par.Pool.create ~domains:jobs () in
    let method_ = Tvm_autotune.Tuner.method_of_name method_name in
    (* Widen the measurement batch to keep the pool's devices busy (a
       no-op for up to 8 devices at the default batch of 16). *)
    let kind = Tvm.Target.(device_kind (of_name spec.target)) in
    let pool = Pool.of_spec ~kind spec in
    let spec =
      { spec with
        Tvm_spec.Job_spec.batch = Pool.suggested_batch pool ~kind ~base:spec.batch }
    in
    let kind_pred _ = true in
    let measure = Pool.measure_fn pool ~kind_pred in
    let measure_batch = Pool.batch_measure_fn ~par pool ~kind_pred in
    Printf.printf
      "tuning %s (%s) on %d devices, %d trials, batch %d, space %d, -j \
       %d...\n\
       %!"
      (Workloads.to_string w) method_name (Pool.stats pool).Pool.fs_devices
      trials spec.Tvm_spec.Job_spec.batch
      (Tvm_autotune.Cfg_space.size tpl.Tvm_autotune.Tuner.tpl_space)
      jobs;
    let db = Tvm_autotune.Tuner.Db.create () in
    let res =
      Tvm_autotune.Tuner.tune ~spec ~db ~measure_batch ~method_ ~measure
        ~n_trials:trials tpl
    in
    (match tune_log with
    | Some path ->
        write_tune_log path res.Tvm_autotune.Tuner.history;
        Printf.eprintf "[obs] tuning log written to %s (%d trials)\n%!" path
          (List.length res.Tvm_autotune.Tuner.history)
    | None -> ());
    Printf.printf "best: %.3f ms with %s\n"
      (1e3 *. res.Tvm_autotune.Tuner.best_time)
      (Tvm_autotune.Cfg_space.to_string res.Tvm_autotune.Tuner.best_config);
    Printf.printf "trial outcomes: %s\n"
      (String.concat ", "
         (List.map
            (fun (s, n) -> Printf.sprintf "%s=%d" s n)
            (Tvm_autotune.Tuner.Db.status_counts db)));
    let st = Pool.stats pool in
    Printf.printf
      "pool: %d jobs, %d attempts, %d retries; makespan %.2f s\n"
      st.Pool.fs_jobs st.Pool.fs_attempts st.Pool.fs_retries
      (Pool.makespan pool);
    if validate then begin
      let stmt =
        tpl.Tvm_autotune.Tuner.tpl_instantiate res.Tvm_autotune.Tuner.best_config
      in
      let vs = Tvm_tir.Validate.check stmt in
      match Tvm_tir.Validate.errors vs with
      | [] ->
          Printf.printf "validation: ok (%d warnings)\n"
            (List.length (Tvm_tir.Validate.warnings vs))
      | errs ->
          print_violations ("tvmc_" ^ workload) errs;
          exit 1
    end
  in
  Cmd.v (Cmd.info "tune" ~doc:"Tune a single operator workload")
    Term.(
      const run $ workload $ trials $ method_ $ fault_rate $ max_retries
      $ timeout_ms $ seed $ jobs_arg $ devices $ fleet $ straggler $ tune_log
      $ validate_arg $ trace_out_arg $ metrics_out_arg $ journal_out_arg)

(* ---- profile ---- *)

let profile_cmd =
  let network =
    Arg.(value & pos 0 string "resnet18" & info [] ~docv:"NETWORK" ~doc:"Network to profile")
  in
  let target =
    Arg.(value & opt string "cuda" & info [ "target" ] ~doc:"cuda | arm | mali | llvm")
  in
  let trials =
    Arg.(value & opt int 16 & info [ "trials" ] ~doc:"Tuning trials per kernel (0 = default schedules)")
  in
  let profile_out =
    Arg.(value & opt (some string) None & info [ "profile-out" ] ~doc:"Write the per-kernel profile as JSON")
  in
  let run network target trials profile_out trace_out metrics_out =
    with_obs ~trace_out ~metrics_out @@ fun () ->
    let graph = Models.of_name network in
    let tgt = Tvm.Target.of_name target in
    let spec =
      Tvm_spec.Job_spec.make ~op:Tvm_spec.Job_spec.Profile ~workload:network
        ~target ~trials ()
    in
    let t0 = Unix.gettimeofday () in
    let _result, exec = Tvm.Compiler.build_executor ~spec graph tgt in
    Printf.printf "compiled %s for %s in %.1fs\n" network (Tvm.Target.name tgt)
      (Unix.gettimeofday () -. t0);
    let report = Tvm_runtime.Graph_executor.profile exec in
    Printf.printf "\n%s" (Obs.Profile.to_table report);
    (match profile_out with
    | Some path ->
        Obs.Profile.write_json path report;
        Printf.eprintf "[obs] profile written to %s\n%!" path
    | None -> ());
    if trace_out <> None then
      Printf.printf "\nspan tree:\n%s" (Obs.Trace.to_tree_string ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Compile a network and price one inference per kernel (runs nothing)")
    Term.(
      const run $ network $ target $ trials $ profile_out $ trace_out_arg
      $ metrics_out_arg)

(* ---- report ---- *)

let report_cmd =
  let journal =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL"
          ~doc:
            "Flight-recorder journal (JSON lines) written by --journal-out — \
             a tuning journal or a serving journal from `serve-rt`")
  in
  let top =
    Arg.(value & opt int 5 & info [ "top" ] ~doc:"Slowest measured trials to list")
  in
  let run journal top =
    let lines =
      In_channel.with_open_text journal In_channel.input_lines
      |> List.filter (fun l -> String.trim l <> "")
    in
    if lines = [] then begin
      Printf.eprintf "no journal records in %s\n" journal;
      exit 1
    end;
    if Obs.Report.Serving.is_serving_line (List.hd lines) then
      print_string
        (Obs.Report.Serving.render
           (Obs.Report.Serving.analyze (List.map Obs.Json.parse lines)))
    else begin
      let entries = Obs.Journal.load_jsonl journal in
      if entries = [] then begin
        Printf.eprintf "no journal records in %s\n" journal;
        exit 1
      end;
      print_string (Obs.Report.render (Obs.Report.analyze ~top entries))
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Analyze a flight-recorder journal. Tuning journals get per-device \
          utilization and straggler detection, fault/retry attribution, \
          per-status, per-origin and per-SA-chain breakdowns, slowest trials. \
          Serving journals (from `serve-rt --journal-out`) get the \
          request-latency digest: per-model p50/p90/p99, the batch-size \
          histogram, per-device placement tallies.")
    Term.(const run $ journal $ top)

(* ---- devices ---- *)

let devices_cmd =
  let run () =
    Printf.printf "%-16s%16s%14s\n" "machine" "peak GFLOPS" "bandwidth";
    List.iter
      (fun (c : Machine.cpu) ->
        Printf.printf "%-16s%16.1f%11.1fGB/s\n" c.Machine.cpu_name
          (Machine.cpu_peak_gflops c) c.Machine.dram_gbps)
      [ Machine.arm_a53; Machine.arm_a9; Machine.xeon_host ];
    List.iter
      (fun (g : Machine.gpu) ->
        Printf.printf "%-16s%16.1f%11.1fGB/s\n" g.Machine.gpu_name
          (Machine.gpu_peak_gflops g) g.Machine.global_gbps)
      [ Machine.titan_x; Machine.mali_t860 ];
    Printf.printf "%-16s%15.1fG ops/s (int8)\n" Machine.vdla.Machine.accel_name
      (Machine.accel_peak_gops Machine.vdla)
  in
  Cmd.v (Cmd.info "devices" ~doc:"List simulated machines") Term.(const run $ const ())

(* ---- submit ---- *)

let submit_cmd =
  let op =
    Arg.(
      value & pos 0 string "tune"
      & info [] ~docv:"OP" ~doc:"compile | tune | profile")
  in
  let workload =
    Arg.(
      value & pos 1 string "C7"
      & info [] ~docv:"WORKLOAD"
          ~doc:"Table-2 workload for tune, network name for compile/profile")
  in
  let target =
    Arg.(value & opt string "cuda" & info [ "target" ] ~doc:"cuda | arm | mali | llvm")
  in
  let trials = Arg.(value & opt int 64 & info [ "trials" ] ~doc:"Measurement budget") in
  let method_ =
    Arg.(value & opt string "ml" & info [ "method" ] ~doc:"ml | random | genetic")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Tuning seed") in
  let tenant =
    Arg.(value & opt string "default" & info [ "tenant" ] ~doc:"Tenant name")
  in
  let weight =
    Arg.(
      value & opt float 1.
      & info [ "weight" ]
          ~doc:"Fair-share weight (first submission per tenant wins)")
  in
  let quota =
    Arg.(
      value
      & opt (some int) None
      & info [ "quota" ] ~doc:"Max in-flight jobs for this tenant")
  in
  let priority =
    Arg.(value & opt int 0 & info [ "priority" ] ~doc:"Higher runs first within the tenant")
  in
  let submit_s =
    Arg.(
      value & opt float 0.
      & info [ "at" ] ~doc:"Arrival time on the virtual clock (seconds)")
  in
  let share =
    Arg.(
      value & flag
      & info [ "share" ]
          ~doc:
            "Opt into the shared cross-tenant cache scope instead of the \
             tenant's private one")
  in
  let run op workload target trials method_name seed jobs tenant weight quota
      priority submit_s share =
    let op =
      try Tvm_spec.Job_spec.op_of_name op
      with Invalid_argument m ->
        prerr_endline m;
        exit 2
    in
    let spec =
      Tvm_spec.Job_spec.make ~op ~workload ~target ~trials ~method_name ~seed
        ~jobs ()
    in
    match
      Tvm_serve.Tvmd.request ~tenant ~weight ?quota ~priority ~submit_s ~share spec
    with
    | r -> print_endline (Tvm_serve.Tvmd.to_string r)
    | exception Invalid_argument m ->
        prerr_endline ("tvmc submit: " ^ m);
        exit 2
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Print a tvmd request envelope (single-line JSON) for OP on \
          WORKLOAD. Collect envelopes into a jobs file and feed it to `tvmc \
          serve`, or drop it into a spool directory watched by `tvmc serve \
          --spool`.")
    Term.(
      const run $ op $ workload $ target $ trials $ method_ $ seed $ jobs_arg
      $ tenant $ weight $ quota $ priority $ submit_s $ share)

(* ---- serve ---- *)

let serve_cmd =
  let jobs_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "jobs-file" ] ~docv:"FILE"
          ~doc:"Request envelopes, one JSON line per job (see `tvmc submit`)")
  in
  let spool =
    Arg.(
      value
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "Streaming mode: watch DIR for envelope files, serve each batch \
             as it arrives and archive consumed files to DIR/archive. Drain \
             and exit when a file named `stop` appears (or on SIGINT / \
             SIGTERM after the current batch). Exactly one of $(b,--jobs-file) \
             and $(b,--spool) is required.")
  in
  let poll_s =
    Arg.(
      value & opt float 0.05
      & info [ "poll-s" ] ~docv:"SECONDS"
          ~doc:"Spool scan interval between empty scans (wall clock)")
  in
  let compact_above =
    Arg.(
      value
      & opt (some int) None
      & info [ "compact-above" ] ~docv:"BYTES"
          ~doc:
            "Compact the store on startup when it exceeds BYTES (drops \
             superseded done/tuned/cache records; see `tvmc store compact`)")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Durable state: trial logs, tuned configurations, compile-cache \
             features and done jobs. Loaded on startup, flushed after every \
             job — restarting on the same store resumes where the last run \
             stopped and reproduces its results byte for byte.")
  in
  let slots =
    Arg.(value & opt int 2 & info [ "slots" ] ~doc:"Executor lanes (concurrent jobs)")
  in
  let max_jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-jobs" ]
          ~doc:
            "Stop after this many live (not store-restored) jobs — a \
             deterministic stand-in for killing the daemon mid-trace.")
  in
  let results =
    Arg.(
      value
      & opt (some string) None
      & info [ "results" ] ~docv:"FILE"
          ~doc:"Write per-job result lines here instead of stdout")
  in
  let run jobs_file spool poll_s compact_above store slots max_jobs results
      trace_out metrics_out =
    with_obs ~trace_out ~metrics_out @@ fun () ->
    let report outcome =
      Printf.eprintf
        "[tvmd] %d jobs: %d executed, %d restored from store, %d failed\n%!"
        (List.length outcome.Tvm_serve.Tvmd.oc_lines)
        outcome.Tvm_serve.Tvmd.oc_executed outcome.Tvm_serve.Tvmd.oc_restored
        outcome.Tvm_serve.Tvmd.oc_failed
    in
    match (jobs_file, spool) with
    | None, None | Some _, Some _ ->
        prerr_endline "tvmc serve: exactly one of --jobs-file and --spool is required";
        exit 2
    | Some jobs_file, None ->
        let requests =
          In_channel.with_open_text jobs_file In_channel.input_lines
          |> List.mapi (fun i l -> (i + 1, l))
          |> List.filter_map (fun (n, l) ->
                 if String.trim l = "" then None
                 else
                   match Tvm_serve.Tvmd.of_string l with
                   | r -> Some r
                   | exception e ->
                       Printf.eprintf "tvmc serve: %s:%d: bad envelope: %s\n%!"
                         jobs_file n (Printexc.to_string e);
                       exit 2)
        in
        let outcome =
          Tvm_serve.Tvmd.serve ~slots ?store ?max_jobs ?compact_above requests
        in
        (match results with
        | Some path ->
            Out_channel.with_open_text path (fun oc ->
                List.iter
                  (fun l -> Out_channel.output_string oc (l ^ "\n"))
                  outcome.Tvm_serve.Tvmd.oc_lines)
        | None -> List.iter print_endline outcome.Tvm_serve.Tvmd.oc_lines);
        report outcome;
        if outcome.Tvm_serve.Tvmd.oc_failed > 0 then exit 1
    | None, Some dir ->
        let interrupted = ref false in
        let handler = Sys.Signal_handle (fun _ -> interrupted := true) in
        (try
           Sys.set_signal Sys.sigint handler;
           Sys.set_signal Sys.sigterm handler
         with Invalid_argument _ | Sys_error _ -> ());
        let failed = ref 0 in
        let emit lines =
          match results with
          | Some path ->
              let oc =
                open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
              in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () ->
                  List.iter (fun l -> output_string oc (l ^ "\n")) lines)
          | None -> List.iter print_endline lines
        in
        let on_batch i outcome =
          Printf.eprintf "[tvmd] batch %d\n%!" i;
          emit outcome.Tvm_serve.Tvmd.oc_lines;
          report outcome;
          failed := !failed + outcome.Tvm_serve.Tvmd.oc_failed
        in
        let batches =
          Tvm_serve.Tvmd.serve_spool ~slots ?store ?compact_above ~poll_s
            ~stopped:(fun () -> !interrupted)
            ~dir ~on_batch ()
        in
        Printf.eprintf "[tvmd] spool drained: %d batches\n%!" batches;
        if !failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the tvmd multi-tenant service over a jobs file (one-shot) or a \
          spool directory (streaming): weighted fair-share scheduling across \
          tenants up to --slots concurrent lanes, per-tenant cache isolation, \
          job-level retries, durable warm-restartable state. Deterministic: a \
          fixed jobs file gives a byte-identical results file at any -j and \
          any --slots, cold or warm.")
    Term.(
      const run $ jobs_file $ spool $ poll_s $ compact_above $ store $ slots
      $ max_jobs $ results $ trace_out_arg $ metrics_out_arg)

(* ---- store ---- *)

let store_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"The store file to compact")
  in
  let threshold =
    Arg.(
      value & opt int 0
      & info [ "threshold" ] ~docv:"BYTES"
          ~doc:"Only compact when the store exceeds BYTES")
  in
  let compact_cmd =
    let run file threshold =
      match
        Tvm_autotune.Store.compact ~rules:Tvm_serve.Tvmd.store_rules
          ~threshold_bytes:threshold file
      with
      | None ->
          Printf.printf "%s: below threshold or missing, not compacted\n" file
      | Some (before, after) ->
          Printf.printf "%s: %d -> %d bytes (%.0f%% smaller)\n" file before
            after
            (100. *. (1. -. (float_of_int after /. float_of_int (max 1 before))))
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Rewrite a tvmd store dropping superseded records: done records \
            keep the freshest copy per job fingerprint, tuned configurations \
            and compile-cache features keep the first copy per key, trial \
            logs are kept in full. Atomic: writes a temp file then renames \
            over the original.")
      Term.(const run $ file $ threshold)
  in
  Cmd.group
    (Cmd.info "store" ~doc:"Durable-store maintenance")
    [ compact_cmd ]

(* ---- serving: traffic + serve-rt ---- *)

module Traffic = Tvm_serve.Traffic
module Srv = Tvm_serve.Model_server

let split_csv s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let serving_models_arg =
  Arg.(
    value
    & opt string "resnet18,mobilenet,lstm,dqn,dcgan"
    & info [ "models" ] ~docv:"CSV"
        ~doc:"Serving models (subset of resnet18,mobilenet,lstm,dqn,dcgan)")

let tenants_arg =
  Arg.(
    value & opt int 4
    & info [ "tenants" ] ~doc:"Tenant count, round-robined over --models")

let rate_arg =
  Arg.(
    value & opt float 50.
    & info [ "rate" ] ~doc:"Per-tenant mean arrival rate (requests / virtual s)")

let slo_ms_arg =
  Arg.(
    value & opt float 250.
    & info [ "slo-ms" ] ~doc:"Per-request latency SLO (virtual ms)")

let horizon_arg =
  Arg.(
    value & opt float 1.0
    & info [ "horizon" ] ~doc:"Arrival horizon (virtual seconds)")

let traffic_seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Traffic seed")

(** [--tenants N] round-robined over the model list, all with the same
    rate and SLO — enough to exercise multi-model contention without a
    tenant-spec file format. *)
let make_tenants ~models ~tenants ~rate ~slo_ms =
  if models = [] then invalid_arg "empty --models";
  List.init (max 1 tenants) (fun i ->
      Traffic.tenant
        ~rate_hz:rate ~slo_s:(slo_ms /. 1e3)
        ~model:(List.nth models (i mod List.length models))
        (Printf.sprintf "tenant%d" i))

let traffic_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the trace here instead of stdout")
  in
  let run models_csv tenants rate slo_ms horizon seed out =
    let models = split_csv models_csv in
    let reqs =
      Traffic.generate ~seed ~horizon_s:horizon
        (make_tenants ~models ~tenants ~rate ~slo_ms)
    in
    let lines = Traffic.to_lines reqs in
    match out with
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
        Printf.eprintf "[traffic] %d requests written to %s\n%!"
          (List.length reqs) path
    | None -> List.iter print_endline lines
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Generate an open-loop serving trace: per-tenant exponential \
          arrivals on the virtual clock, deterministic in (--seed, \
          --tenants, --rate, --horizon). Feed to `serve-rt --trace`.")
    Term.(
      const run $ serving_models_arg $ tenants_arg $ rate_arg $ slo_ms_arg
      $ horizon_arg $ traffic_seed_arg $ out)

let serve_rt_cmd =
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Paper-scale model shapes (slower compiles)")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Request trace from `tvmc traffic` (default: generate one from \
             --seed/--tenants/--rate/--horizon)")
  in
  let max_batch =
    Arg.(
      value & opt int 8
      & info [ "max-batch" ] ~doc:"Dynamic-batching cap (1 disables batching)")
  in
  let max_delay_ms =
    Arg.(
      value & opt float 2.
      & info [ "max-delay-ms" ]
          ~doc:"Longest a request waits for batch-mates before launching")
  in
  let inflight =
    Arg.(
      value & opt int 8 & info [ "inflight" ] ~doc:"Concurrent batches admitted")
  in
  let no_hetero =
    Arg.(
      value & flag
      & info [ "no-hetero" ]
          ~doc:"Disable heterogeneous dispatch: every group runs on the gpu")
  in
  let lanes =
    Arg.(
      value & opt int 1
      & info [ "j"; "lanes" ]
          ~doc:
            "Domains for parallel model loading. Never changes the schedule: \
             results are byte-identical at any -j.")
  in
  let target =
    Arg.(value & opt string "cuda" & info [ "target" ] ~doc:"cuda | arm | mali | llvm")
  in
  let results =
    Arg.(
      value
      & opt (some string) None
      & info [ "results" ] ~docv:"FILE"
          ~doc:"Write per-request completion lines (byte-comparable across -j)")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-out" ] ~docv:"FILE"
          ~doc:
            "Write the serving journal (JSON lines): run header, per-model \
             placements, per-batch and per-request records. Analyze with \
             `tvmc report`.")
  in
  let require_slo =
    Arg.(
      value & flag
      & info [ "require-slo" ] ~doc:"Exit 1 if any request misses its SLO")
  in
  let run models_csv full trace_file tenants rate slo_ms horizon seed max_batch
      max_delay_ms inflight no_hetero lanes target results journal require_slo
      trace_out metrics_out =
    with_obs ~trace_out ~metrics_out @@ fun () ->
    let model_names = split_csv models_csv in
    let suite = Models.serving_suite ~full () in
    let graphs =
      List.map
        (fun n ->
          match List.assoc_opt n suite with
          | Some g -> (n, g)
          | None ->
              invalid_arg
                ("unknown serving model " ^ n
               ^ " (resnet18|mobilenet|lstm|dqn|dcgan)"))
        model_names
    in
    let cfg =
      Srv.config ~max_batch
        ~max_delay_s:(max_delay_ms /. 1e3)
        ~max_inflight:inflight ~hetero:(not no_hetero) ()
    in
    let t0 = Unix.gettimeofday () in
    let server = Srv.load ~lanes ~target:(Tvm.Target.of_name target) cfg graphs in
    Printf.eprintf "[serve-rt] %d models loaded in %.1fs (%d lanes)\n%!"
      (List.length graphs)
      (Unix.gettimeofday () -. t0)
      lanes;
    let reqs =
      match trace_file with
      | Some path ->
          In_channel.with_open_text path In_channel.input_lines
          |> List.filter (fun l -> String.trim l <> "")
          |> Traffic.of_lines
      | None ->
          Traffic.generate ~seed ~horizon_s:horizon
            (make_tenants ~models:model_names ~tenants ~rate ~slo_ms)
    in
    let o = Srv.run server reqs in
    List.iter
      (fun (m : Srv.model) ->
        Printf.printf "placement %-12s %s   est %.3f ms/batch1\n" m.Srv.mv_name
          (String.concat "  "
             (List.map
                (fun (d, n) -> Printf.sprintf "%s=%d" d n)
                m.Srv.mv_placement))
          (1e3 *. m.Srv.mv_time1_s))
      (Srv.models server);
    Printf.printf "requests %d  throughput %.1f req/s  makespan %.4f s\n"
      (List.length o.Srv.oc_completions)
      o.Srv.oc_throughput_rps o.Srv.oc_makespan_s;
    Printf.printf "latency ms p50/p90/p99: %.3f / %.3f / %.3f   slo misses: %d\n"
      (1e3 *. o.Srv.oc_p50_s) (1e3 *. o.Srv.oc_p90_s) (1e3 *. o.Srv.oc_p99_s)
      o.Srv.oc_slo_misses;
    Printf.printf
      "mean batch %.2f  slab %.2f MB vs %.2f MB naive (%.0f%% saved, %d reuses)\n"
      o.Srv.oc_mean_batch
      (o.Srv.oc_slab_bytes /. 1e6)
      (o.Srv.oc_naive_bytes /. 1e6)
      (100. *. o.Srv.oc_slab_saving)
      o.Srv.oc_slab_reuses;
    (match results with
    | Some path ->
        Srv.write_results o path;
        Printf.eprintf "[serve-rt] results written to %s\n%!" path
    | None -> ());
    (match journal with
    | Some path ->
        Srv.write_journal server o path;
        Printf.eprintf "[serve-rt] journal written to %s\n%!" path
    | None -> ());
    if require_slo && o.Srv.oc_slo_misses > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve-rt"
       ~doc:
         "Serve inference traffic across several compiled models on the \
          simulated devices: dynamic batching under a max-batch/max-delay \
          policy, cross-request activation slabs from a shared arena, and \
          heterogeneous dispatch of fused groups across cpu+gpu+vdla. \
          Deterministic: a fixed trace gives byte-identical --results at any \
          -j.")
    Term.(
      const run $ serving_models_arg $ full $ trace_file $ tenants_arg
      $ rate_arg $ slo_ms_arg $ horizon_arg $ traffic_seed_arg $ max_batch
      $ max_delay_ms $ inflight $ no_hetero $ lanes $ target $ results
      $ journal $ require_slo $ trace_out_arg $ metrics_out_arg)

let main =
  Cmd.group
    (Cmd.info "tvmc" ~version:"1.0" ~doc:"OCaml TVM reproduction driver")
    [
      compile_cmd; tune_cmd; profile_cmd; report_cmd; devices_cmd; submit_cmd;
      serve_cmd; store_cmd; traffic_cmd; serve_rt_cmd;
    ]

let () =
  Tvm_graph.Std_ops.register_all ();
  exit (Cmd.eval main)
