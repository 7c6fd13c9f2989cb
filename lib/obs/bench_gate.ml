(** Benchmark regression gate: compare a current metrics dump against a
    committed baseline ([BENCH_obs.json]) under per-metric tolerance
    rules, so the repo's perf trajectory gates PRs instead of merely
    being recorded.

    Rules address a value inside the {!Metrics.to_json} layout —
    [{counters, gauges, histograms:{name:{count,...,p50,p90,p99}}}] —
    by section, metric name and (for histograms) sub-field. Directions:

    - [Higher_better] passes when [cur >= base - tol * |base|];
    - [Lower_better] passes when [cur <= base + tol * |base|];
    - [Exact] passes when the values agree to float round-off — for
      determinism flags like [bench.partune.identical_best], where any
      drift is a real regression, never noise.

    Tolerances for wall-clock-derived metrics (speedups) are generous:
    the gate exists to catch collapses (a speedup of 4 dropping to 1),
    not scheduler jitter. A metric present in the baseline but missing
    from the current dump fails (the benchmark lost coverage); a metric
    missing from the baseline is skipped (the baseline predates it —
    regenerate with [make bench-baseline]). *)

type direction = Higher_better | Lower_better | Exact

type rule = {
  ru_section : string;  (** ["gauges"], ["counters"] or ["histograms"] *)
  ru_name : string;  (** metric name *)
  ru_field : string option;  (** histogram sub-field, e.g. [Some "p90"] *)
  ru_dir : direction;
  ru_tol : float;  (** relative tolerance *)
}

let rule ?field ~dir ~tol section name =
  { ru_section = section; ru_name = name; ru_field = field; ru_dir = dir;
    ru_tol = tol }

type verdict = Pass | Fail of string | Skip of string

type check = {
  ck_rule : rule;
  ck_base : float option;
  ck_cur : float option;
  ck_verdict : verdict;
}

let rule_id r =
  Printf.sprintf "%s.%s%s" r.ru_section r.ru_name
    (match r.ru_field with Some f -> "." ^ f | None -> "")

let lookup (metrics : Json.t) (r : rule) : float option =
  let open Json in
  let v = Option.bind (member r.ru_section metrics) (member r.ru_name) in
  match r.ru_field with
  | None -> Option.bind v to_num_opt
  | Some f -> Option.bind (Option.bind v (member f)) to_num_opt

let judge (r : rule) ~base ~cur : verdict =
  match (base, cur) with
  | None, _ -> Skip "not in baseline (regenerate with `make bench-baseline`)"
  | Some _, None -> Fail "metric missing from current run"
  | Some b, Some c -> (
      let slack = r.ru_tol *. Float.abs b in
      match r.ru_dir with
      | Higher_better ->
          if c >= b -. slack then Pass
          else
            Fail
              (Printf.sprintf "%.6g < %.6g - %.0f%% tolerance" c b
                 (100. *. r.ru_tol))
      | Lower_better ->
          if c <= b +. slack then Pass
          else
            Fail
              (Printf.sprintf "%.6g > %.6g + %.0f%% tolerance" c b
                 (100. *. r.ru_tol))
      | Exact ->
          if Float.abs (c -. b) <= 1e-9 *. Float.max 1. (Float.abs b) then Pass
          else Fail (Printf.sprintf "%.17g <> %.17g (exact)" c b))

let compare_metrics ~(rules : rule list) ~(baseline : Json.t)
    ~(current : Json.t) : check list =
  List.map
    (fun r ->
      let base = lookup baseline r and cur = lookup current r in
      { ck_rule = r; ck_base = base; ck_cur = cur;
        ck_verdict = judge r ~base ~cur })
    rules

let failed checks =
  List.filter (fun c -> match c.ck_verdict with Fail _ -> true | _ -> false) checks

let render checks =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let fnum = function Some v -> Printf.sprintf "%.6g" v | None -> "-" in
  p "%-44s %12s %12s  %s\n" "metric" "baseline" "current" "verdict";
  List.iter
    (fun c ->
      let verdict =
        match c.ck_verdict with
        | Pass -> "PASS"
        | Fail msg -> "FAIL: " ^ msg
        | Skip msg -> "skip: " ^ msg
      in
      p "%-44s %12s %12s  %s\n" (rule_id c.ck_rule) (fnum c.ck_base)
        (fnum c.ck_cur) verdict)
    checks;
  let n_fail = List.length (failed checks) in
  p "bench gate: %d checks, %d failed\n" (List.length checks) n_fail;
  Buffer.contents buf

(** The committed gate for `make check-bench` (partune + lower + cache
    scope). Speedups are wall-clock-derived, so their tolerances only
    catch collapses; the determinism flags are exact; the simulated
    pool percentiles are tight because the simulation is seeded. *)
let default_rules =
  [
    rule "gauges" "bench.partune.speedup" ~dir:Higher_better ~tol:0.5;
    rule "gauges" "bench.partune.identical_best" ~dir:Exact ~tol:0.;
    rule "gauges" "bench.lower.warm_speedup" ~dir:Higher_better ~tol:0.8;
    (* Hit rate counts each logical query once: an SA query makes one
       recording [Compile_cache.find] on the shared memo. When only
       cold misses were counted the gauge collapsed to ~0.01 as the
       memo warmed up; the baseline (~0.05 quick) sits 4x above that
       floor, and the tight tolerance keeps any return of the
       accounting bug an immediate failure. *)
    rule "gauges" "bench.cache.hit_rate" ~dir:Higher_better ~tol:0.15;
    rule "gauges" "tuner.best_time_s" ~dir:Lower_better ~tol:0.25;
    rule "histograms" "pool.job_cost_s" ~field:"p90" ~dir:Lower_better ~tol:0.5;
    rule "histograms" "pool.queue_wait_s" ~field:"p90" ~dir:Lower_better
      ~tol:0.75;
    (* tvmd service SLOs: latencies are virtual-time (deterministic),
       so the tolerances only absorb histogram bucket granularity. *)
    rule "gauges" "bench.serve.warm_speedup" ~dir:Higher_better ~tol:0.5;
    rule "gauges" "bench.serve.identical_schedule" ~dir:Exact ~tol:0.;
    (* Concurrent-lane virtual-makespan speedup (slots 1 vs 4) and the
       fraction of a restart-churned store that compaction reclaims —
       both virtual/deterministic, tolerances absorb trace tweaks. *)
    rule "gauges" "tvmd.concurrent_speedup" ~dir:Higher_better ~tol:0.5;
    rule "gauges" "store.compact_ratio" ~dir:Higher_better ~tol:0.15;
    rule "histograms" "tvmd.queue_wait_s" ~field:"p90" ~dir:Lower_better
      ~tol:0.5;
    rule "histograms" "tvmd.completion_s" ~field:"p50" ~dir:Lower_better
      ~tol:0.5;
    rule "histograms" "tvmd.completion_s" ~field:"p99" ~dir:Lower_better
      ~tol:0.5;
    (* Measurement fleet: virtual-clock and deterministic, so the
       tolerance only absorbs deliberate workload tweaks. The
       efficiency floor is 0.7; the baseline sits comfortably above
       it. *)
    rule "gauges" "bench.fleet.scaling_efficiency" ~dir:Higher_better
      ~tol:0.1;
    (* SA propose hot path (satellite of the fleet PR): host wall-clock,
       so the tolerance is generous — the gate catches the memo being
       lost (a ~5x collapse), not scheduler jitter. *)
    rule "gauges" "bench.partune.propose_s" ~dir:Lower_better ~tol:1.5;
    (* Serving executor (ISSUE 10): all virtual-clock, so deterministic.
       The baseline speedup/saving sit far above the ISSUE floors (2x
       batching, 30% slab saving), so the tolerances still keep the
       gated minimum above those floors; determinism is exact. *)
    rule "gauges" "serve_rt.batch_speedup" ~dir:Higher_better ~tol:0.25;
    rule "gauges" "serve_rt.slab_saving" ~dir:Higher_better ~tol:0.2;
    rule "gauges" "serve_rt.identical_results" ~dir:Exact ~tol:0.;
    rule "histograms" "serve_rt.latency_s" ~field:"p99" ~dir:Lower_better
      ~tol:0.5;
  ]
