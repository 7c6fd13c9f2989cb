(* Observability layer tests: span nesting and exception safety, the
   disabled-mode zero-allocation fast path, log-histogram percentiles
   (including within-bucket interpolation), metrics registry dumps,
   Chrome trace-event JSON well-formedness — lanes, metadata and flow
   events included — plus the tuning flight recorder: journal record
   round-trips, byte-identical journals at any -j and with the compile
   cache on or off under injected faults, straggler detection in the
   report analyzer, and the benchmark regression gate. *)

module Json = Tvm_obs.Json
module Trace = Tvm_obs.Trace
module Metrics = Tvm_obs.Metrics
module Profile = Tvm_obs.Profile
module Journal = Tvm_obs.Journal
module Report = Tvm_obs.Report
module Par = Tvm_par.Pool
module Tuner = Tvm_autotune.Tuner
module Templates = Tvm_autotune.Templates
module DPool = Tvm_rpc.Device_pool
module Fault = Tvm_rpc.Fault
module Machine = Tvm_sim.Machine
module Tensor = Tvm_te.Tensor
module Op = Tvm_te.Operators
open Test_helpers

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(** Offset of [needle] in [haystack]; raises [Not_found]. *)
let index_of haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then raise Not_found
    else if String.sub haystack i nn = needle then i
    else scan (i + 1)
  in
  scan 0

let with_fresh_trace f =
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) f

(* ---- json ---- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "quote\" back\\slash \n tab\t");
        ("n", Json.Num 3.25);
        ("i", Json.Num 42.);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.List [ Json.Num 1.; Json.Str "two"; Json.Obj [] ]);
      ]
  in
  let reparsed = Json.parse (Json.to_string v) in
  checkb "roundtrip equal" (reparsed = v);
  (* integral floats must print as JSON integers *)
  Alcotest.(check string) "int printing" "42" (Json.to_string (Json.Num 42.));
  (* non-finite degrades to null, keeping output valid JSON *)
  Alcotest.(check string) "nan -> null" "null" (Json.to_string (Json.Num Float.nan));
  (* unicode escapes decode *)
  (match Json.parse "\"a\\u0041b\"" with
  | Json.Str s -> Alcotest.(check string) "\\u decode" "aAb" s
  | _ -> Alcotest.fail "expected string");
  (* malformed input raises *)
  checkb "trailing garbage rejected"
    (match Json.parse "{} x" with
    | exception Json.Parse_error _ -> true
    | _ -> false)

let test_json_nonfinite () =
  (* the smart constructor collapses every non-finite to Null at build
     time, so values survive a write → parse round trip structurally *)
  checkb "num nan is Null" (Json.num Float.nan = Json.Null);
  checkb "num +inf is Null" (Json.num Float.infinity = Json.Null);
  checkb "num -inf is Null" (Json.num Float.neg_infinity = Json.Null);
  checkb "num finite is Num" (Json.num 2.5 = Json.Num 2.5);
  Alcotest.(check string) "num_string nan" "null" (Json.num_string Float.nan);
  Alcotest.(check string) "num_string inf" "null" (Json.num_string Float.infinity);
  (* %.17g prints enough digits to reparse bit-exactly *)
  List.iter
    (fun x ->
      match Json.parse (Json.num_string x) with
      | Json.Num y -> checkb (Printf.sprintf "%h reparses exactly" x) (x = y)
      | _ -> Alcotest.fail "expected number")
    [ 0.1; 1. /. 3.; 1.5e-4; 6.02214076e23; -0.0317 ];
  (* embedded in a document: parse sees null, not a JSON error *)
  let doc = Json.Obj [ ("t", Json.num Float.nan); ("u", Json.num 1.5) ] in
  let reparsed = Json.parse (Json.to_string doc) in
  checkb "nan field reparses as null" (Json.member "t" reparsed = Some Json.Null);
  checkb "finite field intact" (Json.member "u" reparsed = Some (Json.Num 1.5))

(* ---- trace ---- *)

let test_span_nesting () =
  with_fresh_trace @@ fun () ->
  let r =
    Trace.with_span "outer" ~attrs:[ ("k", "v") ] (fun () ->
        Trace.with_span "inner" (fun () ->
            Trace.instant "tick" ~attrs:[ ("i", "1") ];
            7))
  in
  Alcotest.(check int) "result passes through" 7 r;
  Alcotest.(check int) "two spans" 2 (Trace.span_count ());
  Alcotest.(check int) "one event" 1 (Trace.event_count ());
  let spans = Trace.spans () in
  let outer = List.find (fun s -> s.Trace.sp_name = "outer") spans in
  let inner = List.find (fun s -> s.Trace.sp_name = "inner") spans in
  Alcotest.(check int) "inner parented to outer" outer.Trace.sp_id inner.Trace.sp_parent;
  Alcotest.(check int) "outer is root" (-1) outer.Trace.sp_parent;
  Alcotest.(check int) "depths" 1 inner.Trace.sp_depth;
  (* temporal containment *)
  checkb "inner starts after outer" (inner.Trace.sp_start_ns >= outer.Trace.sp_start_ns);
  checkb "inner shorter" (inner.Trace.sp_dur_ns <= outer.Trace.sp_dur_ns);
  let tree = Trace.to_tree_string () in
  checkb "tree mentions both" (contains tree "outer" && contains tree "inner");
  (* child indented under parent *)
  checkb "inner after outer in tree" (index_of tree "outer" < index_of tree "inner")

let test_span_exception_safety () =
  with_fresh_trace @@ fun () ->
  (try
     Trace.with_span "boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  Alcotest.(check int) "span closed on exception" 1 (Trace.span_count ());
  match Trace.find_span "boom" with
  | Some s -> checkb "error attr recorded" (List.mem_assoc "error" s.Trace.sp_attrs)
  | None -> Alcotest.fail "span missing"

let test_disabled_zero_cost () =
  Trace.set_enabled false;
  Trace.reset ();
  let f () = () in
  (* warm up (first call may trigger lazy init) *)
  Trace.with_span "warm" f;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Trace.with_span "off" f
  done;
  let allocated = Gc.minor_words () -. before in
  (* zero-allocation fast path: budget is a handful of boxed floats for
     the Gc counters themselves, not 10k spans *)
  checkb (Printf.sprintf "disabled path allocates ~nothing (%.0f words)" allocated)
    (allocated < 256.);
  Alcotest.(check int) "no spans recorded" 0 (Trace.span_count ())

let trace_events () =
  let str = Json.to_string (Trace.to_chrome_json ()) in
  match Json.member "traceEvents" (Json.parse str) with
  | Some (Json.List l) -> l
  | _ -> Alcotest.fail "missing traceEvents"

let ph e = match Json.member "ph" e with Some (Json.Str s) -> s | _ -> "?"

let test_chrome_json_wellformed () =
  with_fresh_trace @@ fun () ->
  Trace.with_span "compile" ~attrs:[ ("target", "cuda \"quoted\"\n") ] (fun () ->
      Trace.with_span "phase.tuning" (fun () ->
          for i = 1 to 3 do
            Trace.instant "tuner.trial" ~attrs:[ ("trial", string_of_int i) ]
          done));
  let events = trace_events () in
  let meta, rest = List.partition (fun e -> ph e = "M") events in
  Alcotest.(check int) "2 spans + 3 instants" 5 (List.length rest);
  (* metadata names the host process and the main-thread lane *)
  checkb "host process named"
    (List.exists
       (fun e ->
         Json.member "name" e = Some (Json.Str "process_name")
         && Json.member "pid" e = Some (Json.Num 1.)
         && Option.bind (Json.member "args" e) (Json.member "name")
            = Some (Json.Str "tvm host"))
       meta);
  checkb "main thread named"
    (List.exists
       (fun e ->
         Json.member "name" e = Some (Json.Str "thread_name")
         && Option.bind (Json.member "args" e) (Json.member "name")
            = Some (Json.Str "main"))
       meta);
  List.iter
    (fun e ->
      checkb "has name" (Json.member "name" e <> None);
      checkb "has ts" (match Json.member "ts" e with Some (Json.Num _) -> true | _ -> false);
      checkb "has pid" (match Json.member "pid" e with Some (Json.Num _) -> true | _ -> false);
      checkb "has tid" (match Json.member "tid" e with Some (Json.Num _) -> true | _ -> false);
      match ph e with
      | "X" ->
          checkb "complete event has dur"
            (match Json.member "dur" e with Some (Json.Num d) -> d >= 0. | _ -> false)
      | "i" -> ()
      | _ -> Alcotest.fail "unexpected phase")
    rest;
  (* the tricky attribute survived escaping and reparsing *)
  let compile_ev =
    List.find (fun e -> Json.member "name" e = Some (Json.Str "compile")) rest
  in
  match Json.member "args" compile_ev with
  | Some args ->
      Alcotest.(check (option string)) "attr preserved" (Some "cuda \"quoted\"\n")
        (Option.bind (Json.member "target" args) Json.to_string_opt)
  | None -> Alcotest.fail "missing args"

let test_trace_lanes_and_flows () =
  with_fresh_trace @@ fun () ->
  Trace.name_thread ~lane:(Trace.device_lane 3) "dev 3 (test)";
  Trace.with_span "trial" (fun () ->
      Trace.flow ~id:42 Trace.Flow_start "trial";
      let start = Trace.now_ns () in
      Trace.flow ~lane:(Trace.device_lane 3) ~id:42 Trace.Flow_step "trial";
      Trace.slice
        ~lane:(Trace.device_lane 3)
        ~attrs:[ ("outcome", "ok") ]
        ~start_ns:start "job 42";
      Trace.flow ~id:42 Trace.Flow_end "trial");
  (* lane slices sit outside the span tree but are still counted *)
  Alcotest.(check int) "trial span + device slice" 2 (Trace.span_count ());
  let tree = Trace.to_tree_string () in
  checkb "slice kept out of the tree" (not (contains tree "job 42"));
  checkb "tree keeps the host span" (contains tree "trial");
  let events = trace_events () in
  let of_ph p = List.filter (fun e -> ph e = p) events in
  Alcotest.(check int) "one flow start" 1 (List.length (of_ph "s"));
  Alcotest.(check int) "one flow step" 1 (List.length (of_ph "t"));
  let fend = match of_ph "f" with [ e ] -> e | _ -> Alcotest.fail "one flow end" in
  checkb "flow end binds enclosing slice" (Json.member "bp" fend = Some (Json.Str "e"));
  List.iter
    (fun e ->
      checkb "flow carries the trial uid" (Json.member "id" e = Some (Json.Num 42.)))
    (of_ph "s" @ of_ph "t" @ of_ph "f");
  (* the job slice landed on the device lane, labelled by metadata *)
  let slice_ev =
    List.find (fun e -> Json.member "name" e = Some (Json.Str "job 42")) events
  in
  Alcotest.(check int) "device pid" 2
    (match Json.member "pid" slice_ev with Some (Json.Num n) -> int_of_float n | _ -> -1);
  Alcotest.(check int) "device tid" 4
    (match Json.member "tid" slice_ev with Some (Json.Num n) -> int_of_float n | _ -> -1);
  checkb "device lane labelled"
    (List.exists
       (fun e ->
         Json.member "name" e = Some (Json.Str "thread_name")
         && Option.bind (Json.member "args" e) (Json.member "name")
            = Some (Json.Str "dev 3 (test)"))
       (of_ph "M"));
  (* the flow step's timestamp falls inside the slice it should bind to *)
  let num k e =
    match Option.bind (Json.member k e) Json.to_num_opt with
    | Some n -> n
    | None -> Float.nan
  in
  let step = List.hd (of_ph "t") in
  checkb "flow step inside its slice"
    (num "ts" step >= num "ts" slice_ev
    && num "ts" step <= num "ts" slice_ev +. num "dur" slice_ev)

(* ---- metrics ---- *)

let test_metrics_registry () =
  Metrics.reset ();
  Metrics.incr "c";
  Metrics.incr "c" ~by:2.;
  Metrics.set_gauge "g" 1.5;
  Metrics.set_gauge "g" 2.5;
  Alcotest.(check (option (float 1e-9))) "counter" (Some 3.) (Metrics.get "c");
  Alcotest.(check (option (float 1e-9))) "gauge keeps last" (Some 2.5) (Metrics.get "g");
  checkb "kind mismatch rejected"
    (match Metrics.incr "g" with exception Invalid_argument _ -> true | _ -> false);
  let j = Metrics.to_json () in
  let reparsed = Json.parse (Json.to_string j) in
  checkb "counters in json"
    (Option.bind (Json.member "counters" reparsed) (Json.member "c")
    = Some (Json.Num 3.));
  let text = Metrics.dump_text () in
  checkb "text dump mentions gauge" (contains text "gauge")

let test_histogram_percentiles () =
  Metrics.reset ();
  (* 1..1000 ms-scale values: exact median 0.5005 s *)
  for i = 1 to 1000 do
    Metrics.observe "h" (Float.of_int i /. 1000.)
  done;
  Alcotest.(check (option (float 1e-9))) "count" (Some 1000.) (Metrics.get "h");
  let p50 = Option.get (Metrics.percentile "h" 50.) in
  let p99 = Option.get (Metrics.percentile "h" 99.) in
  (* log-bucket resolution is a factor of 10^(1/8) ≈ 1.33: assert the
     estimate lands within one bucket of truth, generously *)
  checkb (Printf.sprintf "p50 ≈ 0.5 (got %g)" p50) (p50 > 0.3 && p50 < 0.8);
  checkb (Printf.sprintf "p99 ≈ 0.99 (got %g)" p99) (p99 > 0.7 && p99 <= 1.0);
  checkb "p0 clamps to min" (Option.get (Metrics.percentile "h" 0.) >= 0.001);
  checkb "p100 clamps to max" (Option.get (Metrics.percentile "h" 100.) <= 1.0);
  (* non-finite observations are dropped, not crashed on *)
  Metrics.observe "h" Float.infinity;
  Alcotest.(check (option (float 1e-9))) "inf dropped" (Some 1000.) (Metrics.get "h")

let test_histogram_interpolation () =
  Metrics.reset ();
  (* 301 values uniform on [1.0, 1.3] s: the whole distribution lands in
     the single log bucket [1.0, 10^(1/8) ≈ 1.334). Pre-fix every
     percentile snapped to the same bucket edge; within-bucket
     interpolation must separate and roughly place them. *)
  for i = 0 to 300 do
    Metrics.observe "tight" (1.0 +. (0.001 *. Float.of_int i))
  done;
  let pc p = Option.get (Metrics.percentile "tight" p) in
  let p50 = pc 50. and p90 = pc 90. and p99 = pc 99. in
  checkb
    (Printf.sprintf "strictly ordered within one bucket (%g %g %g)" p50 p90 p99)
    (p50 < p90 && p90 < p99);
  checkb (Printf.sprintf "p50 ≈ 1.15 (got %g)" p50) (p50 > 1.10 && p50 < 1.20);
  checkb (Printf.sprintf "p90 ≈ 1.27 (got %g)" p90) (p90 > 1.23 && p90 < 1.30);
  checkb (Printf.sprintf "p99 ≈ 1.30 (got %g)" p99) (p99 > 1.27 && p99 <= 1.30);
  (* estimates clip to the observed range, not the bucket's bounds *)
  checkb "p100 capped at max" (pc 100. <= 1.3 +. 1e-9);
  checkb "p0 floored at min" (pc 0. >= 1.0 -. 1e-9)

(* ---- journal ---- *)

let test_journal_roundtrip () =
  let samples =
    [
      Journal.Run { r_name = "obs tpl \"q\""; r_method = "ml_model"; r_trials = 32 };
      Journal.Propose
        { p_uid = 0; p_origin = "sa"; p_chain = 3;
          p_score = 0.12345678901234567; p_config = "a=1 \"b\"=2\n" };
      Journal.Propose
        { p_uid = 1; p_origin = "seed"; p_chain = -1; p_score = Float.nan;
          p_config = "a=1" };
      Journal.Prepare { q_uid = 0; q_cache = "hit"; q_valid = true };
      Journal.Prepare { q_uid = 1; q_cache = "miss"; q_valid = false };
      Journal.Dispatch
        { d_uid = 0; d_dev = 2; d_device = "gpu"; d_attempt = 1;
          d_outcome = "timeout"; d_cost_s = 10.; d_queue_s = 0.25 };
      Journal.Measure
        { m_uid = 0; m_status = "ok"; m_time_s = Some 1.5e-4; m_attempts = 2 };
      Journal.Measure
        { m_uid = 1; m_status = "crash"; m_time_s = None; m_attempts = 3 };
    ]
  in
  List.iter
    (fun e ->
      let line = Journal.entry_to_line e in
      checkb "line is one valid JSON object"
        (match Json.parse line with Json.Obj _ -> true | _ -> false);
      match Journal.parse_line line with
      | None -> Alcotest.fail ("unparseable: " ^ line)
      | Some e' ->
          (* compare re-serialized lines: nan <> nan structurally, but
             both print as null *)
          Alcotest.(check string) "round-trip stable" line (Journal.entry_to_line e'))
    samples;
  (* A dispatch line from a pool that had shards, work stealing and
     speculation: its "shard", "stolen" and "spec" keys are ignored and
     "cancelled" is an ordinary outcome. *)
  let old =
    {|{"ev":"dispatch","uid":2,"dev":40,"device":"gpu","attempt":0,"outcome":"cancelled","cost_s":0.3,"queue_s":0,"shard":5,"stolen":true,"spec":true}|}
  in
  (match Journal.parse_line old with
  | Some (Journal.Dispatch { d_outcome = "cancelled"; _ }) as e ->
      let rp = Report.analyze (Option.to_list e) in
      Alcotest.(check int) "old line is one dispatch" 1 rp.Report.rp_dispatches
  | _ -> Alcotest.fail ("old dispatch line unparsed: " ^ old));
  checkb "blank line skipped" (Journal.parse_line "" = None);
  checkb "foreign line skipped" (Journal.parse_line {|{"ev":"wat"}|} = None);
  checkb "garbage skipped" (Journal.parse_line "not json at all" = None)

let test_journal_enablement () =
  Journal.set_enabled false;
  Journal.reset ();
  (* uids flow whether or not the journal records, so sequences don't
     depend on observability flags *)
  let u0 = Journal.fresh_uid () in
  let u1 = Journal.fresh_uid () in
  Alcotest.(check int) "uids sequential while disabled" (u0 + 1) u1;
  Journal.run ~name:"off" ~method_:"x" ~trials:1;
  Alcotest.(check int) "disabled journal records nothing" 0 (Journal.size ());
  Journal.set_enabled true;
  Alcotest.(check int) "enabling resets the uid counter" 0 (Journal.fresh_uid ());
  Journal.run ~name:"on" ~method_:"x" ~trials:1;
  Alcotest.(check int) "enabled journal records" 1 (Journal.size ());
  Journal.set_enabled false;
  (* job tags: out-of-range and cleared lookups answer -1 *)
  Journal.set_job_tags [| 7; 8 |];
  Alcotest.(check int) "tag 0" 7 (Journal.job_tag 0);
  Alcotest.(check int) "tag 1" 8 (Journal.job_tag 1);
  Alcotest.(check int) "tag out of range" (-1) (Journal.job_tag 2);
  Alcotest.(check int) "negative job" (-1) (Journal.job_tag (-1));
  Journal.clear_job_tags ();
  Alcotest.(check int) "cleared" (-1) (Journal.job_tag 0)

(* The end-to-end determinism contract: one tuning run's journal is
   byte-identical at -j1 and -j4, with the compile cache on or off, on
   a clean fleet and on one injecting 20% transient faults. *)

let obs_template =
  lazy
    (let d = Tensor.placeholder "obs_d" (List.map Tvm_tir.Expr.int [ 1; 16; 8; 8 ]) in
     let w = Tensor.placeholder "obs_w" (List.map Tvm_tir.Expr.int [ 16; 16; 3; 3 ]) in
     let c = Op.conv2d ~name:"obs_conv" ~stride:1 d w in
     Templates.gpu_flat ~name:"obs_tpl" c)

(* Simulated-time metrics only: pool.* and tuner.* are derived from the
   deterministic simulation, while par.* and tune.phase.*_s are wall
   clock and legitimately vary across -j. *)
let deterministic_metrics () =
  let keep name =
    String.starts_with ~prefix:"pool." name
    || String.starts_with ~prefix:"tuner." name
  in
  match Metrics.to_json () with
  | Json.Obj sections ->
      Json.to_string
        (Json.Obj
           (List.map
              (fun (sec, v) ->
                match v with
                | Json.Obj kvs ->
                    (sec, Json.Obj (List.filter (fun (k, _) -> keep k) kvs))
                | v -> (sec, v))
              sections))
  | j -> Json.to_string j

let tune_obs ?cache ~seed ~jobs ~fault_rate () =
  let pool =
    DPool.of_spec (Tvm_spec.Job_spec.make ~devices:4 ~fault_rate ~seed:7 ())
  in
  let par = Par.create ~domains:jobs () in
  let measure = DPool.measure_fn pool ~kind_pred:(fun _ -> true) in
  let measure_batch = DPool.batch_measure_fn ~par pool ~kind_pred:(fun _ -> true) in
  Tuner.tune ?cache
    ~spec:(Tvm_spec.Job_spec.make ~seed ~jobs ())
    ~measure_batch ~method_:Tuner.Ml_model ~measure ~n_trials:32
    (Lazy.force obs_template)

(* [prewarm]: tune with a feature memo already filled by a run from
   another seed, instead of a fresh one. *)
let run_tune_journaled ~jobs ~fault_rate ?(prewarm = false) () =
  let cache =
    if prewarm then begin
      let c = Tvm_autotune.Compile_cache.create () in
      ignore (tune_obs ~cache:c ~seed:6 ~jobs ~fault_rate ());
      Some c
    end
    else None
  in
  Journal.set_enabled false;
  Journal.set_enabled true;
  (* fresh registry so counters don't accumulate across runs *)
  Metrics.reset ();
  let result = tune_obs ?cache ~seed:5 ~jobs ~fault_rate () in
  let journal = Journal.to_jsonl () in
  let metrics = deterministic_metrics () in
  Journal.set_enabled false;
  (journal, metrics, result.Tuner.best_time)

let test_journal_deterministic () =
  let j1, m1, b1 = run_tune_journaled ~jobs:1 ~fault_rate:0.2 () in
  let j4, m4, b4 = run_tune_journaled ~jobs:4 ~fault_rate:0.2 () in
  checkb "journal nonempty" (String.length j1 > 0);
  checkb "journal has dispatch records" (contains j1 {|"ev":"dispatch"|});
  checkb "the fault plan actually fired"
    (contains j1 "timeout" || contains j1 "crash" || contains j1 "corrupt");
  Alcotest.(check string) "journal byte-identical -j1 vs -j4 @ 20% faults" j1 j4;
  Alcotest.(check string) "deterministic metrics identical -j1 vs -j4" m1 m4;
  checkb "best time identical" (b1 = b4);
  let jw, _, bw = run_tune_journaled ~jobs:4 ~fault_rate:0.2 ~prewarm:true () in
  Alcotest.(check string) "journal byte-identical fresh vs pre-warmed memo" j1 jw;
  checkb "best time identical with a pre-warmed memo" (b1 = bw);
  (* clean fleet too *)
  let c1, _, _ = run_tune_journaled ~jobs:1 ~fault_rate:0. () in
  let c4, _, _ = run_tune_journaled ~jobs:4 ~fault_rate:0. () in
  Alcotest.(check string) "clean-fleet journal byte-identical" c1 c4;
  (* a journal parsed back from its own text analyzes like the live one *)
  let entries = List.filter_map Journal.parse_line (String.split_on_char '\n' j1) in
  let r = Report.analyze entries in
  checkb "report sees the trials" (r.Report.rp_trials >= 32);
  (* invalid configs never reach the pool, so dispatches can undercount
     trials — but the measured ones must all be there *)
  checkb "report sees dispatches" (r.Report.rp_dispatches > 0);
  checkb "report sees retries on the faulty fleet" (r.Report.rp_retries > 0)

(* ---- report ---- *)

let test_report_straggler () =
  let entries = ref [] in
  let add e = entries := e :: !entries in
  let uid = ref 0 in
  add (Journal.Run { r_name = "tpl"; r_method = "ml_model"; r_trials = 30 });
  (* healthy devs 1..3: first-attempt ok at ~0.5 s per job *)
  for dev = 1 to 3 do
    for _ = 1 to 8 do
      let u = !uid in
      incr uid;
      add
        (Journal.Propose
           { p_uid = u; p_origin = "sa"; p_chain = dev; p_score = 1.0;
             p_config = Printf.sprintf "a=%d" u });
      add (Journal.Prepare { q_uid = u; q_cache = "miss"; q_valid = true });
      add
        (Journal.Dispatch
           { d_uid = u; d_dev = dev; d_device = "gpu"; d_attempt = 0;
             d_outcome = "ok"; d_cost_s = 0.5; d_queue_s = 0. });
      add
        (Journal.Measure
           { m_uid = u; m_status = "ok";
             m_time_s = Some (0.001 *. Float.of_int (u + 1)); m_attempts = 1 })
    done
  done;
  (* dev 0 is flaky: every job times out at the 10 s budget, then
     retries successfully elsewhere *)
  for _ = 1 to 6 do
    let u = !uid in
    incr uid;
    add
      (Journal.Propose
         { p_uid = u; p_origin = "random"; p_chain = -1; p_score = Float.nan;
           p_config = Printf.sprintf "a=%d" u });
    add (Journal.Prepare { q_uid = u; q_cache = "hit"; q_valid = true });
    add
      (Journal.Dispatch
         { d_uid = u; d_dev = 0; d_device = "gpu"; d_attempt = 0;
           d_outcome = "timeout"; d_cost_s = 10.; d_queue_s = 0. });
    add
      (Journal.Dispatch
         { d_uid = u; d_dev = 1; d_device = "gpu"; d_attempt = 1;
           d_outcome = "ok"; d_cost_s = 0.5; d_queue_s = 0.1 });
    add
      (Journal.Measure
         { m_uid = u; m_status = "ok"; m_time_s = Some 0.002; m_attempts = 2 })
  done;
  let r = Report.analyze ~top:3 (List.rev !entries) in
  Alcotest.(check int) "trials" 30 r.Report.rp_trials;
  Alcotest.(check int) "dispatches" 36 r.Report.rp_dispatches;
  Alcotest.(check int) "retries" 6 r.Report.rp_retries;
  Alcotest.(check int) "cache hits" 6 r.Report.rp_cache_hits;
  Alcotest.(check int) "cache misses" 24 r.Report.rp_cache_misses;
  Alcotest.(check (list (pair string int)))
    "origins" [ ("random", 6); ("sa", 24) ] r.Report.rp_origins;
  Alcotest.(check int) "top-K slowest" 3 (List.length r.Report.rp_slowest);
  (match r.Report.rp_best with
  | Some b ->
      Alcotest.(check int) "best trial is the fastest" 0 b.Report.ti_uid
  | None -> Alcotest.fail "no best trial");
  Alcotest.(check int) "three SA chains" 3 (List.length r.Report.rp_chains);
  (* only dev 0 is flagged, by its fail rate *)
  (match Report.stragglers r with
  | [ d ] ->
      Alcotest.(check int) "dev 0 flagged" 0 d.Report.ds_dev;
      checkb "timeouts attributed" (d.Report.ds_timeouts = 6);
      checkb "mean cost is the timeout budget" (abs_float (d.Report.ds_mean_cost_s -. 10.) < 1e-9)
  | ss -> Alcotest.fail (Printf.sprintf "expected 1 straggler, got %d" (List.length ss)));
  let text = Report.render r in
  checkb "render marks the straggler" (contains text "STRAGGLER");
  checkb "render attributes it to dev 0" (contains text "straggler dev 0")

let test_report_clean_fleet () =
  (* same healthy traffic without the flaky device: nothing flagged *)
  let entries = ref [] in
  let add e = entries := e :: !entries in
  for u = 0 to 23 do
    add
      (Journal.Dispatch
         { d_uid = u; d_dev = u mod 4; d_device = "gpu"; d_attempt = 0;
           d_outcome = "ok"; d_cost_s = 0.5; d_queue_s = 0. });
    add
      (Journal.Measure
         { m_uid = u; m_status = "ok"; m_time_s = Some 0.001; m_attempts = 1 })
  done;
  let r = Report.analyze (List.rev !entries) in
  checkb "no stragglers on a clean fleet" (Report.stragglers r = []);
  checkb "render says so" (contains (Report.render r) "no stragglers")

(* A 12x-slow device runs few attempts because it is slow: 4 jobs at
   6 s while three healthy peers run 14 each at 0.5 s. It must be
   flagged on cost although it ran fewer than [min_attempts]; a
   healthy device with one unlucky timeout must not be. *)
let test_report_slow_device () =
  let entries = ref [] and uid = ref 0 in
  let dispatch ~dev ~outcome ~cost =
    let u = !uid in
    incr uid;
    entries :=
      Journal.Dispatch
        { d_uid = u; d_dev = dev; d_device = "gpu"; d_attempt = 0;
          d_outcome = outcome; d_cost_s = cost; d_queue_s = 0. }
      :: !entries
  in
  for dev = 0 to 3 do
    for _ = 1 to (if dev = 2 then 4 else 14) do
      dispatch ~dev ~outcome:"ok" ~cost:(if dev = 2 then 6.0 else 0.5)
    done
  done;
  dispatch ~dev:4 ~outcome:"timeout" ~cost:10.;
  dispatch ~dev:4 ~outcome:"ok" ~cost:0.5;
  let r = Report.analyze (List.rev !entries) in
  Alcotest.(check (list int))
    "only the slow device is flagged" [ 2 ]
    (List.map (fun d -> d.Report.ds_dev) (Report.stragglers r))

(* ---- profile report ---- *)

let test_profile_report () =
  let records =
    [
      { Profile.pr_name = "conv"; pr_group = 0; pr_calls = 2; pr_time_s = 2e-3;
        pr_launch_s = 1e-5; pr_bytes = 1e6; pr_flops = 1e9 };
      { Profile.pr_name = "dense"; pr_group = 1; pr_calls = 2; pr_time_s = 1e-3;
        pr_launch_s = 1e-5; pr_bytes = 2e5; pr_flops = 1e8 };
    ]
  in
  let report =
    { Profile.rp_target = "cuda"; rp_records = records; rp_total_s = 3.02e-3 }
  in
  let table = Profile.to_table report in
  checkb "table ranks conv first" (index_of table "conv" < index_of table "dense");
  let j = Json.parse (Json.to_string (Profile.to_json report)) in
  match Option.bind (Json.member "kernels" j) Json.to_list_opt with
  | Some l -> Alcotest.(check int) "2 kernels in json" 2 (List.length l)
  | None -> Alcotest.fail "missing kernels"

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json non-finite" `Quick test_json_nonfinite;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "disabled mode zero cost" `Quick test_disabled_zero_cost;
    Alcotest.test_case "chrome json wellformed" `Quick test_chrome_json_wellformed;
    Alcotest.test_case "trace lanes and flows" `Quick test_trace_lanes_and_flows;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram interpolation" `Quick test_histogram_interpolation;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal enablement" `Quick test_journal_enablement;
    Alcotest.test_case "journal deterministic" `Slow test_journal_deterministic;
    Alcotest.test_case "report straggler" `Quick test_report_straggler;
    Alcotest.test_case "report clean fleet" `Quick test_report_clean_fleet;
    Alcotest.test_case "report flags a slow device with few attempts" `Quick
      test_report_slow_device;
    Alcotest.test_case "profile report" `Quick test_profile_report;
  ]
