(* The tvmd service layer: the persistent store's versioned on-disk
   format (round trips bit-exact, corruption is skipped never fatal),
   Job_spec as the one job description shared by every entry point,
   warm-restart semantics (resumed tuning replays the measurement log;
   a preloaded cache never changes the journal), and the scheduler's
   deterministic weighted fair-share. *)

module Cfg = Tvm_autotune.Cfg_space
module Cache = Tvm_autotune.Compile_cache
module Tuner = Tvm_autotune.Tuner
module Store = Tvm_autotune.Store
module R = Tvm_autotune.Measure_result
module Job_spec = Tvm_spec.Job_spec

let temp_store () =
  let path = Filename.temp_file "tvmstore" ".log" in
  Sys.remove path;
  path

let with_store f =
  let path = temp_store () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Job_spec                                                             *)
(* ------------------------------------------------------------------ *)

let test_job_spec_roundtrip () =
  let specs =
    [
      Job_spec.default;
      Job_spec.make ~op:Job_spec.Compile ~workload:"resnet18" ~target:"arm"
        ~fusion:false ~trials:7 ~method_name:"random" ~seed:9 ~batch:4
        ~sa_steps:3 ~n_chains:2 ~jobs:3 ~devices:4 ~validate:true
        ~verbose:true ~use_compile_cache:false ~replay:true ~fault_rate:0.25
        ~straggler:1 ~max_retries:5 ~timeout_s:0.5 ();
      Job_spec.make ~op:Job_spec.Profile ~trials:0 ();
    ]
  in
  List.iter
    (fun spec ->
      let s = Job_spec.to_string spec in
      Alcotest.(check bool)
        "single line" false
        (String.contains s '\n');
      let spec' = Job_spec.of_string s in
      Alcotest.(check bool) "round trip" true (spec = spec'))
    specs;
  (* Missing fields take defaults: the empty object is the default spec. *)
  Alcotest.(check bool)
    "defaults fill in" true
    (Job_spec.of_string "{}" = Job_spec.default);
  (* Envelopes written before the spec dropped its output sinks, its
     speculation flag and its shard count still carry those keys: they
     parse, and the keys are ignored. *)
  let r = Tvm_serve.Tvmd.request ~tenant:"t" (Job_spec.make ~trials:3 ()) in
  let s = Tvm_serve.Tvmd.to_string r in
  let n = String.length s in
  Alcotest.(check string) "envelope ends with the spec object" "}}"
    (String.sub s (n - 2) 2);
  let old =
    String.sub s 0 (n - 2)
    ^ {|,"journal_out":"j.txt","trace_out":"t.json","metrics_out":"m.txt","tune_log":"l.jsonl","speculate":true,"shards":16}}|}
  in
  Alcotest.(check bool) "old sink, speculate and shards keys ignored" true
    (Tvm_serve.Tvmd.of_string old = r)

(* ------------------------------------------------------------------ *)
(* Store: block format                                                  *)
(* ------------------------------------------------------------------ *)

let test_store_blocks () =
  with_store @@ fun path ->
  Store.append_block path ~kind:"a" [ "one"; "two" ];
  Store.append_block path ~kind:"b" [];
  Store.append_block path ~kind:"a" [ "three" ];
  let blocks = Store.load_blocks path in
  Alcotest.(check (list (pair string (list string))))
    "blocks round trip"
    [ ("a", [ "one"; "two" ]); ("b", []); ("a", [ "three" ]) ]
    (List.map (fun b -> (b.Store.b_kind, b.Store.b_records)) blocks)

let test_store_missing_file () =
  Alcotest.(check int)
    "missing file loads empty" 0
    (List.length (Store.load_blocks "/nonexistent/tvmstore.log"))

let corrupt_byte path pos =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string s in
  let pos = min pos (Bytes.length b - 1) in
  Bytes.set b pos (if Bytes.get b pos = 'Z' then 'Q' else 'Z');
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let test_store_corruption_skipped () =
  with_store @@ fun path ->
  Tvm_obs.Metrics.reset ();
  Store.append_block path ~kind:"a" [ "good-1" ];
  let mid = (Unix.stat path).Unix.st_size in
  Store.append_block path ~kind:"a" [ "will-be-corrupted" ];
  Store.append_block path ~kind:"a" [ "good-2" ];
  (* Flip a byte inside the second block's record: its checksum fails,
     the neighbours survive, nothing raises. *)
  corrupt_byte path (mid + 60);
  let blocks = Store.load_blocks path in
  Alcotest.(check (list string))
    "corrupt block skipped, neighbours kept"
    [ "good-1"; "good-2" ]
    (List.concat_map (fun b -> b.Store.b_records) blocks);
  Alcotest.(check bool)
    "rejection counted" true
    (Option.value ~default:0. (Tvm_obs.Metrics.get "cache.load_rejected") >= 1.);
  (* A truncated tail (death mid-flush) is also just skipped. *)
  let s = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub s 0 (String.length s - 4)));
  let blocks = Store.load_blocks path in
  (* good-1 survives; the corrupted middle and the truncated tail don't. *)
  Alcotest.(check int) "truncated tail dropped" 1 (List.length blocks)

let test_store_version_gate () =
  with_store @@ fun path ->
  let oc = open_out path in
  output_string oc "#tvmstore v99 kind=a records=1 checksum=0\nfuture\n";
  close_out oc;
  Store.append_block path ~kind:"a" [ "present" ];
  let blocks = Store.load_blocks path in
  Alcotest.(check (list string))
    "unknown version skipped" [ "present" ]
    (List.concat_map (fun b -> b.Store.b_records) blocks)

(* ------------------------------------------------------------------ *)
(* Store: typed round trips                                             *)
(* ------------------------------------------------------------------ *)

let test_store_db_roundtrip () =
  with_store @@ fun path ->
  let db = Tuner.Db.create () in
  Tuner.Db.add db "conv(1x3x8x8)@cuda"
    [ ("tile_x", 2); ("tile_y", 3) ]
    (R.ok ~attempts:2 1.5e-3);
  Tuner.Db.add db "k2" [ ("a", 1) ] (R.fail (R.Pool_error "no\tdevice left"));
  let hw = Store.flush_db_scope path ~scope:"s" ~from:0 db in
  Alcotest.(check int) "high-water after first flush" 2 hw;
  (* Incremental: a second flush writes only the new records. *)
  Tuner.Db.add db "k2" [ ("a", 2) ] (R.fail ~attempts:3 R.Timeout);
  let hw = Store.flush_db_scope path ~scope:"s" ~from:hw db in
  Alcotest.(check int) "high-water advances" 3 hw;
  Alcotest.(check int) "no-op flush writes nothing" 3
    (Store.flush_db_scope path ~scope:"s" ~from:hw db);
  let blocks = Store.load_blocks path in
  Alcotest.(check int) "two blocks written" 2 (List.length blocks);
  let db' = Tuner.Db.create () in
  let n = Store.load_db_scope blocks ~scope:"s" ~into:db' in
  Alcotest.(check int) "all records load" 3 n;
  Alcotest.(check int) "other scope loads nothing" 0
    (Store.load_db_scope blocks ~scope:"t" ~into:(Tuner.Db.create ()));
  (* Records replay in order with bit-exact times and full status. *)
  Alcotest.(check bool)
    "records identical" true
    (Tuner.Db.records db = Tuner.Db.records db');
  (match Tuner.Db.find db' "k2" [ ("a", 1) ] with
  | Some { R.status = R.Pool_error m; _ } ->
      Alcotest.(check string) "pool_error message survives tabs" "no\tdevice left" m
  | _ -> Alcotest.fail "pool_error record lost")

let test_store_tuned_roundtrip () =
  with_store @@ fun path ->
  let entries =
    [
      ("conv2d(1x3x8x8,16x3x3x3)->1x16x8x8@cuda", [ ("t", 8); ("u", 1) ], 1e-4);
      ("dense(64x64)->64x64@llvm", [ ("t", 4) ], 0x1.5p-10);
    ]
  in
  Store.append_tuned_scope path ~scope:"tenant:a\tb" entries;
  let blocks = Store.load_blocks path in
  Alcotest.(check bool)
    "tuned entries round trip" true
    (Store.load_tuned_scope blocks ~scope:"tenant:a\tb" = entries);
  Alcotest.(check bool)
    "other scope loads nothing" true
    (Store.load_tuned_scope blocks ~scope:"tenant:a" = [])

let test_store_cache_roundtrip () =
  with_store @@ fun path ->
  let c = Cache.create () in
  Cache.add c [ ("x", 1) ] (Cache.Valid [| 1.5; 0.1; Float.pi; 0. |]);
  Cache.add c [ ("x", 2) ] Cache.Invalid;
  ignore (Store.save_cache path ~scope:"conv@cuda|fusion=true" c);
  let c' = Cache.create () in
  let blocks = Store.load_blocks path in
  let n = Store.load_cache blocks ~scope:"conv@cuda|fusion=true" ~into:c' in
  Alcotest.(check int) "entries load" 2 n;
  Alcotest.(check int) "other scope loads nothing" 0
    (Store.load_cache blocks ~scope:"other" ~into:(Cache.create ()));
  (match Cache.find ~record:false c' [ ("x", 1) ] with
  | Some (Cache.Valid feats) ->
      Alcotest.(check bool)
        "features bit-exact" true
        (feats = [| 1.5; 0.1; Float.pi; 0. |])
  | _ -> Alcotest.fail "valid entry lost");
  Alcotest.(check bool)
    "invalid verdict survives" true
    (Cache.find ~record:false c' [ ("x", 2) ] = Some Cache.Invalid)

(* Store fuzzing: two scopes' trial logs, tuned caches and feature
   memos, then one random damage — truncation at a byte, a flipped
   bit, a duplicated block, an inserted garbage line, or an appended
   block whose checksum is right but whose tag or records are hostile.
   Loading never raises, nothing leaks from one scope into another,
   and an undamaged file loads every record. *)
let fuzz_scopes = [ "tenant:alpha"; "shared" ]

let fuzz_write path =
  List.iter
    (fun round ->
      List.iteri
        (fun si scope ->
          let db = Tuner.Db.create () in
          List.iter
            (fun i ->
              Tuner.Db.add db
                (Printf.sprintf "%s/k%d.%d" scope round i)
                [ ("s", si) ]
                (R.ok (float_of_int (i + 1) *. 1e-4)))
            [ 0; 1; 2 ];
          ignore (Store.flush_db_scope path ~scope ~from:0 db);
          Store.append_tuned_scope path ~scope
            [ (Printf.sprintf "%s/sig%d" scope round, [ ("s", si) ], 1e-3) ];
          let c = Cache.create () in
          Cache.add c [ ("s", si); ("r", round) ] (Cache.Valid [| 0.5; 2. |]);
          Cache.add c [ ("s", si); ("r", round + 2) ] Cache.Invalid;
          ignore (Store.save_cache path ~scope:(scope ^ "|tpl") c))
        fuzz_scopes)
    [ 0; 1 ]

let fuzz_damage text ~kind ~pos ~bit =
  let len = String.length text in
  let lines = String.split_on_char '\n' text in
  let insert_at n extra =
    String.concat "\n"
      (List.concat
         (List.mapi (fun i l -> if i = n then extra @ [ l ] else [ l ]) lines))
  in
  match kind with
  | 0 -> String.sub text 0 (pos mod (len + 1))
  | 1 ->
      let b = Bytes.of_string text in
      let i = pos mod len in
      Bytes.set b i (Char.chr (Char.code text.[i] lxor (1 lsl bit)));
      Bytes.to_string b
  | 2 ->
      (* Duplicate the block starting at the chosen header line. *)
      let arr = Array.of_list lines in
      let headers =
        List.filter
          (fun i -> String.starts_with ~prefix:"#tvmstore " arr.(i))
          (List.init (Array.length arr) Fun.id)
      in
      let h = List.nth headers (pos mod List.length headers) in
      let n = Scanf.sscanf arr.(h) "#tvmstore v1 kind=%_s records=%d" Fun.id in
      insert_at h (Array.to_list (Array.sub arr h (n + 1)))
  | 3 ->
      let garbage =
        [|
          "garbage";
          "#tvmstore v1 kind=db.scoped records=1 checksum=0000000000000000";
          "#tvmstore v1 kind=cache records=999 checksum=0";
          "#tvmstore v2";
          "\"tenant:alpha\"";
        |]
      in
      insert_at (pos mod List.length lines) [ garbage.(bit mod Array.length garbage) ]
  | _ ->
      let kinds = [| "db.scoped"; "tuned.scoped"; "cache" |] in
      let records =
        [|
          [ "shared"; "not\ta\trecord" ];
          [ "\\q"; "x" ];
          [];
          [ "tenant:alpha|tpl"; "s=1\tvalid\tnan nope" ];
        |]
      in
      let hostile = temp_store () in
      Store.append_block hostile ~kind:kinds.(pos mod 3)
        records.(bit mod Array.length records);
      let extra = In_channel.with_open_bin hostile In_channel.input_all in
      Sys.remove hostile;
      text ^ extra

let store_fuzz =
  QCheck.Test.make ~name:"store survives random damage, scopes never leak"
    ~count:300
    QCheck.(triple (int_range 0 5) (int_bound 1_000_000) (int_range 0 7))
    (fun (kind, pos, bit) ->
      with_store @@ fun path ->
      fuzz_write path;
      let text = In_channel.with_open_bin path In_channel.input_all in
      let damaged = if kind = 5 then text else fuzz_damage text ~kind ~pos ~bit in
      Out_channel.with_open_bin path (fun oc -> output_string oc damaged);
      let blocks = Store.load_blocks path in
      List.for_all
        (fun scope ->
          let si = if scope = "shared" then 1 else 0 in
          let db = Tuner.Db.create () in
          let n_db = Store.load_db_scope blocks ~scope ~into:db in
          let tuned = Store.load_tuned_scope blocks ~scope in
          let c = Cache.create () in
          let n_cache = Store.load_cache blocks ~scope:(scope ^ "|tpl") ~into:c in
          let mine = String.starts_with ~prefix:(scope ^ "/") in
          let cache_keys = ref [] in
          Cache.iter_entries c (fun k _ -> cache_keys := k :: !cache_keys);
          List.for_all (fun r -> mine r.Tuner.Db.db_key) (Tuner.Db.records db)
          && List.for_all (fun (sig_, _, _) -> mine sig_) tuned
          && List.for_all (fun k -> List.assoc "s" k = si) !cache_keys
          && (kind <> 5 || (n_db = 6 && List.length tuned = 2 && n_cache = 4)))
        fuzz_scopes)

(* ------------------------------------------------------------------ *)
(* Warm restart                                                         *)
(* ------------------------------------------------------------------ *)

module Templates = Tvm_autotune.Templates
module Tensor = Tvm_te.Tensor
module Op = Tvm_te.Operators
module DPool = Tvm_rpc.Device_pool
module Machine = Tvm_sim.Machine
module Par = Tvm_par.Pool
module Journal = Tvm_obs.Journal
module Metrics = Tvm_obs.Metrics

let serve_template =
  lazy
    (let d = Tensor.placeholder "srv_d" (List.map Tvm_tir.Expr.int [ 1; 16; 8; 8 ]) in
     let w = Tensor.placeholder "srv_w" (List.map Tvm_tir.Expr.int [ 16; 16; 3; 3 ]) in
     let c = Op.conv2d ~name:"srv_conv" ~stride:1 d w in
     Templates.gpu_flat ~name:"srv_tpl" c)

let tune_once ?db ?cache ?(replay = false) ~pool () =
  let par = Par.create ~domains:2 () in
  let measure = DPool.measure_fn pool ~kind_pred:(fun _ -> true) in
  let measure_batch = DPool.batch_measure_fn ~par pool ~kind_pred:(fun _ -> true) in
  Tuner.tune
    ~spec:(Job_spec.make ~seed:11 ~jobs:2 ~replay ())
    ?db ?cache ~measure_batch ~method_:Tuner.Ml_model ~measure ~n_trials:24
    (Lazy.force serve_template)

let fresh_pool () = DPool.of_spec (Job_spec.make ~devices:2 ())

(* A compile cache preloaded from the store must not change a run's
   journal by a single byte: prepare verdicts are run-local, so a warm
   process reports the same miss/hit sequence a cold one does. *)
let test_warm_cache_journal_identity () =
  with_store @@ fun path ->
  let journaled_tune ~cache () =
    Journal.set_enabled false;
    Journal.set_enabled true;
    Metrics.reset ();
    let r = tune_once ~cache ~pool:(fresh_pool ()) () in
    let j = Journal.to_jsonl () in
    let hits = Option.value ~default:0. (Metrics.get "cache.miss") in
    Journal.set_enabled false;
    (r, j, hits)
  in
  let c1 = Cache.create () in
  let r_cold, j_cold, miss_cold = journaled_tune ~cache:c1 () in
  ignore (Store.save_cache path ~scope:"srv" c1);
  let c2 = Cache.create () in
  ignore (Store.load_cache (Store.load_blocks path) ~scope:"srv" ~into:c2);
  let r_warm, j_warm, miss_warm = journaled_tune ~cache:c2 () in

  Alcotest.(check string) "journal byte-identical warm vs cold" j_cold j_warm;
  Alcotest.(check bool)
    "same best" true
    (r_cold.Tuner.best_time = r_warm.Tuner.best_time
    && Cfg.canonical r_cold.Tuner.best_config
       = Cfg.canonical r_warm.Tuner.best_config);
  (* The preloaded cache was actually consulted: a warm process
     re-lowers (and so misses) strictly less than a cold one. *)
  Alcotest.(check bool)
    "preloaded cache cuts misses" true (miss_warm < miss_cold)

(* Resuming from a persisted measurement log replays recorded results
   instead of re-dispatching: identical trial history and winner, no
   duplicate records, (almost) no device-pool work. *)
let test_replay_resume () =
  with_store @@ fun path ->
  Metrics.reset ();
  let db = Tuner.Db.create () in
  let cache = Cache.create () in
  let pool1 = fresh_pool () in
  let r1 = tune_once ~db ~cache ~pool:pool1 () in
  let hw = Store.flush_db_scope path ~scope:"srv" ~from:0 db in
  ignore (Store.save_cache path ~scope:"srv" cache);
  (* Simulated restart: fresh Db, cache and fleet, state loaded from
     disk only. *)
  let db2 = Tuner.Db.create () in
  let cache2 = Cache.create () in
  let blocks = Store.load_blocks path in
  Alcotest.(check int) "all records reload" hw
    (Store.load_db_scope blocks ~scope:"srv" ~into:db2);
  ignore (Store.load_cache blocks ~scope:"srv" ~into:cache2);
  let ok_before = Tuner.Db.status_count db2 "ok" in
  Metrics.reset ();
  let pool2 = fresh_pool () in
  let r2 = tune_once ~db:db2 ~cache:cache2 ~replay:true ~pool:pool2 () in
  Alcotest.(check bool)
    "trial history identical to the uninterrupted run" true
    (r1.Tuner.history = r2.Tuner.history);
  Alcotest.(check bool)
    "same winner" true
    (r1.Tuner.best_time = r2.Tuner.best_time);
  Alcotest.(check bool)
    "replayed trials counted" true
    (Option.value ~default:0. (Metrics.get "tuner.replayed") > 0.);
  Alcotest.(check bool)
    "replay dispatches less pool work" true
    ((DPool.stats pool2).DPool.fs_jobs < (DPool.stats pool1).DPool.fs_jobs);
  Alcotest.(check int)
    "no duplicate successful records" ok_before
    (Tuner.Db.status_count db2 "ok")

(* ------------------------------------------------------------------ *)
(* Scheduler                                                            *)
(* ------------------------------------------------------------------ *)

module Sched = Tvm_serve.Scheduler
module Tvmd = Tvm_serve.Tvmd

let mk_job ?(tenant = "t") ?(priority = 0) ?(submit = 0.) id =
  {
    Sched.jb_id = id;
    jb_tenant = tenant;
    jb_priority = priority;
    jb_submit_s = submit;
    jb_payload = ();
  }

(* Weighted fair share: with both tenants backlogged, a 2:1 weight
   split yields a 2:1 device-time split over the busy interval — and
   the whole schedule is a pure function of the trace. *)
let test_scheduler_fairness () =
  let jobs =
    List.init 60 (fun i ->
        mk_job ~tenant:(if i mod 2 = 0 then "alpha" else "beta") i)
  in
  let tenants =
    [ Sched.tenant ~weight:2. "alpha"; Sched.tenant ~weight:1. "beta" ]
  in
  let execute _job ~attempt:_ = Ok 1.0 in
  let run () = Sched.run ~slots:3 ~tenants ~execute jobs in
  let cs = run () in
  Alcotest.(check int) "all jobs complete" 60 (List.length cs);
  (* Busy interval: alpha's 30 jobs at rate 2/s last until t=15, and
     beta stays backlogged throughout. *)
  let horizon = 15. in
  let service tenant =
    List.fold_left
      (fun acc (c : unit Sched.completion) ->
        if
          c.Sched.cp_finish_s <= horizon
          && c.Sched.cp_job.Sched.jb_tenant = tenant
        then acc +. c.Sched.cp_service_s
        else acc)
      0. cs
  in
  let ratio = service "alpha" /. service "beta" in
  Alcotest.(check bool)
    (Printf.sprintf "device time split ~2:1 (got %.2f)" ratio)
    true
    (ratio > 1.7 && ratio < 2.4);
  Alcotest.(check bool) "schedule deterministic" true (cs = run ())

let test_scheduler_policies () =
  let ok1 _job ~attempt:_ = Ok 1.0 in
  (* Priorities dominate FIFO within a tenant. *)
  (match
     Sched.run ~slots:1
       ~tenants:[ Sched.tenant "t" ]
       ~execute:ok1
       [ mk_job 0; mk_job ~priority:5 1 ]
   with
  | [ c1; c2 ] ->
      Alcotest.(check int) "high priority first" 1 c1.Sched.cp_job.Sched.jb_id;
      Alcotest.(check int) "then FIFO" 0 c2.Sched.cp_job.Sched.jb_id
  | _ -> Alcotest.fail "expected 2 completions");
  (* A quota of 1 serializes a tenant even on an idle fleet. *)
  let cs =
    Sched.run ~slots:4
      ~tenants:[ Sched.tenant ~quota:1 "t" ]
      ~execute:ok1
      (List.init 4 (fun i -> mk_job i))
  in
  List.iteri
    (fun i (c : unit Sched.completion) ->
      Alcotest.(check (float 1e-9))
        "quota serializes" (float_of_int i) c.Sched.cp_start_s)
    (List.sort
       (fun (a : unit Sched.completion) b ->
         compare a.Sched.cp_start_s b.Sched.cp_start_s)
       cs);
  (* Retries: a crashed attempt charges its cost plus backoff, then
     the job still succeeds. *)
  let retry = Tvm_rpc.Retry_policy.default in
  let execute _job ~attempt = if attempt = 0 then Error "boom" else Ok 0.5 in
  (match
     Sched.run ~slots:1 ~retry ~tenants:[ Sched.tenant "t" ] ~execute
       [ mk_job 0 ]
   with
  | [ c ] ->
      Alcotest.(check int) "two attempts" 2 c.Sched.cp_attempts;
      Alcotest.(check bool) "recovered" true (c.Sched.cp_error = None);
      let expect =
        1.0 +. Tvm_rpc.Retry_policy.backoff_s retry ~attempt:0 +. 0.5
      in
      Alcotest.(check (float 1e-9))
        "service charges crash + backoff + rerun" expect c.Sched.cp_service_s
  | _ -> Alcotest.fail "expected 1 completion");
  (* Exhausted retries surface as cp_error — the scheduler never
     raises on a failing job. *)
  match
    Sched.run ~slots:1 ~retry
      ~tenants:[ Sched.tenant "t" ]
      ~execute:(fun _ ~attempt:_ -> Error "dead")
      [ mk_job 0 ]
  with
  | [ c ] ->
      Alcotest.(check bool) "failed after retries" true (c.Sched.cp_error <> None);
      Alcotest.(check int)
        "attempts exhausted"
        (retry.Tvm_rpc.Retry_policy.max_retries + 1)
        c.Sched.cp_attempts
  | _ -> Alcotest.fail "expected 1 completion"

(* ------------------------------------------------------------------ *)
(* tvmd                                                                 *)
(* ------------------------------------------------------------------ *)

let test_request_roundtrip () =
  let r =
    Tvmd.request ~tenant:"alpha" ~weight:2. ~quota:3 ~priority:1
      ~submit_s:0.25 ~share:true
      (Job_spec.make ~op:Job_spec.Tune ~workload:"C1" ~trials:8
         ~method_name:"random" ~jobs:2 ())
  in
  let s = Tvm_serve.Tvmd.to_string r in
  Alcotest.(check bool) "single line" false (String.contains s '\n');
  Alcotest.(check bool) "envelope round trips" true (Tvmd.of_string s = r);
  let d = Tvmd.of_string "{}" in
  Alcotest.(check bool)
    "defaults fill in" true
    (d.Tvmd.rq_tenant = "default" && d.Tvmd.rq_weight = 1.
    && d.Tvmd.rq_quota = None && d.Tvmd.rq_share = false
    && d.Tvmd.rq_spec = Job_spec.default);
  List.iter
    (fun text ->
      Alcotest.(check bool) (text ^ " rejected") true
        (match Tvmd.of_string text with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ {|{"quota":2.5}|}; {|{"priority":1e300}|}; {|{"priority":0.5}|} ]

(* An integer spec field that is fractional, non-finite, below its
   minimum or above its cap is rejected when the envelope is parsed,
   before tvmd sizes anything by it; the caps themselves parse. *)
let test_job_spec_ranges () =
  List.iter
    (fun (field, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s = %s rejected" field v)
        true
        (match Job_spec.of_string (Printf.sprintf {|{"%s":%s}|} field v) with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ ("fleet", "1e9"); ("n_chains", "-1"); ("trials", "2.5");
      ("jobs", "1e999"); ("batch", "0"); ("straggler", "-1");
      ("seed", "1e300");
      ("devices", string_of_int (Job_spec.max_devices + 1)) ];
  let caps =
    Job_spec.of_string
      (Printf.sprintf
         {|{"batch":%d,"n_chains":%d,"jobs":%d,"devices":%d,"fleet":%d}|}
         Job_spec.max_batch Job_spec.max_n_chains Job_spec.max_jobs
         Job_spec.max_devices Job_spec.max_fleet)
  in
  Alcotest.(check (list int)) "caps parse"
    [ Job_spec.max_batch; Job_spec.max_n_chains; Job_spec.max_jobs;
      Job_spec.max_devices; Job_spec.max_fleet ]
    [ caps.batch; caps.n_chains; caps.jobs; caps.devices; caps.fleet ]

(* Envelope fuzzer: a valid envelope with one to three of its values
   (in the spec or around it, each side equally likely) replaced by a
   hostile JSON token. Parsing either yields a spec inside every
   documented range and an envelope whose weight tvmd can serve and
   whose integer fields hold exactly the numbers written, or raises
   [Invalid_argument]; no other exception escapes. *)
let envelope_fuzz =
  let module Json = Tvm_obs.Json in
  let tokens =
    [| "0"; "1"; "-1"; "7"; "2.5"; "-0.5"; "1e9"; "1e300"; "-1e300"; "1e999";
       "-1e999"; "9007199254740993"; "true"; "null"; {|"x"|}; "[]"; "{}" |]
  in
  let spec_keys =
    [| "trials"; "seed"; "batch"; "sa_steps"; "n_chains"; "jobs"; "devices";
       "straggler"; "max_retries"; "fleet"; "fault_rate"; "timeout_s"; "op" |]
  in
  let env_keys = [| "weight"; "quota"; "priority"; "submit_s"; "tenant" |] in
  let raw = function
    | Json.Obj kvs -> List.map (fun (k, v) -> (k, Json.to_string v)) kvs
    | _ -> assert false
  in
  let env =
    raw
      (Json.parse
         (Tvmd.to_string
            (Tvmd.request ~tenant:"t" (Job_spec.make ~trials:8 ~jobs:2 ()))))
  in
  let spec = raw (Json.parse (List.assoc "spec" env)) in
  let env = List.remove_assoc "spec" env in
  let obj kvs =
    "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) kvs) ^ "}"
  in
  let set kvs k v = List.remove_assoc k kvs @ [ (k, v) ] in
  let gen =
    QCheck.Gen.(
      map
        (fun muts ->
          let env, spec =
            List.fold_left
              (fun (env, spec) (where, key, tok) ->
                let tok = tokens.(tok mod Array.length tokens) in
                if where = 0 then
                  (set env env_keys.(key mod Array.length env_keys) tok, spec)
                else (env, set spec spec_keys.(key mod Array.length spec_keys) tok))
              (env, spec) muts
          in
          obj (env @ [ ("spec", obj spec) ]))
        (list_size (int_range 1 3) (triple (int_bound 1) nat nat)))
  in
  let in_range (s : Job_spec.t) =
    s.trials >= 0 && s.sa_steps >= 0 && s.max_retries >= 0
    && Option.fold ~none:true ~some:(fun k -> k >= 0) s.straggler
    && 1 <= s.batch && s.batch <= Job_spec.max_batch
    && 1 <= s.n_chains && s.n_chains <= Job_spec.max_n_chains
    && 1 <= s.jobs && s.jobs <= Job_spec.max_jobs
    && 1 <= s.devices && s.devices <= Job_spec.max_devices
    && 0 <= s.fleet && s.fleet <= Job_spec.max_fleet
  in
  let envelope_ok (r : Tvmd.request) text =
    let written key = Option.bind (Json.member key (Json.parse text)) Json.to_num_opt in
    let exact key n = Option.fold ~none:true ~some:(Float.equal (Float.of_int n)) (written key) in
    Float.is_finite r.Tvmd.rq_weight && r.Tvmd.rq_weight > 0.
    && Option.fold ~none:true ~some:(fun q -> q >= 1 && exact "quota" q) r.Tvmd.rq_quota
    && exact "priority" r.Tvmd.rq_priority
  in
  QCheck.Test.make ~name:"hostile envelope: in-range spec or Invalid_argument"
    ~count:500 (QCheck.make ~print:Fun.id gen)
    (fun text ->
      match Tvmd.of_string text with
      | r -> in_range r.Tvmd.rq_spec && envelope_ok r text
      | exception Invalid_argument _ -> true)

(* The restart contract: kill tvmd mid-trace, restart on the same
   store, and the final results file is byte-identical to an
   uninterrupted run — done jobs are answered from their recorded
   service times, pending ones resume from the persisted trial log. *)
let test_tvmd_restart () =
  let tune_spec ?(seed = 42) workload =
    Job_spec.make ~op:Job_spec.Tune ~workload ~trials:8 ~method_name:"random"
      ~seed ~jobs:2 ()
  in
  let trace =
    [
      Tvmd.request ~tenant:"alpha" ~weight:2. ~submit_s:0. (tune_spec "C1");
      Tvmd.request ~tenant:"beta" ~submit_s:0. (tune_spec "C2");
      Tvmd.request ~tenant:"alpha" ~weight:2. ~submit_s:0.1 (tune_spec "C1");
      Tvmd.request ~tenant:"gamma" ~submit_s:0.2 (tune_spec ~seed:7 "C1");
    ]
  in
  with_store @@ fun s1 ->
  with_store @@ fun s2 ->
  Metrics.reset ();
  let full = Tvmd.serve ~slots:2 ~store:s1 trace in
  Alcotest.(check int) "cold run executes everything" 4 full.Tvmd.oc_executed;
  Alcotest.(check int) "no failures" 0 full.Tvmd.oc_failed;
  Alcotest.(check int) "one line per job" 4 (List.length full.Tvmd.oc_lines);
  Alcotest.(check bool)
    "queue-wait histogram populated" true
    (Metrics.get "tvmd.queue_wait_s" <> None);
  (* Kill after two live completions, restart on the same store. *)
  let partial = Tvmd.serve ~slots:2 ~store:s2 ~max_jobs:2 trace in
  Alcotest.(check int) "kill switch stops at 2" 2 partial.Tvmd.oc_executed;
  let resumed = Tvmd.serve ~slots:2 ~store:s2 trace in
  Alcotest.(check int) "restart restores done jobs" 2 resumed.Tvmd.oc_restored;
  Alcotest.(check int) "restart finishes the rest" 2 resumed.Tvmd.oc_executed;
  Alcotest.(check (list string))
    "results byte-identical across kill/restart" full.Tvmd.oc_lines
    resumed.Tvmd.oc_lines;
  (* A warm rerun of the identical trace touches no device at all. *)
  let warm = Tvmd.serve ~slots:2 ~store:s1 trace in
  Alcotest.(check int) "warm rerun executes nothing" 0 warm.Tvmd.oc_executed;
  Alcotest.(check int) "warm rerun all restored" 4 warm.Tvmd.oc_restored;
  Alcotest.(check (list string))
    "warm results identical" full.Tvmd.oc_lines warm.Tvmd.oc_lines

(* The store is read once per serve: one corrupt block costs one
   warning and one [cache.load_rejected], however many scopes and
   feature memos are restored from the same file, and every earlier
   job is still answered from its [done] record. *)
let test_tvmd_corrupt_block_once () =
  let tune_spec workload =
    Job_spec.make ~op:Job_spec.Tune ~workload ~trials:8 ~method_name:"random"
      ~jobs:2 ()
  in
  let trace =
    [
      Tvmd.request ~tenant:"alpha" ~submit_s:0. (tune_spec "C1");
      Tvmd.request ~tenant:"beta" ~submit_s:0. ~share:true (tune_spec "C2");
    ]
  in
  with_store @@ fun path ->
  ignore (Tvmd.serve ~slots:2 ~store:path trace);
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      output_string oc
        "#tvmstore v1 kind=db.scoped records=1 checksum=0000000000000000\n\"shared\"\n");
  Metrics.reset ();
  let o =
    Tvmd.serve ~slots:2 ~store:path
      (trace @ [ Tvmd.request ~tenant:"gamma" ~share:true (tune_spec "D1") ])
  in
  Alcotest.(check (float 0.))
    "one corrupt block counted once" 1.
    (Option.value ~default:0. (Metrics.get "cache.load_rejected"));
  Alcotest.(check int) "earlier jobs restored" 2 o.Tvmd.oc_restored;
  Alcotest.(check int) "only the new job runs" 1 o.Tvmd.oc_executed;
  Alcotest.(check int) "no failures" 0 o.Tvmd.oc_failed

(* The dispatch loop must prune its in-flight bookkeeping as the
   virtual clock passes each finish — a long stream may never
   accumulate per-job state. 10k jobs across 4 tenants at 4 slots: the
   in-flight peak is the slot count, not the stream length. *)
let test_scheduler_bounded_state () =
  Metrics.reset ();
  let n = 10_000 in
  let jobs =
    List.init n (fun i ->
        {
          Sched.jb_id = i;
          jb_tenant = Printf.sprintf "t%d" (i mod 4);
          jb_priority = i mod 3;
          jb_submit_s = float_of_int i /. 10.;
          jb_payload = ();
        })
  in
  let tenants = List.init 4 (fun i -> Sched.tenant (Printf.sprintf "t%d" i)) in
  let cs =
    Sched.run ~slots:4 ~tenants ~execute:(fun _ ~attempt:_ -> Ok 1.0) jobs
  in
  Alcotest.(check int) "all complete" n (List.length cs);
  let peak =
    Option.value ~default:infinity (Metrics.get "sched.running_peak")
  in
  Alcotest.(check bool)
    (Printf.sprintf "in-flight state bounded by slots (peak %.0f)" peak)
    true (peak <= 4.)

(* Compaction: superseded records drop per rule, unruled kinds keep
   everything, and a crash at any injected point — mid-write or just
   before the atomic rename — leaves the original store intact. *)
let test_store_compaction () =
  with_store @@ fun path ->
  let rules =
    [
      {
        Store.rl_kind = "first";
        rl_scoped = false;
        rl_keep = Store.First_per_key;
      };
      { Store.rl_kind = "last"; rl_scoped = false; rl_keep = Store.Last_per_key };
    ]
  in
  Store.append_block path ~kind:"first" [ "k1\tv1"; "k2\tv1" ];
  Store.append_block path ~kind:"raw" [ "r1"; "r2" ];
  Store.append_block path ~kind:"first" [ "k1\tv2"; "k3\tv1" ];
  Store.append_block path ~kind:"last" [ "a\t1"; "b\t1" ];
  Store.append_block path ~kind:"last" [ "a\t2" ];
  Store.append_block path ~kind:"raw" [ "r3" ];
  let before = In_channel.with_open_bin path In_channel.input_all in
  (try
     ignore (Store.compact ~rules ~crash_after_bytes:8 path);
     Alcotest.fail "expected injected crash"
   with Store.Injected_crash -> ());
  Alcotest.(check string) "crash mid-write loses nothing" before
    (In_channel.with_open_bin path In_channel.input_all);
  (try
     ignore (Store.compact ~rules ~crash_before_rename:true path);
     Alcotest.fail "expected injected crash"
   with Store.Injected_crash -> ());
  Alcotest.(check string) "crash before rename loses nothing" before
    (In_channel.with_open_bin path In_channel.input_all);
  (* Below the size threshold nothing happens at all. *)
  Alcotest.(check bool)
    "below threshold: untouched" true
    (Store.compact ~rules ~threshold_bytes:1_000_000 path = None);
  (* The real pass shrinks the file to exactly the live records. *)
  (match Store.compact ~rules path with
  | None -> Alcotest.fail "compaction skipped"
  | Some (b, a) ->
      Alcotest.(check int) "before is the old size" (String.length before) b;
      Alcotest.(check bool) "shrinks" true (a < b));
  let records kind =
    Store.load_blocks path
    |> List.filter (fun b -> b.Store.b_kind = kind)
    |> List.concat_map (fun b -> b.Store.b_records)
  in
  Alcotest.(check (list string))
    "first-wins dedup"
    [ "k1\tv1"; "k2\tv1"; "k3\tv1" ]
    (records "first");
  Alcotest.(check (list string))
    "last-wins dedup" [ "b\t1"; "a\t2" ] (records "last");
  Alcotest.(check (list string))
    "unruled kinds keep every record" [ "r1"; "r2"; "r3" ] (records "raw");
  (* Idempotent: a second pass finds nothing left to drop. *)
  match Store.compact ~rules path with
  | None -> Alcotest.fail "second pass skipped"
  | Some (b2, a2) -> Alcotest.(check int) "idempotent" b2 a2

(* The streaming spool must be just another way of feeding the same
   deterministic service: a drained batch produces the exact lines a
   one-shot jobs-file run over the same envelopes does, consumed files
   move to the archive, and malformed lines are skipped not fatal. *)
let test_tvmd_spool () =
  let dir = Filename.temp_file "tvmspool" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then (
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p)
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm dir) @@ fun () ->
  let tune_spec workload =
    Job_spec.make ~op:Job_spec.Tune ~workload ~trials:8 ~method_name:"random"
      ~jobs:2 ()
  in
  let trace =
    [
      Tvmd.request ~tenant:"alpha" ~weight:2. ~submit_s:0. (tune_spec "C1");
      Tvmd.request ~tenant:"beta" ~submit_s:0.1 (tune_spec "C2");
    ]
  in
  Out_channel.with_open_text (Filename.concat dir "00-a.req") (fun oc ->
      output_string oc (Tvmd.to_string (List.nth trace 0) ^ "\n"));
  Out_channel.with_open_text (Filename.concat dir "01-b.req") (fun oc ->
      output_string oc (Tvmd.to_string (List.nth trace 1) ^ "\n");
      output_string oc "this is not an envelope\n");
  (* Stop file pre-armed: the loop serves the pending batch, sees the
     drained spool, and exits. *)
  Out_channel.with_open_text (Filename.concat dir "stop") ignore;
  let outcomes = ref [] in
  let batches =
    Tvmd.serve_spool ~slots:2 ~dir
      ~on_batch:(fun _ o -> outcomes := o :: !outcomes)
      ()
  in
  Alcotest.(check int) "one batch" 1 batches;
  let spooled =
    match !outcomes with [ o ] -> o | _ -> Alcotest.fail "one outcome"
  in
  Alcotest.(check int) "malformed line skipped, jobs served" 2
    (List.length spooled.Tvmd.oc_lines);
  let direct = Tvmd.serve ~slots:2 trace in
  Alcotest.(check (list string))
    "spool batch identical to jobs-file run" direct.Tvmd.oc_lines
    spooled.Tvmd.oc_lines;
  let left = Sys.readdir dir |> Array.to_list |> List.sort compare in
  Alcotest.(check (list string)) "spool dir drained" [ "archive"; "stop" ] left;
  let archived =
    Sys.readdir (Filename.concat dir "archive")
    |> Array.to_list |> List.sort compare
  in
  Alcotest.(check (list string))
    "envelopes archived" [ "00-a.req"; "01-b.req" ] archived

(* One envelope tvmd cannot serve (weight 0, quota 0, or a spec whose
   fleet would size a billion-device roster) must be rejected alone:
   the good envelope next to it is served and every file is archived,
   so a restarted daemon does not trip on the same file again. *)
let test_tvmd_spool_bad_envelope () =
  let dir = Filename.temp_file "tvmspool" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then (
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p)
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm dir) @@ fun () ->
  let spec =
    Job_spec.make ~op:Job_spec.Tune ~workload:"C2" ~trials:8 ~method_name:"random"
      ~jobs:2 ()
  in
  let good = Tvmd.to_string (Tvmd.request ~tenant:"good" spec) in
  let module Json = Tvm_obs.Json in
  let set field x = function
    | Json.Obj kvs ->
        Json.Obj (List.map (fun (k, v) -> (k, if k = field then x else v)) kvs)
    | _ -> Alcotest.fail "envelope is a JSON object"
  in
  let bad ?(in_spec = false) field x =
    let env = Json.parse (Tvmd.to_string (Tvmd.request ~tenant:"bad" spec)) in
    let spec_of = function
      | Json.Obj kvs -> List.assoc "spec" kvs
      | _ -> Alcotest.fail "envelope is a JSON object"
    in
    Json.to_string
      (if in_spec then set "spec" (set field (Json.num x) (spec_of env)) env
       else set field (Json.num x) env)
  in
  let files =
    [ ("00-good.req", good); ("01-zero-weight.req", bad "weight" 0.);
      ("02-zero-quota.req", bad "quota" 0.);
      ("03-huge-fleet.req", bad ~in_spec:true "fleet" 1e9) ]
  in
  List.iter
    (fun (f, line) ->
      Out_channel.with_open_text (Filename.concat dir f) (fun oc ->
          output_string oc (line ^ "\n")))
    files;
  Out_channel.with_open_text (Filename.concat dir "stop") ignore;
  let outcomes = ref [] in
  let batches =
    Tvmd.serve_spool ~slots:2 ~dir ~on_batch:(fun _ o -> outcomes := o :: !outcomes) ()
  in
  Alcotest.(check int) "one batch" 1 batches;
  (match !outcomes with
  | [ o ] -> Alcotest.(check int) "good envelope served" 1 (List.length o.Tvmd.oc_lines)
  | _ -> Alcotest.fail "one outcome");
  let archived =
    Sys.readdir (Filename.concat dir "archive") |> Array.to_list |> List.sort compare
  in
  Alcotest.(check (list string)) "all envelopes archived" (List.map fst files) archived

(* Tenant isolation: private scopes never share tuning state — two
   tenants compiling the same network each pay the full tuning cost;
   opting into the shared scope lets the second ride the first's tuned
   configurations. *)
let test_tvmd_isolation () =
  let spec =
    Job_spec.make ~op:Job_spec.Compile ~workload:"dqn" ~trials:4
      ~method_name:"random" ~jobs:2 ()
  in
  let service (o : Tvmd.outcome) id =
    List.find_map
      (fun (c : Tvmd.request Sched.completion) ->
        if c.Sched.cp_job.Sched.jb_id = id then Some c.Sched.cp_service_s
        else None)
      o.Tvmd.oc_completions
    |> Option.get
  in
  let trace share =
    [
      Tvmd.request ~tenant:"alpha" ~submit_s:0. ~share spec;
      Tvmd.request ~tenant:"beta" ~submit_s:0. ~share spec;
    ]
  in
  let private_ = Tvmd.serve ~slots:2 (trace false) in
  Alcotest.(check int) "both tenants execute" 2 private_.Tvmd.oc_executed;
  Alcotest.(check (float 1e-9))
    "private scopes: both pay full tuning" (service private_ 0)
    (service private_ 1);
  let shared = Tvmd.serve ~slots:2 (trace true) in
  Alcotest.(check bool)
    (Printf.sprintf "shared scope: second compile rides the first (%.3f vs %.3f)"
       (service shared 1) (service shared 0))
    true
    (service shared 1 < service shared 0 /. 2.)

(* A job naming a target no device model exists for must fail, not
   tune on some other machine and report success. *)
let test_tvmd_unknown_target () =
  let tune target =
    Tvmd.request ~tenant:"alpha" ~submit_s:0.
      (Job_spec.make ~op:Job_spec.Tune ~workload:"C1" ~target ~trials:4
         ~method_name:"random" ~jobs:1 ())
  in
  let o = Tvmd.serve ~slots:1 [ tune "tpu"; tune "llvm" ] in
  Alcotest.(check int) "the tpu job fails, the llvm job does not" 1
    o.Tvmd.oc_failed;
  (* results line: ... status, then the summary (the error, if any) *)
  let status_and_summary line =
    match List.rev (String.split_on_char '\t' line) with
    | summary :: status :: _ -> (status, summary)
    | _ -> Alcotest.failf "malformed results line %S" line
  in
  match List.map status_and_summary o.Tvmd.oc_lines with
  | [ (bad, err); (good, _) ] ->
      Alcotest.(check string) "tpu job recorded as failed" "failed" bad;
      Alcotest.(check bool)
        "error names the unknown target" true
        (String.starts_with ~prefix:"Invalid_argument(\"unknown target tpu"
           (Scanf.unescaped err));
      Alcotest.(check string) "llvm job ok" "ok" good
  | l -> Alcotest.failf "expected two result lines, got %d" (List.length l)

(* A profile job prices the compiled module: its summary and charged
   service come from the executor's estimate of the same build. *)
let test_tvmd_profile_job () =
  let spec =
    Job_spec.make ~op:Job_spec.Profile ~workload:"dqn" ~trials:0 ~jobs:2 ()
  in
  let _, exec =
    Tvm.Compiler.build_executor ~spec:{ spec with Job_spec.jobs = 1 }
      ~tuned:(Tvm.Compiler.create_tuned_cache ())
      (Tvm_models.Models.of_name "dqn")
      (Tvm.Target.of_name spec.Job_spec.target)
  in
  let t = Tvm_runtime.Graph_executor.estimated_time_s exec in
  let o = Tvmd.serve ~slots:1 [ Tvmd.request ~tenant:"alpha" spec ] in
  (match o.Tvmd.oc_lines with
  | [ line ] ->
      let summary = List.hd (List.rev (String.split_on_char '\t' line)) in
      Alcotest.(check string) "summary is the estimate"
        (Printf.sprintf "estimated %h s/run" t) (Scanf.unescaped summary)
  | l -> Alcotest.failf "expected one result line, got %d" (List.length l));
  match o.Tvmd.oc_completions with
  | [ c ] ->
      Alcotest.(check bool)
        (Printf.sprintf "service %h = 0.05 + %h" c.Sched.cp_service_s t)
        true
        (Float.equal c.Sched.cp_service_s (0.05 +. t))
  | l -> Alcotest.failf "expected one completion, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "Job_spec JSON round trip" `Quick test_job_spec_roundtrip;
    Alcotest.test_case "store blocks round trip" `Quick test_store_blocks;
    Alcotest.test_case "store missing file loads empty" `Quick
      test_store_missing_file;
    Alcotest.test_case "store corruption skipped, never fatal" `Quick
      test_store_corruption_skipped;
    Alcotest.test_case "store unknown version skipped" `Quick
      test_store_version_gate;
    Alcotest.test_case "Db flush/load round trip (incremental)" `Quick
      test_store_db_roundtrip;
    Alcotest.test_case "tuned-cache entries round trip" `Quick
      test_store_tuned_roundtrip;
    Alcotest.test_case "compile-cache entries round trip" `Quick
      test_store_cache_roundtrip;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 19 |])
      store_fuzz;
    Alcotest.test_case "warm cache: journal byte-identical" `Slow
      test_warm_cache_journal_identity;
    Alcotest.test_case "replay resume: history identical, no re-dispatch" `Slow
      test_replay_resume;
    Alcotest.test_case "scheduler: weighted fair share 2:1" `Quick
      test_scheduler_fairness;
    Alcotest.test_case "scheduler: priorities, quotas, retries" `Quick
      test_scheduler_policies;
    Alcotest.test_case "tvmd request envelope round trip" `Quick
      test_request_roundtrip;
    Alcotest.test_case "job spec: out-of-range integer fields rejected" `Quick
      test_job_spec_ranges;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 29 |])
      envelope_fuzz;
    Alcotest.test_case "tvmd kill/restart: byte-identical results" `Slow
      test_tvmd_restart;
    Alcotest.test_case "tvmd: a corrupt block is reported once" `Slow
      test_tvmd_corrupt_block_once;
    Alcotest.test_case "scheduler: in-flight state bounded on 10k-job stream"
      `Quick test_scheduler_bounded_state;
    Alcotest.test_case "store compaction: rules, crash safety, idempotence"
      `Quick test_store_compaction;
    Alcotest.test_case "tvmd spool: identical to jobs-file, archive, drain"
      `Slow test_tvmd_spool;
    Alcotest.test_case "tvmd spool: a zero-weight envelope is skipped alone" `Slow
      test_tvmd_spool_bad_envelope;
    Alcotest.test_case "tvmd tenant isolation vs shared scope" `Slow
      test_tvmd_isolation;
    Alcotest.test_case "tvmd fails a tune job on an unknown target" `Quick
      test_tvmd_unknown_target;
    Alcotest.test_case "tvmd profile job: the executor's estimate" `Quick
      test_tvmd_profile_job;
  ]
