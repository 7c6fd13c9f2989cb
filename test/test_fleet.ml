(* Device pool tests at fleet scale: placement-invariant results
   (1000 heterogeneous devices, faults, batches of two device kinds),
   roster size, slow devices and stragglers that never change a
   result, every device of a batch's kind pulling work, exactly one
   dispatch per attempt, and job-local backoff accounting. *)

open Tvm_tir
module Par = Tvm_par.Pool
module Cfg = Tvm_autotune.Cfg_space
module Explorers = Tvm_autotune.Explorers
module Tuner = Tvm_autotune.Tuner
module Templates = Tvm_autotune.Templates
module R = Tvm_autotune.Measure_result
module Pool = Tvm_rpc.Device_pool
module Fault = Tvm_rpc.Fault
module Retry = Tvm_rpc.Retry_policy
module Machine = Tvm_sim.Machine
module Journal = Tvm_obs.Journal
module Report = Tvm_obs.Report
module Tensor = Tvm_te.Tensor
module Op = Tvm_te.Operators
open Test_helpers

let titan = Pool.Gpu_dev Machine.titan_x
let xeon = Pool.Cpu_dev Machine.xeon_host
let mali = Pool.Gpu_dev Machine.mali_t860

(* A small pool of valid (noise key, program) jobs shared by the tests
   (instantiating templates is the expensive part). *)
let job_pool =
  lazy
    (let d = Tensor.placeholder "fl_d" (List.map Expr.int [ 1; 16; 8; 8 ]) in
     let w = Tensor.placeholder "fl_w" (List.map Expr.int [ 16; 16; 3; 3 ]) in
     let c = Op.conv2d ~name:"fl_conv" ~stride:1 d w in
     let tpl = Templates.gpu_flat ~name:"fl_tpl" c in
     let rng = Random.State.make [| 13 |] in
     let rec valid n acc =
       if List.length acc >= 12 || n = 0 then acc
       else
         let cfg = Cfg.random_config tpl.Tuner.tpl_space rng in
         match Tuner.try_instantiate tpl cfg with
         | Some s -> valid (n - 1) ((Cfg.hash cfg, s) :: acc)
         | None -> valid (n - 1) acc
     in
     Array.of_list (List.rev (valid 400 [])))

let same_kind kind k = Pool.kind_name k = Pool.kind_name kind

(* Submit [batches] one after another to one session. *)
let measure_all ?par t batches =
  Array.map
    (fun (kind, jobs) -> Pool.measure_batch ?par t ~kind_pred:(same_kind kind) jobs)
    batches

let batches_of sizes =
  let pool = Lazy.force job_pool in
  let np = Array.length pool in
  List.mapi
    (fun b (kind, size) ->
      (kind, Array.init size (fun i -> pool.((i + (3 * b)) mod np))))
    sizes
  |> Array.of_list

let faulty_catalog ?straggler n =
  Pool.catalog
    ~fault_plan:(Fault.transient ~seed:11 ~rate:0.2 ())
    (Pool.mixed_kinds ?straggler n)

(* ------------------------------------------------------------------ *)
(* Determinism at fleet scale                                           *)
(* ------------------------------------------------------------------ *)

(* 1000 heterogeneous devices, 20% transient faults, three batches
   (two device kinds): results AND the journal must be byte-identical
   at -j1 vs -j8. *)
let test_fleet_deterministic_across_j () =
  let sizes = [ (titan, 40); (xeon, 25); (titan, 35) ] in
  let total = List.fold_left (fun a (_, s) -> a + s) 0 sizes in
  let run jobs =
    Journal.set_enabled true;
    Journal.set_job_tags (Array.init total (fun i -> i));
    let t = Pool.session ~salt:5 (faulty_catalog 1000) in
    let par = Par.create ~domains:jobs () in
    let res = measure_all ~par t (batches_of sizes) in
    Journal.clear_job_tags ();
    let lines = List.map Journal.entry_to_line (Journal.entries ()) in
    Journal.set_enabled false;
    (res, lines, Pool.makespan t, Pool.stats t)
  in
  let r1, l1, mk1, st1 = run 1 in
  let r8, l8, mk8, st8 = run 8 in
  checkb "results identical at -j1 vs -j8" (r1 = r8);
  checkb "journal byte-identical at -j1 vs -j8" (l1 = l8);
  checkb "makespan identical" (mk1 = mk8);
  checkb "stats identical" (st1 = st8);
  checkb "fleet really has 1000 devices"
    (match st1.Pool.fs_devices with 1000 -> true | _ -> false);
  Alcotest.(check int)
    "every job resolved" total
    (Array.fold_left (fun a b -> a + Array.length b) 0 r1)

(* Results (not journals: those record placement) must also be
   invariant under roster size and a straggler. [mixed_kinds] puts the
   first Xeon in slot 5, so six devices run both batches. *)
let test_results_invariant_roster () =
  let sizes = [ (titan, 30); (xeon, 20) ] in
  let run ?straggler n =
    let t = Pool.session ~salt:5 (faulty_catalog ?straggler n) in
    measure_all t (batches_of sizes)
  in
  let base = run 300 in
  checkb "results invariant under roster size" (base = run 6);
  checkb "results invariant under a straggler" (base = run ~straggler:4 300);
  checkb "results invariant on 1000 devices" (base = run ~straggler:0 1000)

(* The same invariance as a property: for random batch sizes, salts,
   roster sizes and stragglers, a session's results match a 2-device
   session of the same salt. Slots 0 and 1 of [mixed_kinds] are a
   Titan X and a Mali, so every roster runs both batch kinds; the
   straggler is drawn from the even (Titan X) slots, because
   [mixed_kinds] forces it to the primary kind. *)
let results_invariant_random_batches =
  QCheck.Test.make
    ~name:"batch results invariant under random roster size and straggler"
    ~count:25
    QCheck.(
      quad (int_range 0 20) (int_range 0 20) (int_range 0 6)
        (pair (int_range 2 300) (option (int_range 0 149))))
    (fun (n1, n2, salt, (n, slow)) ->
      let sizes = [ (titan, n1); (mali, n2); (titan, (n1 + n2) mod 13) ] in
      let straggler = Option.map (fun s -> 2 * (s mod ((n + 1) / 2))) slow in
      let run ?straggler n =
        let t = Pool.session ~salt (faulty_catalog ?straggler n) in
        measure_all t (batches_of sizes)
      in
      run 2 = run ?straggler n)

(* ------------------------------------------------------------------ *)
(* Slow devices and scaling                                             *)
(* ------------------------------------------------------------------ *)

let costs n = Array.init n (fun i -> 0.06 +. (0.04 *. float_of_int (i mod 7) /. 7.))

(* A quarter of the roster is 6x slow. *)
let slow_quarter = List.init 32 (fun i -> (titan, if i < 8 then 6.0 else 1.0))

(* The fast devices must pull the work the slow ones cannot, and where
   a job runs must not change a single result. *)
let test_slow_quarter_changes_no_result () =
  let run roster =
    let t = Pool.session (Pool.catalog roster) in
    let r = Pool.simulate t ~kind:titan ~cost_s:(costs 400) in
    (r, Pool.makespan t)
  in
  let r, mk = run slow_quarter in
  (* Cut into even slices, the slow quarter alone would hold 100 jobs x
     ~0.28 s x 6 = ~170 s. Pulling from one queue must beat that by a
     lot. *)
  checkb (Printf.sprintf "makespan %.1f s beats the even-slice bound" mk) (mk < 60.);
  let r_flat, _ = run (List.init 32 (fun _ -> (titan, 1.0))) in
  checkb "slow devices never change results"
    (Array.map (fun (x : R.t) -> (x.R.status, x.R.time_s)) r
    = Array.map (fun (x : R.t) -> (x.R.status, x.R.time_s)) r_flat)

let test_scaling_efficiency () =
  let span d =
    let t = Pool.session (Pool.catalog (Pool.mixed_kinds d)) in
    ignore (Pool.simulate t ~kind:titan ~cost_s:(costs 2000));
    (Pool.makespan t, Pool.usable t ~kind:titan)
  in
  let mk8, u8 = span 8 and mk256, u256 = span 256 in
  let eff = mk8 /. mk256 /. (float_of_int u256 /. float_of_int u8) in
  checkb
    (Printf.sprintf "scaling efficiency %.2f >= 0.7 (8 -> 256 devices)" eff)
    (eff >= 0.7)

(* ------------------------------------------------------------------ *)
(* One attempt in flight per job                                        *)
(* ------------------------------------------------------------------ *)

(* Every attempt runs once, on one device, and leaves one dispatch
   record: a job's records number exactly its [attempts], and none is
   a cancelled copy. *)
let test_one_dispatch_per_attempt () =
  let n = 200 in
  Journal.set_enabled true;
  Journal.set_job_tags (Array.init n (fun i -> i));
  let t = Pool.session ~salt:3 (faulty_catalog ~straggler:0 64) in
  let r = Pool.simulate t ~kind:titan ~cost_s:(costs n) in
  Journal.clear_job_tags ();
  let entries = Journal.entries () in
  Journal.set_enabled false;
  let per_job = Array.make n 0 and cancelled = ref 0 in
  List.iter
    (function
      | Journal.Dispatch { d_uid; d_outcome; _ } ->
          per_job.(d_uid) <- per_job.(d_uid) + 1;
          if d_outcome = "cancelled" then incr cancelled
      | _ -> ())
    entries;
  checkb "faults forced retries" (Array.exists (fun (x : R.t) -> x.R.attempts > 1) r);
  checkb "dispatches per job = attempts"
    (Array.for_all2 (fun k (x : R.t) -> k = x.R.attempts) per_job r);
  Alcotest.(check int) "no cancelled dispatch" 0 !cancelled

(* A 12x straggler of the target kind stretches the makespan and
   changes no result, on a clean fleet and at 20% faults. *)
let test_straggler_changes_no_result () =
  let run ?straggler ~rate () =
    let t =
      Pool.session ~salt:3
        (Pool.catalog
           ~fault_plan:(Fault.transient ~seed:11 ~rate ())
           (Pool.mixed_kinds ?straggler 64))
    in
    let r = Pool.simulate t ~kind:titan ~cost_s:(costs 300) in
    (r, Pool.makespan t)
  in
  List.iter
    (fun rate ->
      let r, mk = run ~rate () and r_s, mk_s = run ~straggler:0 ~rate () in
      checkb (Printf.sprintf "results identical at %.0f%% faults" (100. *. rate))
        (r = r_s);
      checkb
        (Printf.sprintf "straggler stretches the makespan (%.2f s > %.2f s)" mk_s mk)
        (mk_s > mk))
    [ 0.; 0.2 ]

let test_retry_at_is_job_local () =
  let p = Retry.default in
  let at = Retry.retry_at p ~now:100. ~attempt:1 in
  checkb "retry_at = now + backoff"
    (Float.abs (at -. (100. +. Retry.backoff_s p ~attempt:1)) < 1e-12)

(* The event queue the virtual-clock loops run on, against a list
   model: interleaved pushes and pops, times from a small set so ties
   are common. Pops come out as a stable sort by (at, seq), with the
   default push-order seq and with explicit distinct seqs. *)
let event_queue_matches_model =
  let module Q = Tvm_rpc.Event_queue in
  QCheck.Test.make ~name:"event queue pops in stable (at, seq) order" ~count:300
    QCheck.(
      pair bool
        (list_of_size Gen.(int_bound 120) (option (pair (int_bound 3) (int_bound 20)))))
    (fun (explicit, ops) ->
      let q = Q.create () in
      let model = ref [] and pushes = ref 0 in
      let pop () =
        match List.sort compare !model with
        | [] -> Q.top_time q = infinity && Q.pop q = None
        | ((at, _, i) as m) :: _ ->
            model := List.filter (fun e -> e <> m) !model;
            Q.top_time q = at && Q.pop q = Some i
      in
      List.for_all
        (function
          | Some (t, s) ->
              let at = 0.5 *. float_of_int t and i = !pushes in
              incr pushes;
              let seq = if explicit then (s * 1000) + i else i in
              if explicit then Q.push q ~seq ~at i else Q.push q ~at i;
              model := (at, seq, i) :: !model;
              Q.length q = List.length !model
          | None -> pop ())
        ops
      && (let rec drain () = !model = [] || (pop () && drain ()) in
          drain ())
      && Q.is_empty q && pop ())

(* ------------------------------------------------------------------ *)
(* Pull queue, seen through the report                                  *)
(* ------------------------------------------------------------------ *)

(* On the slow-quarter roster every device pulls work, and each slow
   device runs fewer attempts than any fast one. *)
let test_every_device_pulls () =
  Journal.set_enabled true;
  Journal.set_job_tags (Array.init 400 (fun i -> i));
  let t = Pool.session (Pool.catalog slow_quarter) in
  ignore (Pool.simulate t ~kind:titan ~cost_s:(costs 400));
  Journal.clear_job_tags ();
  let rp = Report.analyze (Journal.entries ()) in
  Journal.set_enabled false;
  let devs = rp.Report.rp_devices in
  Alcotest.(check int) "every device reported" 32 (List.length devs);
  checkb "every device ran attempts"
    (List.for_all (fun d -> d.Report.ds_attempts > 0) devs);
  let slow, fast = List.partition (fun d -> d.Report.ds_dev < 8) devs in
  let most l = List.fold_left (fun a d -> max a d.Report.ds_attempts) 0 l in
  let least l = List.fold_left (fun a d -> min a d.Report.ds_attempts) max_int l in
  checkb
    (Printf.sprintf "slow devices ran fewer attempts (%d < %d)" (most slow)
       (least fast))
    (most slow < least fast)

(* ------------------------------------------------------------------ *)
(* SA propose memo (satellite 1)                                        *)
(* ------------------------------------------------------------------ *)

(* On a 16-config space, 60 steps per chain must revisit configs
   constantly; the chain-local memo caps predictor calls at the space
   size while leaving the output untouched. *)
let test_sa_propose_memo () =
  let space =
    Cfg.space
      [
        Cfg.knob "a" (List.init 4 (fun i -> i + 1));
        Cfg.knob "b" (List.init 4 (fun i -> i + 1));
      ]
  in
  let calls = ref 0 in
  let predict_for_chain _ cfg =
    incr calls;
    Float.sin (float_of_int (Cfg.hash cfg land 0xFFFF))
  in
  let n_chains = 4 and n_steps = 60 in
  let run () =
    calls := 0;
    let rng = Random.State.make [| 5 |] in
    let state = Explorers.sa_init space rng ~n_chains in
    let out =
      Explorers.simulated_annealing space rng state ~predict_for_chain
        ~visited:(Hashtbl.create 8) ~n_steps ~temp:1.0 ~batch:8
    in
    (out, !calls)
  in
  let out1, calls1 = run () in
  let out2, calls2 = run () in
  checkb "memoized walk is reproducible" (out1 = out2 && calls1 = calls2);
  checkb
    (Printf.sprintf "%d predictor calls <= %d distinct configs" calls1
       (n_chains * Cfg.size space))
    (calls1 <= n_chains * Cfg.size space);
  checkb "far fewer calls than proposals"
    (calls1 < n_chains * (n_steps + 1));
  checkb "walk still yields candidates" (out1 <> [])

let suite =
  [
    Alcotest.test_case "1000-device fleet: -j1 = -j8 (results + journal)"
      `Quick test_fleet_deterministic_across_j;
    Alcotest.test_case "results invariant under roster size and straggler"
      `Quick test_results_invariant_roster;
    QCheck_alcotest.to_alcotest results_invariant_random_batches;
    Alcotest.test_case "a slow quarter of the roster changes no result" `Quick
      test_slow_quarter_changes_no_result;
    Alcotest.test_case "scaling efficiency >= 0.7 at 8 -> 256" `Quick
      test_scaling_efficiency;
    Alcotest.test_case "one dispatch per attempt" `Quick
      test_one_dispatch_per_attempt;
    Alcotest.test_case "a straggler changes no result" `Quick
      test_straggler_changes_no_result;
    Alcotest.test_case "retry_at is job-local" `Quick test_retry_at_is_job_local;
    QCheck_alcotest.to_alcotest event_queue_matches_model;
    Alcotest.test_case "each device of the batch's kind pulls work" `Quick
      test_every_device_pulls;
    Alcotest.test_case "sa propose memo caps predictor calls" `Quick
      test_sa_propose_memo;
  ]
