(* Fault-injection and fault-tolerance tests for the measurement path:
   deterministic fault plans, retry/backoff recovery, convergence of the
   tuner under a 20% transient-fault rate, and results that do not
   depend on how many devices share the faults.

   The fault-plan seed varies with the FAULT_SEED environment variable;
   `make check-fault` runs this suite at three different seeds. *)

open Tvm_tir
module Pool = Tvm_rpc.Device_pool
module Fault = Tvm_rpc.Fault
module Spec = Tvm_spec.Job_spec
module Tuner = Tvm_autotune.Tuner
module Templates = Tvm_autotune.Templates
module Cfg = Tvm_autotune.Cfg_space
module R = Tvm_autotune.Measure_result
module Tensor = Tvm_te.Tensor
module Op = Tvm_te.Operators
open Test_helpers

let fault_seed = try int_of_string (Sys.getenv "FAULT_SEED") with _ -> 0

let conv_template () =
  let d = Tensor.placeholder "ft_d" (List.map Expr.int [ 1; 16; 8; 8 ]) in
  let w = Tensor.placeholder "ft_w" (List.map Expr.int [ 16; 16; 3; 3 ]) in
  let c = Op.conv2d ~name:"ft_conv" ~stride:1 d w in
  Templates.gpu_flat ~name:"ft_tpl" c

(** A lowered kernel to measure directly, outside the tuning loop. *)
let some_stmt =
  lazy
    (let tpl = conv_template () in
     let rng = Random.State.make [| 21 |] in
     let rec find n =
       if n = 0 then Alcotest.fail "no valid config for fault tests"
       else
         let cfg = Cfg.random_config tpl.Tuner.tpl_space rng in
         match Tuner.try_instantiate tpl cfg with
         | Some s -> s
         | None -> find (n - 1)
     in
     find 200)

let metric name = Option.value ~default:0. (Tvm_obs.Metrics.get name)

(* ------------------------------------------------------------------ *)
(* Deterministic fault plans                                            *)
(* ------------------------------------------------------------------ *)

let test_plan_deterministic () =
  let stmt = Lazy.force some_stmt in
  let run () =
    let pool = Pool.of_spec (Spec.make ~fault_rate:0.4 ~seed:(fault_seed + 3) ()) in
    List.init 30 (fun i ->
        let r = (Pool.measure_batch pool ~kind_pred:Pool.is_gpu [| (i, stmt) |]).(0) in
        (R.status_name r.R.status, r.R.time_s, r.R.attempts))
  in
  let a = run () and b = run () in
  checkb "identical fault plans replay identically" (a = b);
  let attempts = List.fold_left (fun acc (_, _, n) -> acc + n) 0 a in
  checkb "plan actually injected faults" (attempts > 30)

let test_draw_is_pure () =
  let plan = Fault.transient ~seed:(fault_seed + 11) ~rate:0.5 () in
  let seq () = List.init 100 (fun i -> Fault.draw plan ~job:0 ~attempt:i) in
  checkb "draw is a pure function" (seq () = seq ());
  let other = Fault.transient ~seed:(fault_seed + 12) ~rate:0.5 () in
  checkb "different seeds differ"
    (seq () <> List.init 100 (fun i -> Fault.draw other ~job:0 ~attempt:i))

(* ------------------------------------------------------------------ *)
(* Retries recover from transient faults                                *)
(* ------------------------------------------------------------------ *)

let test_retries_recover () =
  let stmt = Lazy.force some_stmt in
  let pool =
    Pool.of_spec (Spec.make ~fault_rate:0.3 ~max_retries:8 ~seed:(fault_seed + 40) ())
  in
  let retries_before = metric "pool.retries" in
  let results =
    Array.to_list
      (Pool.measure_batch pool ~kind_pred:Pool.is_gpu (Array.init 30 (fun i -> (i, stmt))))
  in
  checkb "every job eventually succeeds" (List.for_all R.is_ok results);
  checkb "some jobs needed retries" (List.exists (fun r -> r.R.attempts > 1) results);
  checkb "pool.retries counted" (metric "pool.retries" > retries_before);
  let st = Pool.stats pool in
  Alcotest.(check int) "stats: every retry is one more attempt"
    (st.Pool.fs_jobs + st.Pool.fs_retries) st.Pool.fs_attempts;
  (* backoff advances the simulated clock past the pure work time *)
  checkb "makespan positive" (Pool.makespan pool > 0.)

(* ------------------------------------------------------------------ *)
(* Convergence under 20% transient faults + statuses in the Db          *)
(* ------------------------------------------------------------------ *)

let faulty_spec ~devices = Spec.make ~devices ~fault_rate:0.2 ~seed:(fault_seed + 77) ()

let tune ?db ~pool ~budget () =
  Tuner.tune ?db
    ~spec:(Spec.make ~seed:13 ())
    ~method_:Tuner.Ml_model
    ~measure_batch:(Pool.batch_measure_fn pool ~kind_pred:Pool.is_gpu)
    ~measure:(Pool.measure_fn pool ~kind_pred:Pool.is_gpu)
    ~n_trials:budget (conv_template ())

let test_faulty_tuning_converges () =
  let budget = 64 in
  let clean = tune ~pool:(Pool.of_spec Spec.default) ~budget () in
  let retries_before = metric "pool.retries" in
  let db = Tuner.Db.create () in
  let faulty = tune ~db ~pool:(Pool.of_spec (faulty_spec ~devices:3)) ~budget () in
  checkb
    (Printf.sprintf "faulty best %.4g ms within 2x of clean best %.4g ms"
       (1e3 *. faulty.Tuner.best_time) (1e3 *. clean.Tuner.best_time))
    (faulty.Tuner.best_time <= 2. *. clean.Tuner.best_time);
  Alcotest.(check int) "full budget spent" budget (List.length faulty.Tuner.history);
  checkb "pool.retries nonzero" (metric "pool.retries" > retries_before);
  (* Db tallies must agree with the recorded history, category by
     category. *)
  Alcotest.(check int) "db holds every trial" budget (Tuner.Db.size db);
  let history_count pred = List.length (List.filter pred faulty.Tuner.history) in
  List.iter
    (fun name ->
      Alcotest.(check int) ("db tally: " ^ name)
        (history_count (fun t -> R.status_name t.Tuner.result.R.status = name))
        (Tuner.Db.status_count db name))
    [ "ok"; "timeout"; "crash"; "invalid_config"; "pool_error" ];
  let tally_total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Tuner.Db.status_counts db)
  in
  Alcotest.(check int) "tallies sum to the budget" budget tally_total

(* Fault draws are keyed by job, never by device: the same faulty tune
   produces the same history on 1 device as on 4. *)
let test_faulty_history_device_invariant () =
  let history devices =
    (tune ~pool:(Pool.of_spec (faulty_spec ~devices)) ~budget:32 ()).Tuner.history
  in
  let render (t : Tuner.trial) =
    Printf.sprintf "%s %s %s %d" (Cfg.to_string t.Tuner.config)
      (R.status_name t.Tuner.result.R.status)
      (match t.Tuner.result.R.time_s with Some v -> Printf.sprintf "%h" v | None -> "-")
      t.Tuner.result.R.attempts
  in
  let h1 = history 1 in
  checkb "faults fired" (List.exists (fun (t : Tuner.trial) -> t.Tuner.result.R.attempts > 1) h1);
  Alcotest.(check (list string))
    "history identical at 1 and 4 devices" (List.map render h1)
    (List.map render (history 4))

let suite =
  [
    Alcotest.test_case "fault plans replay deterministically" `Quick test_plan_deterministic;
    Alcotest.test_case "fault draw is pure" `Quick test_draw_is_pure;
    Alcotest.test_case "retries recover transient faults" `Quick test_retries_recover;
    Alcotest.test_case "20% faults: converges, db tallies" `Quick test_faulty_tuning_converges;
    Alcotest.test_case "20% faults: history identical at 1 and 4 devices" `Quick
      test_faulty_history_device_invariant;
  ]
