(** Multi-model serving executor (§6, Fig 21): several compiled
    networks loaded at once, concurrent requests served on the
    deterministic virtual clock, with three serving-time optimizations
    the single-request {!Tvm_runtime.Graph_executor} cannot express:

    - {b dynamic batching} — compatible same-model requests coalesce
      along the batch axis under a max-batch / max-delay policy. A
      batch of [k] amortizes per-kernel launches and runs each group
      at the device's batch efficiency ([alpha·k + (1-alpha)] of the
      batch-1 time: the simulated GPU/accelerator is underutilized at
      batch 1, the paper's serving regime), so batched throughput
      scales well past the unbatched server;
    - {b cross-request slab reuse} — activation storage comes from a
      shared {!Tvm_graph.Mem_plan.Arena} rather than private per
      request buffers: each in-flight batch acquires its memory plan's
      slots for [dispatch, completion) and releases them for later
      requests of any model, so the server's footprint is the
      high-water mark of live slab bytes, not the sum over requests;
    - {b heterogeneous dispatch} — a graph's fused groups split across
      cpu + gpu + vdla the way Fig 21 offloads convolutions: each
      group goes to the device minimizing its estimated cost
      (per-group kernel estimates scaled by a device/op-class factor)
      plus the transfer cost of any cross-device inputs.

    Determinism follows the repo's replay-on-coordinator pattern:
    model loading (the expensive compiles) fans out over [lanes]
    domains with per-model private caches and sequential host
    parallelism, while the authoritative schedule — arrivals, batch
    formation, device occupancy, completions, the results file — is a
    sequential virtual-clock simulation on the coordinator, a pure
    function of the request trace. Results are byte-identical at any
    lane count. *)

module G = Tvm_graph.Graph_ir
module Fusion = Tvm_graph.Fusion
module Mem_plan = Tvm_graph.Mem_plan
module Exec = Tvm_runtime.Graph_executor
module Rt = Tvm_runtime.Rt_module
module Metrics = Tvm_obs.Metrics
module Json = Tvm_obs.Json
module Par = Tvm_par.Pool
module Spec = Tvm_spec.Job_spec
module Event_queue = Tvm_rpc.Event_queue

(* ------------------------------------------------------------------ *)
(* Devices and the serving cost model                                  *)
(* ------------------------------------------------------------------ *)

type device = Cpu | Gpu | Vdla

let device_name = function Cpu -> "cpu" | Gpu -> "gpu" | Vdla -> "vdla"
let dev_index = function Cpu -> 0 | Gpu -> 1 | Vdla -> 2
let n_devices = 3

(* Fraction of a group's work that scales linearly with batch size:
   time(k) = time(1) · (alpha·k + (1-alpha)). Wide devices (gpu, the
   vdla array) are underutilized at batch 1, so most of their batch-1
   time is idle lanes a bigger batch fills; the scalar cpu is already
   saturated and scales almost linearly. *)
let batch_alpha = function Gpu -> 0.15 | Vdla -> 0.25 | Cpu -> 0.85
let batch_eff dev k = (batch_alpha dev *. float_of_int k) +. 1. -. batch_alpha dev

type op_class = Conv | Dense | Reduce | Elemwise

let classify = function
  | "conv2d" | "depthwise_conv2d" | "conv2d_transpose" -> Conv
  | "dense" -> Dense
  | "max_pool2d" | "global_avg_pool2d" | "softmax" -> Reduce
  | _ -> Elemwise

(* Per-group time factor vs the gpu-compiled kernel estimate. The vdla
   tensorizes conv-shaped work (Fig 21's offload target) but its fixed
   16×16 MACs underutilize skinny inference-time matmuls and it is a
   poor fit for reductions and scattered elementwise ops; the cpu wins
   on small low-parallelism tails (pool/softmax) and loses badly on
   heavy compute. Dense stays on the gpu, convs offload to the vdla,
   tails fall to the cpu when transfers don't dominate. *)
let device_factor dev cls =
  match (dev, cls) with
  | Gpu, _ -> 1.0
  | Vdla, Conv -> 0.6
  | Vdla, Dense -> 1.5
  | Vdla, (Reduce | Elemwise) -> 6.0
  | Cpu, Conv -> 12.0
  | Cpu, Dense -> 8.0
  | Cpu, Reduce -> 0.8
  | Cpu, Elemwise -> 1.6

(* Cross-device input transfer: fixed DMA setup plus bytes over the
   interconnect. *)
let xfer_cost bytes = 4e-6 +. (bytes /. 12e9)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  cf_max_batch : int;  (** coalescing cap; 1 disables batching *)
  cf_max_delay_s : float;  (** max wait before a partial batch launches *)
  cf_max_inflight : int;  (** concurrent batches admitted *)
  cf_hetero : bool;  (** heterogeneous dispatch (off: all groups on gpu) *)
}

let config ?(max_batch = 8) ?(max_delay_s = 2e-3) ?(max_inflight = 8)
    ?(hetero = true) () =
  if max_batch < 1 then invalid_arg "model_server: max_batch must be >= 1";
  if max_inflight < 1 then invalid_arg "model_server: max_inflight must be >= 1";
  { cf_max_batch = max_batch; cf_max_delay_s = max_delay_s;
    cf_max_inflight = max_inflight; cf_hetero = hetero }

(* ------------------------------------------------------------------ *)
(* Loaded models                                                       *)
(* ------------------------------------------------------------------ *)

type group_exec = {
  ge_device : device;
  ge_time1_s : float;  (** batch-1 estimate on the chosen device *)
  ge_xfer_s : float;  (** cross-device input transfer charged per launch *)
}

type model = {
  mv_name : string;
  mv_groups : group_exec list;  (** executable order *)
  mv_plan : Mem_plan.plan;
  mv_naive_bytes : float;  (** one private buffer per intermediate *)
  mv_time1_s : float;  (** batch-1 service estimate, transfers included *)
  mv_placement : (string * int) list;  (** device name → groups placed *)
}

type t = { sv_cfg : config; sv_models : model list (* load order *) }

let models t = t.sv_models

let find t name =
  match List.find_opt (fun m -> m.mv_name = name) t.sv_models with
  | Some m -> m
  | None -> invalid_arg ("model_server: unknown model " ^ name)

(* Greedy placement in executable order: each group goes to the device
   minimizing run time plus the transfer cost of inputs produced on
   other devices. Devices are tried in a fixed order, strict
   improvement wins — deterministic. *)
let place ~cfg ~graph ~(groups : Fusion.group list) ~time1_of =
  let dev_of_node : (int, device) Hashtbl.t = Hashtbl.create 32 in
  List.map
    (fun (g : Fusion.group) ->
      let op =
        match (G.node graph g.Fusion.g_anchor).G.kind with
        | G.Op op -> op
        | G.Input | G.Param -> "identity"
      in
      let cls = classify op in
      let t1 = time1_of g in
      let cost_on dev =
        let xfer =
          List.fold_left
            (fun acc input ->
              match Hashtbl.find_opt dev_of_node input with
              | Some d when d <> dev ->
                  acc +. xfer_cost (Mem_plan.node_bytes graph input)
              | _ -> acc)
            0. g.Fusion.g_inputs
        in
        ((t1 *. device_factor dev cls) +. xfer, xfer)
      in
      let dev, (_, xfer) =
        if not cfg.cf_hetero then (Gpu, cost_on Gpu)
        else
          List.fold_left
            (fun (best_d, (best_c, best_x)) d ->
              let c, x = cost_on d in
              if c < best_c then (d, (c, x)) else (best_d, (best_c, best_x)))
            (Gpu, cost_on Gpu) [ Vdla; Cpu ]
      in
      Hashtbl.replace dev_of_node g.Fusion.g_output dev;
      {
        ge_device = dev;
        ge_time1_s = t1 *. device_factor dev cls;
        ge_xfer_s = xfer;
      })
    groups

let load ?(lanes = 1) ?spec ?target cfg named_graphs =
  let target = match target with Some t -> t | None -> Tvm.Target.cuda () in
  (* Per-model compiles run with sequential host parallelism, each on
     its own tuned cache (and [Compiler.build] keeps its feature memos
     build-local), so lanes never share mutable state and the loaded
     models are independent of the lane count. *)
  let spec =
    match spec with
    | Some s -> { s with Spec.jobs = 1 }
    | None -> Spec.make ~trials:0 ~jobs:1 ()
  in
  let build (name, graph) =
    let tuned = Tvm.Compiler.create_tuned_cache () in
    let result = Tvm.Compiler.build ~spec ~tuned graph target in
    let kernels =
      List.map (fun (k : Rt.kernel) -> (k.Rt.k_group, k))
        (Rt.kernels result.Tvm.Compiler.module_)
    in
    let time1_of (g : Fusion.group) =
      match List.assoc_opt g.Fusion.g_id kernels with
      | Some k -> k.Rt.k_time_s
      | None ->
          (* No compiled kernel (reference fallback): flops at a
             nominal rate keeps the estimate comparable. *)
          Fusion.group_flops graph g /. 5e9
    in
    let groups_exec =
      place ~cfg ~graph ~groups:result.Tvm.Compiler.groups ~time1_of
    in
    let plan = Mem_plan.plan graph result.Tvm.Compiler.groups in
    let placement =
      List.map
        (fun d ->
          ( device_name d,
            List.length
              (List.filter (fun ge -> ge.ge_device = d) groups_exec) ))
        [ Cpu; Gpu; Vdla ]
    in
    let time1 =
      List.fold_left
        (fun acc ge ->
          acc +. ge.ge_time1_s +. ge.ge_xfer_s +. Exec.launch_overhead_s)
        0. groups_exec
    in
    {
      mv_name = name;
      mv_groups = groups_exec;
      mv_plan = plan;
      mv_naive_bytes = plan.Mem_plan.naive_bytes;
      mv_time1_s = time1;
      mv_placement = placement;
    }
  in
  let arr = Array.of_list named_graphs in
  let models =
    if lanes <= 1 || Array.length arr <= 1 then Array.map build arr
    else Par.run_lanes (Par.create ~domains:lanes ()) build arr
  in
  { sv_cfg = cfg; sv_models = Array.to_list models }

(* ------------------------------------------------------------------ *)
(* The virtual-clock serving simulation                                *)
(* ------------------------------------------------------------------ *)

type completion = {
  rc_id : int;
  rc_tenant : string;
  rc_model : string;
  rc_submit_s : float;
  rc_start_s : float;  (** batch dispatch time *)
  rc_finish_s : float;
  rc_latency_s : float;  (** [rc_finish_s -. rc_submit_s] *)
  rc_batch : int;  (** id of the coalesced batch *)
  rc_batch_size : int;
  rc_slo_s : float;
  rc_slo_ok : bool;
}

type batch_info = {
  bt_id : int;
  bt_model : string;
  bt_size : int;
  bt_start_s : float;
  bt_finish_s : float;
}

type outcome = {
  oc_completions : completion list;  (** finish order *)
  oc_batches : batch_info list;  (** launch order *)
  oc_makespan_s : float;
  oc_throughput_rps : float;
  oc_mean_batch : float;
  oc_slab_bytes : float;  (** arena footprint (high water) *)
  oc_naive_bytes : float;  (** peak Σ in-flight naive bytes *)
  oc_slab_saving : float;  (** [1 - slab/naive] *)
  oc_slab_reuses : int;
  oc_slo_misses : int;
  oc_p50_s : float;
  oc_p90_s : float;
  oc_p99_s : float;
}

(* One batch's service: walk the groups in executable order, charging
   each to its device lane. Device lanes only move forward, so batches
   pipeline across devices (a later batch's conv groups run on the
   vdla while an earlier batch's dense tail holds the gpu). *)
let batch_service cfg (m : model) ~k ~start ~dev_free =
  let tm = ref start in
  List.iter
    (fun ge ->
      let d = dev_index ge.ge_device in
      let s = Float.max !tm dev_free.(d) in
      let dur =
        ge.ge_xfer_s +. Exec.launch_overhead_s
        +. (ge.ge_time1_s *. batch_eff ge.ge_device k)
      in
      dev_free.(d) <- s +. dur;
      tm := s +. dur)
    m.mv_groups;
  !tm

type running = {
  rn_batch : int;
  rn_model : model;
  rn_reqs : Traffic.request list;  (** id order *)
  rn_start : float;
  rn_finish : float;
  rn_slabs : Mem_plan.Arena.slab list;
}

let run t (reqs : Traffic.request list) : outcome =
  let cfg = t.sv_cfg in
  let arena = Mem_plan.Arena.create () in
  let dev_free = Array.make n_devices 0. in
  let queues =
    List.map (fun m -> (m.mv_name, (m, Queue.create ()))) t.sv_models
  in
  let queue_of r =
    match List.assoc_opt r.Traffic.rq_model queues with
    | Some mq -> mq
    | None ->
        invalid_arg ("model_server: request for unloaded model "
                     ^ r.Traffic.rq_model)
  in
  let pending =
    ref
      (List.sort
         (fun a b ->
           compare (a.Traffic.rq_submit_s, a.Traffic.rq_id)
             (b.Traffic.rq_submit_s, b.Traffic.rq_id))
         reqs)
  in
  let running = Event_queue.create () (* keyed (finish, batch id) *) in
  let next_batch = ref 0 in
  let naive_in_use = ref 0. and naive_peak = ref 0. in
  let completions = ref [] and batches = ref [] in
  let slo_misses = ref 0 in
  let admit now =
    let rec move () =
      match !pending with
      | r :: rest when r.Traffic.rq_submit_s <= now ->
          pending := rest;
          Queue.add r (snd (queue_of r));
          move ()
      | _ -> ()
    in
    move ()
  in
  let complete now =
    while Event_queue.top_time running <= now do
      let rn = Option.get (Event_queue.pop running) in
      Mem_plan.Arena.release_plan arena rn.rn_slabs;
      naive_in_use :=
        !naive_in_use
        -. (float_of_int (List.length rn.rn_reqs)
           *. rn.rn_model.mv_naive_bytes);
      List.iter
        (fun (r : Traffic.request) ->
          let latency = rn.rn_finish -. r.Traffic.rq_submit_s in
          let ok = latency <= r.Traffic.rq_slo_s in
          if not ok then incr slo_misses;
          Metrics.observe "serve_rt.latency_s" latency;
          completions :=
            {
              rc_id = r.Traffic.rq_id;
              rc_tenant = r.Traffic.rq_tenant;
              rc_model = rn.rn_model.mv_name;
              rc_submit_s = r.Traffic.rq_submit_s;
              rc_start_s = rn.rn_start;
              rc_finish_s = rn.rn_finish;
              rc_latency_s = latency;
              rc_batch = rn.rn_batch;
              rc_batch_size = List.length rn.rn_reqs;
              rc_slo_s = r.Traffic.rq_slo_s;
              rc_slo_ok = ok;
            }
            :: !completions)
        rn.rn_reqs
    done
  in
  (* A model's head-of-line batch launches when it is full, or its
     oldest request has waited out the delay budget — and an executor
     slot is free. *)
  let eligible now (_, (_, q)) =
    (not (Queue.is_empty q))
    && Event_queue.length running < cfg.cf_max_inflight
    && (Queue.length q >= cfg.cf_max_batch
       || (Queue.peek q).Traffic.rq_submit_s +. cfg.cf_max_delay_s <= now)
  in
  let launch now =
    let rec go () =
      (* Oldest head request first — deterministic FCFS across models
         (request ids are unique, so there are no ties). *)
      let pick best ((_, (_, q)) as c) =
        if not (eligible now c) then best
        else
          match best with
          | Some (_, (_, qb))
            when compare
                   ((Queue.peek qb).Traffic.rq_submit_s, (Queue.peek qb).Traffic.rq_id)
                   ((Queue.peek q).Traffic.rq_submit_s, (Queue.peek q).Traffic.rq_id)
                 < 0 ->
              best
          | _ -> Some c
      in
      match List.fold_left pick None queues with
      | None -> ()
      | Some (_, (m, q)) ->
          let k = min cfg.cf_max_batch (Queue.length q) in
          let members = List.init k (fun _ -> Queue.pop q) in
          let finish = batch_service cfg m ~k ~start:now ~dev_free in
          let slabs =
            Mem_plan.Arena.acquire_plan arena m.mv_plan
              ~scale:(float_of_int k)
          in
          naive_in_use :=
            !naive_in_use +. (float_of_int k *. m.mv_naive_bytes);
          if !naive_in_use > !naive_peak then naive_peak := !naive_in_use;
          let id = !next_batch in
          incr next_batch;
          Metrics.observe "serve_rt.batch_size" (float_of_int k);
          batches :=
            { bt_id = id; bt_model = m.mv_name; bt_size = k;
              bt_start_s = now; bt_finish_s = finish }
            :: !batches;
          Event_queue.push running ~seq:id ~at:finish
            { rn_batch = id; rn_model = m; rn_reqs = members;
              rn_start = now; rn_finish = finish; rn_slabs = slabs };
          go ()
    in
    go ()
  in
  (* The next instant the state can change: an arrival, a batch
     completion, or a future delay deadline (an expired one waits for a
     completion to free a slot). Once admit, complete and launch have
     run at [now], no arrival or completion is due at or before [now]
     and a request still queued is blocked only by a full executor (a
     completion comes) or a future deadline — so [infinity] means
     every request has completed. *)
  let next_event now =
    List.fold_left
      (fun acc (_, (_, q)) ->
        if Queue.is_empty q then acc
        else
          let d = (Queue.peek q).Traffic.rq_submit_s +. cfg.cf_max_delay_s in
          if d > now then Float.min acc d else acc)
      (Float.min
         (match !pending with r :: _ -> r.Traffic.rq_submit_s | [] -> infinity)
         (Event_queue.top_time running))
      queues
  in
  let now = ref 0. in
  while !now < infinity do
    admit !now;
    complete !now;
    launch !now;
    now := next_event !now
  done;
  let completions =
    List.sort
      (fun a b -> compare (a.rc_finish_s, a.rc_batch, a.rc_id)
                    (b.rc_finish_s, b.rc_batch, b.rc_id))
      !completions
  in
  let batches = List.rev !batches in
  let n = List.length completions in
  let makespan =
    List.fold_left (fun acc c -> Float.max acc c.rc_finish_s) 0. completions
  in
  let latencies =
    Array.of_list (List.map (fun c -> c.rc_latency_s) completions)
  in
  Array.sort compare latencies;
  let slab = Mem_plan.Arena.footprint_bytes arena in
  let saving =
    if !naive_peak > 0. then 1. -. (slab /. !naive_peak) else 0.
  in
  let outcome =
    {
      oc_completions = completions;
      oc_batches = batches;
      oc_makespan_s = makespan;
      oc_throughput_rps =
        (if makespan > 0. then float_of_int n /. makespan else 0.);
      oc_mean_batch =
        (match batches with
        | [] -> 0.
        | l ->
            float_of_int (List.fold_left (fun a b -> a + b.bt_size) 0 l)
            /. float_of_int (List.length l));
      oc_slab_bytes = slab;
      oc_naive_bytes = !naive_peak;
      oc_slab_saving = saving;
      oc_slab_reuses = Mem_plan.Arena.reuses arena;
      oc_slo_misses = !slo_misses;
      oc_p50_s = Metrics.exact_percentile latencies 50.;
      oc_p90_s = Metrics.exact_percentile latencies 90.;
      oc_p99_s = Metrics.exact_percentile latencies 99.;
    }
  in
  Metrics.incr ~by:(float_of_int n) "serve_rt.requests";
  Metrics.set_gauge "serve_rt.throughput_rps" outcome.oc_throughput_rps;
  Metrics.set_gauge "serve_rt.makespan_s" outcome.oc_makespan_s;
  Metrics.set_gauge "serve_rt.mean_batch" outcome.oc_mean_batch;
  Metrics.set_gauge "serve_rt.slab_bytes" outcome.oc_slab_bytes;
  Metrics.set_gauge "serve_rt.slab_peak_bytes"
    (Mem_plan.Arena.peak_in_use_bytes arena);
  Metrics.set_gauge "serve_rt.naive_bytes" outcome.oc_naive_bytes;
  Metrics.set_gauge "serve_rt.slab_saving" outcome.oc_slab_saving;
  Metrics.set_gauge "serve_rt.slo_misses" (float_of_int outcome.oc_slo_misses);
  outcome

(* ------------------------------------------------------------------ *)
(* Results and the serving journal                                     *)
(* ------------------------------------------------------------------ *)

(** One line per completion, [%h] floats — byte-comparable across lane
    counts (the [make check-servert] identity check). *)
let results_lines (o : outcome) =
  List.map
    (fun c ->
      Printf.sprintf "%d\t%s\t%s\t%h\t%h\t%h\t%d\t%d\t%d" c.rc_id
        (String.escaped c.rc_tenant) (String.escaped c.rc_model)
        c.rc_submit_s c.rc_finish_s c.rc_latency_s c.rc_batch c.rc_batch_size
        (if c.rc_slo_ok then 1 else 0))
    o.oc_completions

(** Serving flight recorder: JSONL with a [serve_rt.*] kind per line —
    run header, per-model placements, batches, requests. [tvmc report]
    renders the request-latency digest from this. *)
let journal_lines t (o : outcome) =
  let open Json in
  let header =
    Obj
      [
        ("kind", Str "serve_rt.run");
        ("models", List (List.map (fun m -> Str m.mv_name) t.sv_models));
        ("max_batch", num (float_of_int t.sv_cfg.cf_max_batch));
        ("max_delay_s", num t.sv_cfg.cf_max_delay_s);
        ("max_inflight", num (float_of_int t.sv_cfg.cf_max_inflight));
        ("requests", num (float_of_int (List.length o.oc_completions)));
        ("throughput_rps", num o.oc_throughput_rps);
        ("slab_bytes", num o.oc_slab_bytes);
        ("naive_bytes", num o.oc_naive_bytes);
      ]
  in
  let placements =
    List.map
      (fun m ->
        Obj
          (( "kind", Str "serve_rt.placement" )
          :: ("model", Str m.mv_name)
          :: List.map
               (fun (d, n) -> (d, num (float_of_int n)))
               m.mv_placement))
      t.sv_models
  in
  let batches =
    List.map
      (fun b ->
        Obj
          [
            ("kind", Str "serve_rt.batch");
            ("id", num (float_of_int b.bt_id));
            ("model", Str b.bt_model);
            ("size", num (float_of_int b.bt_size));
            ("start_s", num b.bt_start_s);
            ("finish_s", num b.bt_finish_s);
          ])
      o.oc_batches
  in
  let requests =
    List.map
      (fun c ->
        Obj
          [
            ("kind", Str "serve_rt.request");
            ("id", num (float_of_int c.rc_id));
            ("tenant", Str c.rc_tenant);
            ("model", Str c.rc_model);
            ("submit_s", num c.rc_submit_s);
            ("latency_s", num c.rc_latency_s);
            ("batch_size", num (float_of_int c.rc_batch_size));
            ("slo_s", num c.rc_slo_s);
            ("slo_ok", num (if c.rc_slo_ok then 1. else 0.));
          ])
      o.oc_completions
  in
  List.map Json.to_string (header :: (placements @ batches @ requests))

let write_lines path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let write_results o path = write_lines path (results_lines o)
let write_journal t o path = write_lines path (journal_lines t o)
