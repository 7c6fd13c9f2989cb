(* See scheduler.mli. *)

module Retry_policy = Tvm_rpc.Retry_policy
module Event_queue = Tvm_rpc.Event_queue

type tenant = {
  tn_name : string;
  tn_weight : float;
  tn_quota : int option;
}

let tenant ?(weight = 1.) ?quota name =
  { tn_name = name; tn_weight = weight; tn_quota = quota }

type 'a job = {
  jb_id : int;
  jb_tenant : string;
  jb_priority : int;
  jb_submit_s : float;
  jb_payload : 'a;
}

type 'a completion = {
  cp_job : 'a job;
  cp_slot : int;
  cp_attempts : int;
  cp_start_s : float;
  cp_service_s : float;
  cp_finish_s : float;
  cp_queue_wait_s : float;
  cp_error : string option;
}

(* Per-tenant accounting while a trace runs. Arrived jobs wait in
   [ts_ready] keyed (-priority, id) — unique, because ids are — so its
   head is the tenant's next job in dispatch order. *)
type 'a tenant_state = {
  ts_cfg : tenant;
  mutable ts_vwork : float;  (** accumulated service / weight *)
  mutable ts_inflight : int;  (** dispatched, finish still ahead *)
  ts_ready : 'a job Event_queue.t;
}

(* One job's attempt loop: service and backoff both charge the virtual
   clock, mirroring what the device pool does for measurements. An
   attempt whose service exceeds the per-job budget is a timeout (its
   charge is capped at the budget — the job would have been cut off). *)
(* Virtual-clock cost of an attempt that died before reporting one (a
   crash has no intrinsic duration; a timeout charges the budget). *)
let crash_cost_s = 1.0

let attempt_loop ~(retry : Retry_policy.t) ~execute job =
  let budget = retry.Retry_policy.timeout_s in
  let rec go attempt charged =
    let outcome =
      try execute job ~attempt with e -> Error (Printexc.to_string e)
    in
    let outcome, cost =
      match outcome with
      | Ok s when s > budget ->
          ( Error (Printf.sprintf "timeout after %gs (budget %gs)" s budget),
            budget )
      | Ok s -> (Ok s, s)
      | Error e -> (Error e, Float.min budget crash_cost_s)
    in
    let charged = charged +. cost in
    match outcome with
    | Ok _ -> (attempt + 1, charged, None)
    | Error e ->
        if attempt < retry.Retry_policy.max_retries then
          go (attempt + 1) (charged +. Retry_policy.backoff_s retry ~attempt)
        else (attempt + 1, charged, Some e)
  in
  go 0 0.

let run ?(slots = 1) ?(retry = Retry_policy.default) ~(tenants : tenant list)
    ~execute (jobs : 'a job list) : 'a completion list =
  let slots = max 1 slots in
  let by_name : (string, 'a tenant_state) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun tn ->
      if tn.tn_weight <= 0. then
        invalid_arg ("scheduler: non-positive weight for tenant " ^ tn.tn_name);
      Hashtbl.replace by_name tn.tn_name
        {
          ts_cfg = tn;
          ts_vwork = 0.;
          ts_inflight = 0;
          ts_ready = Event_queue.create ();
        })
    tenants;
  let state_of j =
    match Hashtbl.find_opt by_name j.jb_tenant with
    | Some s -> s
    | None -> invalid_arg ("scheduler: unknown tenant " ^ j.jb_tenant)
  in
  List.iter (fun j -> ignore (state_of j)) jobs;
  (* Deterministic tenant iteration order for the fair-share argmin. *)
  let states =
    Hashtbl.fold (fun _ ts acc -> ts :: acc) by_name []
    |> List.sort (fun a b -> compare a.ts_cfg.tn_name b.ts_cfg.tn_name)
    |> Array.of_list
  in
  (* Jobs not yet arrived, in (submit, id) order. *)
  let arrivals =
    ref
      (List.sort
         (fun a b -> compare (a.jb_submit_s, a.jb_id) (b.jb_submit_s, b.jb_id))
         jobs)
  in
  (* Dispatched jobs' tenants keyed by finish time. Entries leave once
     the virtual clock reaches them, so a long stream's state stays
     bounded by true in-flight work. *)
  let inflight = Event_queue.create () in
  let pending = ref (List.length jobs) in
  let slot_free = Array.make slots 0. in
  let completions = ref [] in
  let running_peak = ref 0 in
  let rec arrive ~now =
    match !arrivals with
    | j :: rest when j.jb_submit_s <= now ->
        arrivals := rest;
        Event_queue.push (state_of j).ts_ready ~seq:j.jb_id
          ~at:(float_of_int (-j.jb_priority)) j;
        arrive ~now
    | _ -> ()
  in
  let under_quota ts =
    match ts.ts_cfg.tn_quota with None -> true | Some q -> ts.ts_inflight < q
  in
  while !pending > 0 do
    (* Earliest free slot (lowest index on ties — deterministic). *)
    let slot = ref 0 in
    Array.iteri (fun i f -> if f < slot_free.(!slot) then slot := i) slot_free;
    let now = slot_free.(!slot) in
    arrive ~now;
    (* [now] never decreases (slot free times only grow), so a
       finished entry never matters again. *)
    while Event_queue.top_time inflight <= now do
      let ts = Option.get (Event_queue.pop inflight) in
      ts.ts_inflight <- ts.ts_inflight - 1
    done;
    (* Weighted fair share: the eligible tenant (ready job, quota
       headroom) with the least accumulated virtual work per unit
       weight goes next. *)
    let best = ref None in
    Array.iter
      (fun ts ->
        if (not (Event_queue.is_empty ts.ts_ready)) && under_quota ts then
          match !best with
          | None -> best := Some ts
          | Some b ->
              let kb = b.ts_vwork /. b.ts_cfg.tn_weight
              and ks = ts.ts_vwork /. ts.ts_cfg.tn_weight in
              if ks < kb || (ks = kb && ts.ts_cfg.tn_name < b.ts_cfg.tn_name)
              then best := Some ts)
      states;
    match !best with
    | None ->
        (* Nothing runnable yet: park this slot at the next event —
           an arrival, or a finish releasing its tenant's quota. Both
           lie after [now]. *)
        let t =
          Float.min
            (match !arrivals with j :: _ -> j.jb_submit_s | [] -> infinity)
            (Event_queue.top_time inflight)
        in
        if t = Float.infinity then
          (* Only possible if every pending job is quota-blocked with
             nothing running — a configuration error (quota 0). *)
          invalid_arg "scheduler: stalled (tenant quota 0?)"
        else slot_free.(!slot) <- t
    | Some ts ->
        (* Within the tenant: priority, then FIFO by id. *)
        let job = Option.get (Event_queue.pop ts.ts_ready) in
        decr pending;
        let attempts, service, error = attempt_loop ~retry ~execute job in
        let finish = now +. service in
        slot_free.(!slot) <- finish;
        ts.ts_vwork <- ts.ts_vwork +. (service /. ts.ts_cfg.tn_weight);
        ts.ts_inflight <- ts.ts_inflight + 1;
        Event_queue.push inflight ~at:finish ts;
        running_peak := max !running_peak (Event_queue.length inflight);
        completions :=
          {
            cp_job = job;
            cp_slot = !slot;
            cp_attempts = attempts;
            cp_start_s = now;
            cp_service_s = service;
            cp_finish_s = finish;
            cp_queue_wait_s = now -. job.jb_submit_s;
            cp_error = error;
          }
          :: !completions
  done;
  Tvm_obs.Metrics.set_gauge "sched.running_peak" (float_of_int !running_peak);
  List.rev !completions
