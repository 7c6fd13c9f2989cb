(** Journal analysis: turn a flight-recorder stream ({!Journal.entry}
    list) into a fleet/trial report — per-device utilization and
    straggler detection, fault/retry attribution, per-status,
    per-origin and per-SA-chain breakdowns, and the top-K slowest
    measured trials with their configurations. Pure over the entry
    list, so it works equally on a live journal and on a loaded
    [.jsonl] file ([tvmc report]). *)

type device_stat = {
  ds_dev : int;
  ds_name : string;
  ds_attempts : int;  (** dispatch records (failures included) *)
  ds_ok : int;
  ds_retries : int;  (** dispatches with attempt number > 0 *)
  ds_timeouts : int;
  ds_crashes : int;
  ds_corrupt : int;
  ds_cost_s : float;  (** total simulated seconds charged *)
  ds_ok_cost_s : float;  (** ... of which on successful attempts *)
  ds_queue_s : float;  (** total simulated queue wait *)
  ds_mean_cost_s : float;
  ds_fail_rate : float;
  ds_straggler : bool;
}

type trial_info = {
  ti_uid : int;
  ti_origin : string;
  ti_chain : int;
  ti_status : string;
  ti_time_s : float;
  ti_attempts : int;
  ti_config : string;
}

type chain_stat = {
  cs_chain : int;
  cs_trials : int;
  cs_best_s : float;  (** best measured time, [infinity] if none *)
}

type t = {
  rp_runs : (string * string * int) list;  (** (name, method, trials) *)
  rp_trials : int;  (** measure records *)
  rp_dispatches : int;
  rp_retries : int;
  rp_devices : device_stat list;  (** by device id *)
  rp_status : (string * int) list;  (** final status → trials *)
  rp_origins : (string * int) list;  (** origin → trials proposed *)
  rp_chains : chain_stat list;  (** SA chains only *)
  rp_cache_hits : int;
  rp_cache_misses : int;
  rp_invalid : int;  (** prepare records with [valid = false] *)
  rp_slowest : trial_info list;  (** top-K slowest ok trials, desc *)
  rp_best : trial_info option;  (** fastest ok trial *)
}

(* A straggler is an outlier either in failure rate (vs the fleet
   aggregate) or in the mean cost of its successful attempts (vs the
   median device): a flaky board burns its jobs' budgets on timeouts
   and retries, a slow board takes longer over each job. Each test
   needs [min_attempts] worth of evidence, so a device that ran one
   unlucky job is not flagged: the fail-rate test counts attempts, the
   cost test counts time — [min_attempts] median successful attempts'
   worth — because a slow device runs few attempts precisely because
   it is slow. *)
let min_attempts = 5
let cost_outlier_factor = 1.5
let fail_rate_factor = 2.5
let fail_rate_floor = 0.15

let analyze ?(top = 5) (entries : Journal.entry list) : t =
  let runs = ref [] in
  let proposed : (int, string * int * string) Hashtbl.t = Hashtbl.create 256 in
  let status_tally : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let origin_tally : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let chain_tally : (int, int * float) Hashtbl.t = Hashtbl.create 32 in
  let dev_tbl : (int, device_stat ref) Hashtbl.t = Hashtbl.create 8 in
  let trials = ref 0 and dispatches = ref 0 and retries = ref 0 in
  let cache_hits = ref 0 and cache_misses = ref 0 and invalid = ref 0 in
  let measured : trial_info list ref = ref [] in
  let tally tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun (e : Journal.entry) ->
      match e with
      | Journal.Run { r_name; r_method; r_trials } ->
          runs := (r_name, r_method, r_trials) :: !runs
      | Journal.Propose { p_uid; p_origin; p_chain; p_config; _ } ->
          Hashtbl.replace proposed p_uid (p_origin, p_chain, p_config);
          tally origin_tally p_origin
      | Journal.Prepare { q_cache; q_valid; _ } ->
          (if q_cache = "hit" then incr cache_hits else incr cache_misses);
          if not q_valid then incr invalid
      | Journal.Dispatch
          {
            d_dev;
            d_device;
            d_attempt;
            d_outcome;
            d_cost_s;
            d_queue_s;
            _;
          } ->
          incr dispatches;
          if d_attempt > 0 then incr retries;
          let ds =
            match Hashtbl.find_opt dev_tbl d_dev with
            | Some r -> r
            | None ->
                let r =
                  ref
                    { ds_dev = d_dev; ds_name = d_device; ds_attempts = 0;
                      ds_ok = 0; ds_retries = 0; ds_timeouts = 0;
                      ds_crashes = 0; ds_corrupt = 0; ds_cost_s = 0.;
                      ds_ok_cost_s = 0.; ds_queue_s = 0.; ds_mean_cost_s = 0.;
                      ds_fail_rate = 0.; ds_straggler = false }
                in
                Hashtbl.replace dev_tbl d_dev r;
                r
          in
          let d = !ds in
          ds :=
            { d with
              ds_attempts = d.ds_attempts + 1;
              ds_ok = (d.ds_ok + if d_outcome = "ok" then 1 else 0);
              ds_retries = (d.ds_retries + if d_attempt > 0 then 1 else 0);
              ds_timeouts = (d.ds_timeouts + if d_outcome = "timeout" then 1 else 0);
              ds_crashes = (d.ds_crashes + if d_outcome = "crash" then 1 else 0);
              ds_corrupt = (d.ds_corrupt + if d_outcome = "corrupt" then 1 else 0);
              ds_cost_s = d.ds_cost_s +. d_cost_s;
              ds_ok_cost_s =
                (d.ds_ok_cost_s +. if d_outcome = "ok" then d_cost_s else 0.);
              ds_queue_s = d.ds_queue_s +. d_queue_s }
      | Journal.Measure { m_uid; m_status; m_time_s; m_attempts } ->
          incr trials;
          tally status_tally m_status;
          let origin, chain, config =
            Option.value ~default:("?", -1, "?")
              (Hashtbl.find_opt proposed m_uid)
          in
          let time = Option.value ~default:Float.nan m_time_s in
          if chain >= 0 then begin
            let n, best =
              Option.value ~default:(0, Float.infinity)
                (Hashtbl.find_opt chain_tally chain)
            in
            let best =
              match m_time_s with Some t -> Float.min best t | None -> best
            in
            Hashtbl.replace chain_tally chain (n + 1, best)
          end;
          if m_status = "ok" then
            measured :=
              { ti_uid = m_uid; ti_origin = origin; ti_chain = chain;
                ti_status = m_status; ti_time_s = time;
                ti_attempts = m_attempts; ti_config = config }
              :: !measured)
    entries;
  let devices =
    Hashtbl.fold (fun _ r acc -> !r :: acc) dev_tbl []
    |> List.map (fun d ->
           { d with
             ds_mean_cost_s =
               (if d.ds_attempts = 0 then 0.
                else d.ds_cost_s /. float_of_int d.ds_attempts);
             ds_fail_rate =
               (if d.ds_attempts = 0 then 0.
                else
                  float_of_int (d.ds_attempts - d.ds_ok)
                  /. float_of_int d.ds_attempts) })
    |> List.sort (fun a b -> compare a.ds_dev b.ds_dev)
  in
  let active = List.filter (fun d -> d.ds_attempts > 0) devices in
  let ok_cost d = d.ds_ok_cost_s /. float_of_int d.ds_ok in
  let median_ok_cost =
    Metrics.median
      (List.filter_map
         (fun d -> if d.ds_ok > 0 then Some (ok_cost d) else None)
         active)
  in
  let fleet_attempts =
    List.fold_left (fun acc d -> acc + d.ds_attempts) 0 active
  in
  let fleet_fails =
    List.fold_left (fun acc d -> acc + (d.ds_attempts - d.ds_ok)) 0 active
  in
  let fleet_fail_rate =
    if fleet_attempts = 0 then 0.
    else float_of_int fleet_fails /. float_of_int fleet_attempts
  in
  let devices =
    List.map
      (fun d ->
        let cost_outlier =
          d.ds_ok > 0 && median_ok_cost > 0.
          && ok_cost d > cost_outlier_factor *. median_ok_cost
          && d.ds_ok_cost_s >= float_of_int min_attempts *. median_ok_cost
        in
        let fail_outlier =
          d.ds_attempts >= min_attempts
          && d.ds_fail_rate
             > Float.max fail_rate_floor (fail_rate_factor *. fleet_fail_rate)
        in
        { d with ds_straggler = cost_outlier || fail_outlier })
      devices
  in
  let measured =
    List.stable_sort (fun a b -> compare b.ti_time_s a.ti_time_s) !measured
  in
  let slowest = List.filteri (fun i _ -> i < top) measured in
  let best =
    match List.rev measured with [] -> None | fastest :: _ -> Some fastest
  in
  let sorted_tally tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  {
    rp_runs = List.rev !runs;
    rp_trials = !trials;
    rp_dispatches = !dispatches;
    rp_retries = !retries;
    rp_devices = devices;
    rp_status = sorted_tally status_tally;
    rp_origins = sorted_tally origin_tally;
    rp_chains =
      Hashtbl.fold
        (fun c (n, b) acc -> { cs_chain = c; cs_trials = n; cs_best_s = b } :: acc)
        chain_tally []
      |> List.sort (fun a b -> compare a.cs_chain b.cs_chain);
    rp_cache_hits = !cache_hits;
    rp_cache_misses = !cache_misses;
    rp_invalid = !invalid;
    rp_slowest = slowest;
    rp_best = best;
  }

let stragglers t = List.filter (fun d -> d.ds_straggler) t.rp_devices

let render (t : t) : string =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "flight recorder report\n";
  p "======================\n\n";
  List.iter
    (fun (name, method_, trials) ->
      p "run: %s (%s, %d trials)\n" name method_ trials)
    t.rp_runs;
  p "\ntrials: %d measured, %d dispatches (%d retries)\n" t.rp_trials
    t.rp_dispatches t.rp_retries;
  p "prepare: %d cache hits, %d misses, %d invalid configs\n" t.rp_cache_hits
    t.rp_cache_misses t.rp_invalid;
  if t.rp_status <> [] then begin
    p "\nby status:\n";
    List.iter (fun (s, n) -> p "  %-16s %6d\n" s n) t.rp_status
  end;
  if t.rp_origins <> [] then begin
    p "\nby origin:\n";
    List.iter (fun (s, n) -> p "  %-16s %6d\n" s n) t.rp_origins
  end;
  if t.rp_chains <> [] then begin
    p "\nby SA chain:\n";
    List.iter
      (fun c ->
        p "  chain %-3d %5d trials  best %s\n" c.cs_chain c.cs_trials
          (if Float.is_finite c.cs_best_s then
             Printf.sprintf "%.6f ms" (1e3 *. c.cs_best_s)
           else "-"))
      t.rp_chains
  end;
  if t.rp_devices <> [] then begin
    p "\ndevices:\n";
    p "  %-4s %-12s %8s %6s %8s %9s %8s %8s %11s %10s %s\n" "dev" "kind"
      "attempts" "ok" "retries" "timeouts" "crashes" "corrupt" "mean_cost_s"
      "fail_rate" "";
    List.iter
      (fun d ->
        p "  %-4d %-12s %8d %6d %8d %9d %8d %8d %11.4f %10.3f %s\n" d.ds_dev
          d.ds_name d.ds_attempts d.ds_ok d.ds_retries d.ds_timeouts
          d.ds_crashes d.ds_corrupt d.ds_mean_cost_s d.ds_fail_rate
          (if d.ds_straggler then "<- STRAGGLER" else ""))
      t.rp_devices;
    match stragglers t with
    | [] -> p "  no stragglers detected\n"
    | ss ->
        List.iter
          (fun d ->
            p
              "  straggler dev %d (%s): mean attempt cost %.4f s, fail rate \
               %.0f%%, %d timeouts / %d crashes / %d corrupt\n"
              d.ds_dev d.ds_name d.ds_mean_cost_s (100. *. d.ds_fail_rate)
              d.ds_timeouts d.ds_crashes d.ds_corrupt)
          ss
  end;
  (match t.rp_best with
  | Some b ->
      p "\nbest trial: #%d %.6f ms (%s) %s\n" b.ti_uid (1e3 *. b.ti_time_s)
        b.ti_origin b.ti_config
  | None -> ());
  if t.rp_slowest <> [] then begin
    p "\nslowest measured trials:\n";
    List.iter
      (fun ti ->
        p "  #%-5d %12.6f ms  %-8s chain %-3d attempts %d  %s\n" ti.ti_uid
          (1e3 *. ti.ti_time_s) ti.ti_origin ti.ti_chain ti.ti_attempts
          ti.ti_config)
      t.rp_slowest
  end;
  Buffer.contents buf

(** Request-latency digest over a serving journal (the [serve_rt.*]
    JSONL written by the model server) — the serving counterpart of
    {!analyze}: per-model latency percentiles, the batch-size
    histogram, and each model's device placement tally. Pure over the
    parsed lines, like {!analyze} over journal entries. *)
module Serving = struct
  type model_stat = {
    sm_model : string;
    sm_requests : int;
    sm_mean_s : float;
    sm_p50_s : float;
    sm_p90_s : float;
    sm_p99_s : float;
    sm_slo_misses : int;
  }

  type t = {
    sv_requests : int;
    sv_throughput_rps : float;
    sv_max_batch : int;
    sv_slab_bytes : float;
    sv_naive_bytes : float;
    sv_models : model_stat list;  (** by model name *)
    sv_batch_hist : (int * int) list;  (** batch size → batches *)
    sv_placements : (string * (string * int) list) list;
        (** model → device → groups *)
  }

  (** True when the first JSONL line of a file carries a [serve_rt.*]
      kind — how [tvmc report] picks this digest over the fleet one. *)
  let is_serving_line line =
    match Json.member "kind" (Json.parse line) with
    | Some (Json.Str k) ->
        String.length k >= 9 && String.sub k 0 9 = "serve_rt."
    | _ -> false
    | exception _ -> false

  let num ?(default = Float.nan) key obj =
    match Option.bind (Json.member key obj) Json.to_num_opt with
    | Some v -> v
    | None -> default

  let str ?(default = "?") key obj =
    match Option.bind (Json.member key obj) Json.to_string_opt with
    | Some s -> s
    | None -> default

  let analyze (lines : Json.t list) : t =
    let requests = ref 0 and throughput = ref 0. and max_batch = ref 0 in
    let slab = ref Float.nan and naive = ref Float.nan in
    let by_model : (string, float list ref * int ref) Hashtbl.t =
      Hashtbl.create 8
    in
    let batch_hist : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let placements = ref [] in
    List.iter
      (fun obj ->
        match Json.member "kind" obj with
        | Some (Json.Str "serve_rt.run") ->
            requests := int_of_float (num "requests" obj ~default:0.);
            throughput := num "throughput_rps" obj ~default:0.;
            max_batch := int_of_float (num "max_batch" obj ~default:0.);
            slab := num "slab_bytes" obj;
            naive := num "naive_bytes" obj
        | Some (Json.Str "serve_rt.placement") ->
            let model = str "model" obj in
            let tally =
              List.filter_map
                (fun d ->
                  Option.bind (Json.member d obj) Json.to_num_opt
                  |> Option.map (fun n -> (d, int_of_float n)))
                [ "cpu"; "gpu"; "vdla" ]
            in
            placements := (model, tally) :: !placements
        | Some (Json.Str "serve_rt.batch") ->
            let size = int_of_float (num "size" obj ~default:0.) in
            Hashtbl.replace batch_hist size
              (1 + Option.value ~default:0 (Hashtbl.find_opt batch_hist size))
        | Some (Json.Str "serve_rt.request") ->
            let model = str "model" obj in
            let lat = num "latency_s" obj in
            let ok = num "slo_ok" obj ~default:1. in
            let lats, misses =
              match Hashtbl.find_opt by_model model with
              | Some e -> e
              | None ->
                  let e = (ref [], ref 0) in
                  Hashtbl.replace by_model model e;
                  e
            in
            lats := lat :: !lats;
            if ok = 0. then incr misses
        | _ -> ())
      lines;
    let models =
      Hashtbl.fold
        (fun model (lats, misses) acc ->
          let a = Array.of_list !lats in
          Array.sort compare a;
          let n = Array.length a in
          {
            sm_model = model;
            sm_requests = n;
            sm_mean_s =
              (if n = 0 then Float.nan
               else Array.fold_left ( +. ) 0. a /. float_of_int n);
            (* exact, so the digest matches the server's own report *)
            sm_p50_s = Metrics.exact_percentile a 50.;
            sm_p90_s = Metrics.exact_percentile a 90.;
            sm_p99_s = Metrics.exact_percentile a 99.;
            sm_slo_misses = !misses;
          }
          :: acc)
        by_model []
      |> List.sort (fun a b -> compare a.sm_model b.sm_model)
    in
    {
      sv_requests = !requests;
      sv_throughput_rps = !throughput;
      sv_max_batch = !max_batch;
      sv_slab_bytes = !slab;
      sv_naive_bytes = !naive;
      sv_models = models;
      sv_batch_hist =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) batch_hist []
        |> List.sort compare;
      sv_placements = List.sort compare !placements;
    }

  let render (t : t) : string =
    let buf = Buffer.create 2048 in
    let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    p "serving report\n";
    p "==============\n\n";
    p "requests: %d  throughput: %.1f req/s  max batch: %d\n" t.sv_requests
      t.sv_throughput_rps t.sv_max_batch;
    if Float.is_finite t.sv_slab_bytes && Float.is_finite t.sv_naive_bytes
    then
      p "slab arena: %.2f MB vs %.2f MB naive (%.0f%% saved)\n"
        (t.sv_slab_bytes /. 1e6) (t.sv_naive_bytes /. 1e6)
        (100. *. (1. -. (t.sv_slab_bytes /. Float.max 1. t.sv_naive_bytes)));
    if t.sv_models <> [] then begin
      p "\nper-model latency:\n";
      p "  %-12s %8s %10s %10s %10s %10s %10s\n" "model" "requests" "mean_ms"
        "p50_ms" "p90_ms" "p99_ms" "slo_miss";
      List.iter
        (fun m ->
          p "  %-12s %8d %10.3f %10.3f %10.3f %10.3f %10d\n" m.sm_model
            m.sm_requests (1e3 *. m.sm_mean_s) (1e3 *. m.sm_p50_s)
            (1e3 *. m.sm_p90_s) (1e3 *. m.sm_p99_s) m.sm_slo_misses)
        t.sv_models
    end;
    if t.sv_batch_hist <> [] then begin
      p "\nbatch sizes:\n";
      let total = List.fold_left (fun a (_, n) -> a + n) 0 t.sv_batch_hist in
      List.iter
        (fun (size, n) ->
          p "  %2d: %5d batches %5.1f%%  %s\n" size n
            (100. *. float_of_int n /. float_of_int (max 1 total))
            (String.make (min 60 (60 * n / max 1 total)) '#'))
        t.sv_batch_hist
    end;
    if t.sv_placements <> [] then begin
      p "\nplacement (groups per device):\n";
      List.iter
        (fun (model, tally) ->
          p "  %-12s %s\n" model
            (String.concat "  "
               (List.map (fun (d, n) -> Printf.sprintf "%s=%d" d n) tally)))
        t.sv_placements
    end;
    Buffer.contents buf
end
