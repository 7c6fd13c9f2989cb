(* Shared harness: the clocks, statistics, timing of wrapped and
   replayed layer calls, the metric catalog and the result line. *)

module Json = Tvm_obs.Json

(* Wall clock: host time, for report lines and layer replays. *)
let now () = Unix.gettimeofday ()

(* Process CPU clock: seconds of CPU time used so far by every domain
   of the process, finished ones included. Time the host gives to other
   processes is not charged to it. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Host-speed calibration. On a shared host a CPU second is not a fixed
   amount of work: a neighbour on the same physical core slows every
   instruction, by up to 40% for seconds to minutes at a time. A fixed
   kernel of map inserts and hash-table updates, the allocating,
   pointer-chasing kind of work the workloads do, is timed around every
   unit of work; the unit's CPU time is scaled by [cal_ref_s] over the
   kernel's time, i.e. expressed at the speed at which the kernel takes
   [cal_ref_s] seconds of CPU (an uncontended core of a 2 GHz Xeon). *)
module Int_map = Map.Make (Int)

let cal_ref_s = 0.002

let cal_kernel () =
  let m = ref Int_map.empty in
  for i = 0 to 6_000 do
    m := Int_map.add ((i * 7919) land 0xfffff) (float_of_int i) !m
  done;
  let h = Hashtbl.create 1024 in
  Int_map.iter
    (fun k v ->
      let k = k land 4095 in
      Hashtbl.replace h k (v +. Option.value ~default:0. (Hashtbl.find_opt h k)))
    !m;
  Hashtbl.length h

(* CPU seconds of the kernel per domain, run on [domains] domains at
   once so that every core the unit of work uses is sampled. *)
let calibrate ~domains =
  let c0 = cpu_now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn cal_kernel) in
  ignore (Sys.opaque_identity (cal_kernel ()));
  List.iter (fun d -> ignore (Domain.join d)) others;
  (cpu_now () -. c0) /. float_of_int domains

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> Float.nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean = function
  | [] -> Float.nan
  | l ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. l
        /. float_of_int (List.length l))

let ratio a b = if b = 0. then 0. else a /. b

(* Words allocated so far by every domain, the current minor heap
   included. *)
let allocated_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The cost of one unit of work: CPU and wall time, the calibration
   kernel's CPU time around it (the mean of one run before and one
   after), and the words it allocated. Allocation is the steady
   companion of the times on a shared host: it repeats exactly for the
   same work. Each unit starts from a collected heap. *)
type cost = { cpu_s : float; wall_s : float; cal_s : float; words : float }

let timed_unit ?(domains = 1) f =
  Gc.full_major ();
  let cal0 = calibrate ~domains in
  let w0 = allocated_words () in
  let c0 = cpu_now () and t0 = now () in
  let r = f () in
  let wall_s = now () -. t0 and cpu_s = cpu_now () -. c0 in
  let words = allocated_words () -. w0 in
  let cal1 = calibrate ~domains in
  (r, { cpu_s; wall_s; words; cal_s = (cal0 +. cal1) /. 2. })

(* CPU seconds at the reference speed. *)
let calibrated c = c.cpu_s *. cal_ref_s /. c.cal_s

(* Every timed unit of work is repeated identically within a run.
   [median_units seconds passes]: per unit (the i-th element of every
   pass), the median of its times over the passes. *)
let median_units seconds passes =
  match passes with
  | [] -> []
  | p0 :: _ -> List.mapi (fun i _ -> median (List.map (fun p -> seconds (List.nth p i)) passes)) p0

let sum l = List.fold_left ( +. ) 0. l

(* Seconds per call of [f] replayed over [items], repeated until
   [min_s] of wall time has passed so that sub-millisecond calls are
   timed in bulk. *)
let per_call ?(min_s = 0.2) items f =
  let n = Array.length items in
  if n = 0 then Float.nan
  else begin
    let calls = ref 0 in
    let t0 = now () in
    while !calls = 0 || now () -. t0 < min_s do
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
      calls := !calls + n
    done;
    (now () -. t0) /. float_of_int !calls
  end

(* Minor-heap words allocated per call of [f] over [items] (one pass;
   [Gc.minor_words] counts the calling domain only). *)
let minor_words_per_call items f =
  let n = Array.length items in
  if n = 0 then Float.nan
  else begin
    let w0 = Gc.minor_words () in
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
    (Gc.minor_words () -. w0) /. float_of_int n
  end

(* Accumulator for a wrapped layer: calls, failed calls, busy seconds
   and minor words, updated from whichever domain makes the call. *)
type acc = {
  lock : Mutex.t;
  mutable calls : int;
  mutable fails : int;
  mutable busy_s : float;
  mutable words : float;
}

let acc () = { lock = Mutex.create (); calls = 0; fails = 0; busy_s = 0.; words = 0. }

(* [wrap a f x] calls [f x], charging its time and allocation to [a];
   an exception counts as a failed call and is re-raised. *)
let wrap a f x =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let charge ok =
    let dt = now () -. t0 and dw = Gc.minor_words () -. w0 in
    Mutex.protect a.lock (fun () ->
        a.calls <- a.calls + 1;
        if not ok then a.fails <- a.fails + 1;
        a.busy_s <- a.busy_s +. dt;
        a.words <- a.words +. dw)
  in
  match f x with
  | r ->
      charge true;
      r
  | exception e ->
      charge false;
      raise e

(* The program's own counters ([Tvm_obs.Metrics]), read as deltas
   around a region. *)
let counter name = Option.value ~default:0. (Tvm_obs.Metrics.get name)

let counter_delta names f =
  let before = List.map (fun n -> (n, counter n)) names in
  let r = f () in
  (r, List.map (fun (n, b) -> (n, counter n -. b)) before)

(* ---- Outcome: recorded metrics, output checks, determinism ---- *)

let recorded : (string * float) list ref = ref []

let record name v = recorded := (name, v) :: List.remove_assoc name !recorded

(* The calibration kernel's median time over a run's units: how fast
   the host was. *)
let record_cal costs = record "host.cal_ms" (1e3 *. median (List.map (fun c -> c.cal_s) costs))

let attempted = ref 0
let failed = ref 0
let deterministic = ref true

(* [n] checked operations of which [bad] failed. *)
let check_count what ~n ~bad =
  attempted := !attempted + n;
  if bad > 0 then begin
    failed := !failed + bad;
    Printf.printf "check FAILED: %s (%d of %d)\n%!" what bad n
  end

let check what ok = check_count what ~n:1 ~bad:(if ok then 0 else 1)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Run [pass k] for k = 0, 1, ... until [seconds] of wall time have
   gone by, at least [min_passes] times. [peak_heap_mb] is read after
   the first pass: the heap keeps growing with the number of passes
   that fit in a run. *)
let repeat_for ?(min_passes = 1) ~seconds pass =
  let t0 = now () in
  let rec go k acc =
    if k >= min_passes && now () -. t0 >= seconds then List.rev acc
    else begin
      let r = pass k in
      if k = 0 then record "peak_heap_mb" (peak_heap_mb ());
      go (k + 1) (r :: acc)
    end
  in
  go 0 []

let same_virtual_output what a b =
  if a <> b then begin
    deterministic := false;
    Printf.printf "determinism FAILED: %s differs between runs\n%!" what
  end


(* ---- Catalog ---- *)

(* BENCHMARK.json names the metrics of the result line and their
   units: its end-to-end metrics with --trace 0, its per-layer ones
   with --trace 1. perfbench/catalog.json describes every metric the
   benchmark prints: clock, the layer it measures, the metric it should
   move and the workloads that exercise it, and the unit of the
   metrics that are printed as report lines only. *)
type entry = {
  unit_ : string;
  clock : string;
  section : string;  (* "end_to_end" | "per_layer" | "report" *)
  workloads : string list;
}

let load_catalog () =
  let read path = Json.parse (In_channel.with_open_text path In_channel.input_all) in
  let str k o = Option.value ~default:"" (Option.bind (Json.member k o) Json.to_string_opt) in
  let list k o =
    Option.value ~default:[] (Option.bind (Json.member k o) Json.to_list_opt)
  in
  let bench = read "BENCHMARK.json" in
  let declared =
    List.concat_map
      (fun section -> List.map (fun m -> (str "name" m, (section, str "unit" m))) (list section bench))
      [ "end_to_end"; "per_layer" ]
  in
  let catalog =
    match Json.member "metrics" (read "perfbench/catalog.json") with
    | Some (Json.Obj kvs) ->
        List.map
          (fun (name, o) ->
            let section, unit_ =
              Option.value ~default:("report", str "unit" o) (List.assoc_opt name declared)
            in
            ( name,
              {
                unit_;
                clock = str "clock" o;
                section;
                workloads = List.filter_map Json.to_string_opt (list "workloads" o);
              } ))
          kvs
    | _ -> failwith "perfbench/catalog.json: no \"metrics\" object"
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalog) then
        failwith ("metric not described in perfbench/catalog.json: " ^ name))
    declared;
  catalog

(* Print every recorded metric with its unit and clock, then the
   result line: the end-to-end metrics without tracing, the per-layer
   metrics with it. A per-layer metric of a layer this workload
   bypasses reads 0. Returns whether the run was correct. *)
let finish ~catalog ~workload ~trace =
  let section = if trace then "per_layer" else "end_to_end" in
  List.iter
    (fun (name, e) ->
      if e.section = section
         && (not (List.mem workload e.workloads))
         && not (List.mem_assoc name !recorded)
      then record name 0.)
    catalog;
  let entry name =
    match List.assoc_opt name catalog with
    | Some e -> e
    | None -> failwith ("metric not described in perfbench/catalog.json: " ^ name)
  in
  List.iter
    (fun (name, v) ->
      let e = entry name in
      Printf.printf "metric %-36s %16.6f %-7s %s\n" name v e.unit_ e.clock)
    (List.rev !recorded);
  let correct = !failed = 0 && !deterministic in
  let metrics =
    List.filter_map
      (fun (name, e) ->
        if e.section <> section then None
        else
          match List.assoc_opt name !recorded with
          | Some v when Float.is_finite v ->
              Some
                (Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.escape name)
                   (Json.num_string v) (Json.escape e.unit_))
          | Some _ -> failwith ("metric is not finite: " ^ name)
          | None -> failwith ("metric not measured: " ^ name))
      catalog
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed (String.concat ", " metrics);
  correct
