(** Metrics: named counters, gauges and log-scale histograms in a
    process-global registry.

    Counters accumulate ([tuner.trials], [pool.jobs]); gauges hold the
    latest value ([tuner.best_time_s], [fusion.groups]); histograms
    bucket observations on a log scale spanning nanoseconds to ~10^6
    so both per-trial kernel times and end-to-end compile times land
    in-range, and report approximate percentiles. All operations are
    O(1), mutex-protected, and always on — the cost is one hash lookup
    plus a float store, negligible next to any measured work. *)

(* Log-scale histogram: [buckets_per_decade] buckets per power of ten
   from [lo] upward. Bucket boundaries are exact powers of 10^(1/bpd);
   percentile estimates interpolate linearly inside the winning bucket
   between its bounds (clipped to the observed min/max), positioned by
   the rank's fraction of the bucket's count — so a tight distribution
   that lands entirely in one bucket still reports p50 < p90 < p99
   instead of collapsing every percentile to the bucket midpoint. *)
let lo = 1e-9
let decades = 16
let buckets_per_decade = 8
let n_buckets = decades * buckets_per_decade

type histogram = {
  h_counts : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

let hist_create () =
  {
    h_counts = Array.make n_buckets 0;
    h_count = 0;
    h_sum = 0.;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
  }

let bucket_index v =
  if v <= lo then 0
  else
    let i =
      int_of_float (Float.of_int buckets_per_decade *. Float.log10 (v /. lo))
    in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

let bucket_lo i = lo *. Float.pow 10. (Float.of_int i /. Float.of_int buckets_per_decade)
let bucket_hi i = bucket_lo (i + 1)

let hist_observe h v =
  if Float.is_finite v then begin
    h.h_counts.(bucket_index v) <- h.h_counts.(bucket_index v) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end

(** [p] in [0, 100]. *)
let hist_percentile h p =
  if h.h_count = 0 then Float.nan
  else begin
    let rank = Float.of_int h.h_count *. (Float.max 0. (Float.min 100. p) /. 100.) in
    let acc = ref 0 and result = ref h.h_max in
    (try
       for i = 0 to n_buckets - 1 do
         let before = !acc in
         acc := !acc + h.h_counts.(i);
         if Float.of_int !acc >= rank && h.h_counts.(i) > 0 then begin
           (* Interpolate within the winning bucket: position the rank
              inside the bucket's own count and map that fraction onto
              the bucket's bounds, clipped to the observed min/max. *)
           let frac =
             (rank -. Float.of_int before) /. Float.of_int h.h_counts.(i)
           in
           let frac = Float.max 0. (Float.min 1. frac) in
           let vlo = Float.max (bucket_lo i) h.h_min in
           let vhi = Float.max vlo (Float.min (bucket_hi i) h.h_max) in
           result := vlo +. (frac *. (vhi -. vlo));
           raise Exit
         end
       done
     with Exit -> ());
    Float.max h.h_min (Float.min h.h_max !result)
  end

let hist_mean h = if h.h_count = 0 then Float.nan else h.h_sum /. Float.of_int h.h_count

(** Exact nearest-rank percentile of an ascending [sorted] array, [p]
    in [0, 100]; nan when empty. For reports that must be bit-stable,
    where a histogram estimate will not do. *)
let exact_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(** Upper median of an unsorted list; nan when empty. *)
let median = function
  | [] -> Float.nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      a.(Array.length a / 2)

type metric =
  | Counter of float ref
  | Gauge of float ref
  | Hist of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let reset () = Mutex.protect lock (fun () -> Hashtbl.reset registry)

let kind_mismatch name = invalid_arg ("metrics: " ^ name ^ " registered with another kind")

(* Per-domain counter buffer: inside [with_local_counters] (installed by
   Tvm_par's workers) counter increments accumulate in a domain-local
   table and merge into the global registry in one locked pass at the
   end. Counters are commutative sums, so the merged totals are
   independent of domain scheduling; gauges and histograms are rare on
   worker domains and go straight through the mutex. *)
let local_counters : (string, float) Hashtbl.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let incr_locked name by =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> c := !c +. by
      | Some _ -> kind_mismatch name
      | None -> Hashtbl.replace registry name (Counter (ref by)))

let incr ?(by = 1.) name =
  match Domain.DLS.get local_counters with
  | Some tbl ->
      Hashtbl.replace tbl name
        (by +. Option.value ~default:0. (Hashtbl.find_opt tbl name))
  | None -> incr_locked name by

(** Buffer this domain's counter increments locally for the duration of
    [f], merging them into the global registry afterwards (one lock
    acquisition instead of one per [incr]). Totals are unaffected:
    counter merge is a commutative sum. *)
let with_local_counters f =
  match Domain.DLS.get local_counters with
  | Some _ -> f ()  (* already buffering *)
  | None ->
      let tbl = Hashtbl.create 16 in
      Domain.DLS.set local_counters (Some tbl);
      Fun.protect
        ~finally:(fun () ->
          Domain.DLS.set local_counters None;
          Hashtbl.iter (fun name by -> incr_locked name by) tbl)
        f

let set_gauge name v =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Gauge g) -> g := v
      | Some _ -> kind_mismatch name
      | None -> Hashtbl.replace registry name (Gauge (ref v)))

let observe name v =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Hist h) -> hist_observe h v
      | Some _ -> kind_mismatch name
      | None ->
          let h = hist_create () in
          hist_observe h v;
          Hashtbl.replace registry name (Hist h))

(** Counter/gauge value, or a histogram's observation count. *)
let get name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> Some !c
      | Some (Gauge g) -> Some !g
      | Some (Hist h) -> Some (Float.of_int h.h_count)
      | None -> None)

let percentile name p =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Hist h) -> Some (hist_percentile h p)
      | _ -> None)

let names () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) registry [] |> List.sort compare)

let sorted_bindings () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

let dump_text () =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%-32s counter %14.0f\n" name !c)
      | Gauge g -> Buffer.add_string buf (Printf.sprintf "%-32s gauge   %14.6g\n" name !g)
      | Hist h ->
          Buffer.add_string buf
            (Printf.sprintf
               "%-32s hist    n=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g min=%.3g max=%.3g\n"
               name h.h_count (hist_mean h) (hist_percentile h 50.)
               (hist_percentile h 90.) (hist_percentile h 99.) h.h_min h.h_max))
    (sorted_bindings ());
  Buffer.contents buf

let to_json () =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> counters := (name, Json.Num !c) :: !counters
      | Gauge g -> gauges := (name, Json.Num !g) :: !gauges
      | Hist h ->
          hists :=
            ( name,
              Json.Obj
                [
                  ("count", Json.Num (Float.of_int h.h_count));
                  ("sum", Json.Num h.h_sum);
                  ("mean", Json.Num (hist_mean h));
                  ("min", Json.Num h.h_min);
                  ("max", Json.Num h.h_max);
                  ("p50", Json.Num (hist_percentile h 50.));
                  ("p90", Json.Num (hist_percentile h 90.));
                  ("p99", Json.Num (hist_percentile h 99.));
                ] )
            :: !hists)
    (sorted_bindings ());
  Json.Obj
    [
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !hists));
    ]

let write_json path = Json.write_file path (to_json ())
