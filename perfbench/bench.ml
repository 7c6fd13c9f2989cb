(* The repository benchmark.

     bench.exe --workload tune_ops|compile_nets|serve_mix --seed N
               --seconds S --trace 0|1

   Run from the repository root (perfbench/run.py builds and runs it).
   Each run sets the workload up several times (the median is
   [setup_s]), then measures for S seconds and checks the outputs.
   With --trace 0 the result line carries the end-to-end metrics; with
   --trace 1 layer calls are wrapped or replayed and the result line
   carries the per-layer metrics. tune_ops and compile_nets pair every
   timed pass with a traced pass of the same inputs, whose virtual
   outputs must match byte for byte; serve_mix wraps nothing in
   Model_server.run and times its passes as without tracing. BENCHMARK.json names the
   result line's metrics and units; perfbench/catalog.json describes
   every metric's clock and layer. *)

open Common

let usage () =
  prerr_endline
    "usage: bench.exe --workload tune_ops|compile_nets|serve_mix --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  (get "workload", int "seed", int "seconds", int "trace" <> 0)

(* Set up [reps] times, each from a collected heap, keeping the last
   environment; [setup_s] is the median of [time] over them. *)
let set_up ~reps ~time f =
  let rec go k times =
    let env, c = timed_unit f in
    let times = time c :: times in
    if k = 1 then begin
      record "setup_s" (median times);
      env
    end
    else go (k - 1) times
  in
  go reps []

let () =
  let workload, seed, seconds, trace = parse_args () in
  let catalog = load_catalog () in
  let seconds = float_of_int seconds in
  let run ?(time = calibrated) ~reps setup measure traced =
    let env = set_up ~reps ~time setup in
    (if trace then traced else measure) env ~seed ~seconds
  in
  (match workload with
  | "tune_ops" ->
      (* The calibration kernel swings with the host's load far more
         than these few milliseconds of template building do (across
         seeds, a spread of 0.30 calibrated against 0.05 plain), so
         this set-up is timed on the plain CPU clock. *)
      run ~time:(fun c -> c.cpu_s) ~reps:50 Tune_ops.setup Tune_ops.measure Tune_ops.traced
  | "compile_nets" ->
      run ~reps:100 Compile_nets.setup Compile_nets.measure Compile_nets.traced;
      Compile_nets.check_outputs ~seed
  | "serve_mix" -> run ~reps:9 (Serve_mix.setup ~seed) Serve_mix.measure Serve_mix.traced
  | w ->
      Printf.eprintf "unknown workload %s\n" w;
      usage ());
  record "error_rate" (ratio (float_of_int !failed) (float_of_int !attempted));
  if not (finish ~catalog ~workload ~trace) then exit 1
