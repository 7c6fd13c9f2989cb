(** Per-kernel runtime profiling report — the shape of TVM's debug
    executor output. The graph executor prices one [kernel_record] per
    fused group of one inference; this module owns the report type
    and its renderings (ranked text table, JSON) so every consumer
    (tvmc, bench, tests) agrees on the format. *)

type kernel_record = {
  pr_name : string;  (** workload signature of the kernel, or node name *)
  pr_group : int;  (** fusion group id *)
  pr_time_s : float;  (** simulated kernel time for one call *)
  pr_launch_s : float;  (** per-call launch/framework overhead *)
  pr_bytes : float;  (** bytes touched per call (inputs + output) *)
  pr_flops : float;  (** floating-point work per call *)
}

type report = {
  rp_target : string;
  rp_records : kernel_record list;  (** in execution order *)
  rp_total_s : float;  (** end-to-end: sum of kernel time + launch overhead *)
}

let kernel_time_s r =
  List.fold_left (fun acc p -> acc +. p.pr_time_s) 0. r.rp_records

let launch_time_s r =
  List.fold_left (fun acc p -> acc +. p.pr_launch_s) 0. r.rp_records

let to_table r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-4s %10s %6s %9s %9s  %s\n" "rank" "time/call" "%" "GFLOP/s"
       "MB" "kernel");
  let ranked =
    List.sort (fun a b -> compare b.pr_time_s a.pr_time_s) r.rp_records
  in
  List.iteri
    (fun i p ->
      let pct =
        if r.rp_total_s > 0. then 100. *. (p.pr_time_s +. p.pr_launch_s) /. r.rp_total_s
        else 0.
      in
      let gflops = if p.pr_time_s > 0. then p.pr_flops /. p.pr_time_s /. 1e9 else 0. in
      Buffer.add_string buf
        (Printf.sprintf "%-4d %8.3fms %5.1f%% %9.1f %9.3f  %s\n" (i + 1)
           (1e3 *. p.pr_time_s) pct gflops (p.pr_bytes /. 1e6) p.pr_name))
    ranked;
  Buffer.add_string buf
    (Printf.sprintf
       "total: %.3f ms (%.3f ms kernels + %.3f ms launch overhead) on %s\n"
       (1e3 *. r.rp_total_s)
       (1e3 *. kernel_time_s r)
       (1e3 *. launch_time_s r)
       r.rp_target);
  Buffer.contents buf

let to_json r =
  Json.Obj
    [
      ("target", Json.Str r.rp_target);
      ("total_s", Json.Num r.rp_total_s);
      ("kernel_s", Json.Num (kernel_time_s r));
      ("launch_s", Json.Num (launch_time_s r));
      ( "kernels",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("name", Json.Str p.pr_name);
                   ("group", Json.Num (Float.of_int p.pr_group));
                   ("time_s", Json.Num p.pr_time_s);
                   ("launch_s", Json.Num p.pr_launch_s);
                   ("bytes", Json.Num p.pr_bytes);
                   ("flops", Json.Num p.pr_flops);
                 ])
             r.rp_records) );
    ]

let write_json path r = Json.write_file path (to_json r)
