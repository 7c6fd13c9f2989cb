(** Analytical CPU timing model.

    Converts a lowered loop program into an estimated run time on a
    {!Machine.cpu}. The model makes exactly the quantities TVM's CPU
    schedule primitives manipulate first-class:

    - {b cache behaviour}: per-access working sets at every loop level
      decide at which level the access streams from L2 or DRAM — so
      tiling changes predicted time;
    - {b vectorization}: a [Vectorized] innermost loop with unit-stride
      accesses approaches peak SIMD throughput, strided ones pay a
      gather penalty;
    - {b parallelism}: an outer [Parallel] loop scales compute across
      cores with an imbalance factor, but not DRAM bandwidth;
    - {b unrolling}: reduces per-iteration loop overhead.

    The program is walked once, by {!Analysis.program}; loop trip
    counts and the parallel extent are derived from that record. The
    returned time is deterministic; the autotuning layer adds
    measurement noise separately (DESIGN.md §6). *)

open Tvm_tir
module Tensor_intrin = Tvm_schedule.Tensor_intrin

type breakdown = {
  compute_s : float;
  dram_s : float;
  l2_s : float;
  overhead_s : float;
  dram_bytes : float;
  l2_bytes : float;
  flops : float;
  total_s : float;
}

(** Loop-stack signature used to group accesses of the same nest. *)
let stack_key (a : Analysis.access) =
  String.concat "." (List.map (fun l -> string_of_int l.Analysis.lvar.Expr.vid) a.Analysis.acc_loops)

(** Misses an access generates against a cache of [size] bytes:
    find the outermost loop level at which the nest's combined working
    set fits, then charge the access's footprint at that level once per
    dependent outer-loop trip. *)
let miss_bytes ~size ~nest_mates (a : Analysis.access) =
  let depth = List.length a.Analysis.acc_loops in
  (* Combined working set of the nest at each level: per-buffer max. *)
  let working_set level =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (b : Analysis.access) ->
        let lvl = min level (List.length b.Analysis.acc_loops) in
        let fp = Analysis.footprint_bytes_at_level b lvl in
        let key = b.Analysis.acc_buffer.Expr.bid in
        let prev = try Hashtbl.find tbl key with Not_found -> 0. in
        Hashtbl.replace tbl key (Float.max prev fp))
      nest_mates;
    (* Sorted-value summation: keep the float result independent of
       bucket order (buffer ids vary under parallel instantiation). *)
    Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
    |> List.sort compare
    |> List.fold_left ( +. ) 0.
  in
  let rec find_level k = if k >= depth then depth else if working_set k <= size then k else find_level (k + 1) in
  let k = find_level 0 in
  let fp = Analysis.footprint_bytes_at_level a k in
  (* Outer trips that actually change the data this access touches. *)
  let dependent_trips =
    List.fold_left
      (fun acc (i, l) ->
        if i >= k then acc
        else
          match Analysis.stride_wrt a l.Analysis.lvar with
          | Some 0 -> acc
          | Some _ | None -> acc * l.Analysis.lextent)
      1
      (List.mapi (fun i l -> (i, l)) a.Analysis.acc_loops)
  in
  fp *. float_of_int dependent_trips *. a.Analysis.acc_weight

let is_global (a : Analysis.access) = a.Analysis.acc_buffer.Expr.bscope = Expr.Global

(** Vector efficiency of a store site: fraction of the machine's SIMD
    lanes the surrounding loop structure can use. *)
let vector_eff (cpu : Machine.cpu) accesses (store : Analysis.access) =
  match Analysis.innermost_loop store with
  | None -> 1.
  | Some l ->
      if l.Analysis.lkind <> Stmt.Vectorized then 1.
      else
        let lanes = float_of_int cpu.Machine.vector_lanes in
        let store_ok =
          match Analysis.stride_wrt store l.Analysis.lvar with
          | Some s -> abs s <= 1
          | None -> false
        in
        if not store_ok then 1.
        else
          (* Loads in the same nest: strided gathers halve throughput. *)
          let key = stack_key store in
          let loads =
            List.filter
              (fun a -> (not a.Analysis.acc_is_store) && stack_key a = key)
              accesses
          in
          let bad =
            List.exists
              (fun a ->
                match Analysis.stride_wrt a l.Analysis.lvar with
                | Some s -> abs s > 1
                | None -> true)
              loads
          in
          if bad then lanes /. 2. else lanes

let estimate (cpu : Machine.cpu) (stmt : Stmt.t) : breakdown =
  let p = Analysis.program ~intrin_flops:Tensor_intrin.flops_of stmt in
  let accesses = Analysis.accesses_exn p in
  let globals = List.filter is_global accesses in
  let by_nest = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let key = stack_key a in
      Hashtbl.replace by_nest key (a :: (try Hashtbl.find by_nest key with Not_found -> [])))
    accesses;
  let nest_mates a = try Hashtbl.find by_nest (stack_key a) with Not_found -> [ a ] in
  let dram_bytes =
    List.fold_left
      (fun acc a -> acc +. miss_bytes ~size:cpu.Machine.l2_bytes ~nest_mates:(nest_mates a) a)
      0. globals
  in
  let l2_bytes =
    List.fold_left
      (fun acc a -> acc +. miss_bytes ~size:cpu.Machine.l1_bytes ~nest_mates:(nest_mates a) a)
      0. globals
  in
  (* Compute: per store site, flops scaled by its vector efficiency. *)
  let scalar_cycles = ref 0. in
  List.iter
    (fun a ->
      if a.Analysis.acc_is_store && a.Analysis.acc_value_flops > 0. then begin
        let eff = vector_eff cpu accesses a in
        let per_cycle = eff *. float_of_int cpu.Machine.fma_per_cycle *. 2. in
        scalar_cycles :=
          !scalar_cycles
          +. (float_of_int a.Analysis.acc_count *. a.Analysis.acc_value_flops /. per_cycle)
      end)
    accesses;
  (* Tensorized micro-kernels run near peak. *)
  let store_flops =
    List.fold_left
      (fun acc a ->
        if a.Analysis.acc_is_store then
          acc +. (float_of_int a.Analysis.acc_count *. a.Analysis.acc_value_flops)
        else acc)
      0. accesses
  in
  let intrin_flops_total = Float.max 0. (p.Analysis.flops -. store_flops) in
  let peak_per_cycle =
    float_of_int (cpu.Machine.vector_lanes * cpu.Machine.fma_per_cycle * 2)
  in
  let intrin_cycles = intrin_flops_total /. (peak_per_cycle *. 0.9) in
  (* Loop overhead; unrolled/vectorized bodies amortize it. Every
     constant-extent loop runs (trips of its constant-extent enclosing
     loops) x extent times; summed last loop first. *)
  let const_extent (site : Analysis.loop_site) =
    Interval.const_of_expr site.Analysis.site_extent
  in
  let overhead_cycles =
    List.fold_right
      (fun (site : Analysis.loop_site) acc ->
        match const_extent site with
        | None -> acc
        | Some extent ->
            let outer =
              List.fold_left
                (fun m o -> match const_extent o with Some e -> m * e | None -> m)
                1 site.Analysis.site_outer
            in
            let per =
              match site.Analysis.site_kind with
              | Stmt.Unrolled -> cpu.Machine.loop_overhead_cycles *. 0.15
              | Stmt.Vectorized ->
                  (* vector bodies are software-pipelined: control overhead
                     amortizes over lanes and unrolling *)
                  cpu.Machine.loop_overhead_cycles *. 0.15
                  /. float_of_int cpu.Machine.vector_lanes
              | Stmt.Serial | Stmt.Parallel -> cpu.Machine.loop_overhead_cycles
              | Stmt.Thread_binding _ | Stmt.Vthread -> 0.
            in
            acc +. (float_of_int (outer * extent) *. per))
      p.Analysis.loops 0.
  in
  (* Parallelism: the first constant Parallel loop caps the thread count. *)
  let par_threads =
    List.find_map
      (fun (site : Analysis.loop_site) ->
        match (site.Analysis.site_kind, site.Analysis.site_extent) with
        | Stmt.Parallel, Expr.IntImm e -> Some (min cpu.Machine.cores e)
        | _ -> None)
      p.Analysis.loops
    |> Option.value ~default:1
  in
  let balance =
    if par_threads <= 1 then 1.
    else float_of_int par_threads *. 0.92 (* scheduling + imbalance loss *)
  in
  let hz = cpu.Machine.freq_ghz *. 1e9 in
  let compute_s = (!scalar_cycles +. intrin_cycles) /. hz /. Float.max 1. balance in
  let overhead_s = overhead_cycles /. hz /. Float.max 1. balance in
  let dram_s = dram_bytes /. (cpu.Machine.dram_gbps *. 1e9) in
  let l2_s = l2_bytes /. (cpu.Machine.l2_gbps *. 1e9) in
  let total_s = Float.max (compute_s +. overhead_s) (dram_s +. l2_s) +. 2e-6 in
  { compute_s; dram_s; l2_s; overhead_s; dram_bytes; l2_bytes; flops = p.Analysis.flops;
    total_s }

let time_s cpu stmt = (estimate cpu stmt).total_s
let time_ms cpu stmt = 1e3 *. time_s cpu stmt
