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
    counts and the parallel extent are derived from that record. Its
    accesses are then grouped once into loop nests by loop-variable id
    list; a nest's working set at each level is computed once and
    shared by all its accesses and both caches, and each global access
    prices L2 and L1 misses in one walk of its loop stack. The returned
    time is deterministic; the autotuning layer adds measurement noise
    separately (DESIGN.md §6). *)

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

(** The accesses of one loop nest (one loop-variable id list, so a
    reduction's init and update stay together) and the nest's combined
    working set at each level above the innermost, filled on first use
    ([nan] until then) and shared by every mate and both caches. *)
type nest = { mutable mates : Analysis.access list; ws : float array }

(* Working set of [nest] at [level]: per-buffer max of the mates'
   footprints, summed over buffers in sorted order so the float result
   is independent of bucket order (buffer ids vary under parallel
   instantiation). *)
let working_set nest level =
  if Float.is_nan nest.ws.(level) then begin
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (b : Analysis.access) ->
        let fp = Analysis.footprint_bytes_at_level b level in
        let key = b.Analysis.acc_buffer.Expr.bid in
        let prev = try Hashtbl.find tbl key with Not_found -> 0. in
        Hashtbl.replace tbl key (Float.max prev fp))
      nest.mates;
    nest.ws.(level) <-
      Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
      |> List.sort compare
      |> List.fold_left ( +. ) 0.
  end;
  nest.ws.(level)

(** Misses an access generates against the L2 and the L1 cache, as a
    pair: for each, find the outermost loop level at which the nest's
    combined working set fits, then charge the access's footprint at
    that level once per dependent outer-loop trip. One walk of the loop
    stack reads the prefix product of dependent trips at both levels. *)
let miss_bytes (cpu : Machine.cpu) nest (a : Analysis.access) =
  let depth = Array.length nest.ws in
  let fit size =
    let rec find k = if k >= depth || working_set nest k <= size then k else find (k + 1) in
    find 0
  in
  let k2 = fit cpu.Machine.l2_bytes and k1 = fit cpu.Machine.l1_bytes in
  let lo = min k2 k1 and hi = max k2 k1 in
  (* Outer trips that actually change the data this access touches:
     [p] over the loops above [i], [p_lo] over those above [lo]. *)
  let rec trips i p p_lo loops =
    let p_lo = if i = lo then p else p_lo in
    match loops with
    | l :: rest when i < hi ->
        let p =
          match Analysis.stride_wrt a l.Analysis.lvar with
          | Some 0 -> p
          | Some _ | None -> p * l.Analysis.lextent
        in
        trips (i + 1) p p_lo rest
    | _ -> (p_lo, p)
  in
  let p_lo, p_hi = trips 0 1 1 a.Analysis.acc_loops in
  let charge k =
    let t = if k = lo then p_lo else p_hi in
    Analysis.footprint_bytes_at_level a k *. float_of_int t *. a.Analysis.acc_weight
  in
  (charge k2, charge k1)

(** Vector efficiency of a store site: fraction of the machine's SIMD
    lanes the surrounding loop structure can use. *)
let vector_eff (cpu : Machine.cpu) nest (store : Analysis.access) =
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
          let bad =
            List.exists
              (fun a ->
                (not a.Analysis.acc_is_store)
                &&
                match Analysis.stride_wrt a l.Analysis.lvar with
                | Some s -> abs s > 1
                | None -> true)
              nest.mates
          in
          if bad then lanes /. 2. else lanes

let estimate (cpu : Machine.cpu) (stmt : Stmt.t) : breakdown =
  let p = Analysis.program ~intrin_flops:Tensor_intrin.flops_of stmt in
  let accesses = Analysis.accesses_exn p in
  let nests = Hashtbl.create 16 in
  let with_nest a =
    let key = List.map (fun l -> l.Analysis.lvar.Expr.vid) a.Analysis.acc_loops in
    let nest =
      match Hashtbl.find_opt nests key with
      | Some n -> n
      | None ->
          let n = { mates = []; ws = Array.make (List.length key) Float.nan } in
          Hashtbl.add nests key n;
          n
    in
    nest.mates <- a :: nest.mates;
    (a, nest)
  in
  let accesses = List.map with_nest accesses in
  (* Cache misses per global access; compute per store site, flops
     scaled by its vector efficiency. *)
  let dram_bytes = ref 0. and l2_bytes = ref 0. and scalar_cycles = ref 0. in
  List.iter
    (fun (a, nest) ->
      if a.Analysis.acc_buffer.Expr.bscope = Expr.Global then begin
        let dram, l2 = miss_bytes cpu nest a in
        dram_bytes := !dram_bytes +. dram;
        l2_bytes := !l2_bytes +. l2
      end;
      if a.Analysis.acc_is_store && a.Analysis.acc_value_flops > 0. then begin
        let eff = vector_eff cpu nest a in
        let per_cycle = eff *. float_of_int cpu.Machine.fma_per_cycle *. 2. in
        scalar_cycles :=
          !scalar_cycles
          +. (float_of_int a.Analysis.acc_count *. a.Analysis.acc_value_flops /. per_cycle)
      end)
    accesses;
  (* Tensorized micro-kernels run near peak. *)
  let store_flops =
    List.fold_left
      (fun acc (a, _) ->
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
  let dram_bytes = !dram_bytes and l2_bytes = !l2_bytes in
  let dram_s = dram_bytes /. (cpu.Machine.dram_gbps *. 1e9) in
  let l2_s = l2_bytes /. (cpu.Machine.l2_gbps *. 1e9) in
  let total_s = Float.max (compute_s +. overhead_s) (dram_s +. l2_s) +. 2e-6 in
  { compute_s; dram_s; l2_s; overhead_s; dram_bytes; l2_bytes; flops = p.Analysis.flops;
    total_s }

let time_s cpu stmt = (estimate cpu stmt).total_s
