(** Analytical GPU timing model.

    Prices a lowered kernel on a {!Machine.gpu} by the quantities GPU
    schedules control (§4.2):

    - {b thread structure}: [Thread_binding] loops define the grid;
      when a cooperative stage re-binds an enclosing tag, only the
      innermost occurrence of the tag counts (work distribution, not
      multiplication) — this is what makes cooperative fetching reduce
      global traffic;
    - {b global-memory coalescing}: unit stride w.r.t. [threadIdx.x]
      is fully coalesced, broadcasts are served once per warp, strided
      access pays per-transaction overhead;
    - {b shared memory}: [Shared]-scope buffers are priced against the
      much higher on-chip bandwidth, plus barrier costs;
    - {b occupancy}: too few threads, oversize thread blocks, or
      shared/register over-allocation degrade or invalidate the
      configuration (returned as [infinity], which the schedule
      explorer learns to avoid).

    The kernel is walked once, by {!Analysis.program}; thread extents,
    allocation bytes and barrier counts are derived from that record. *)

open Tvm_tir

type breakdown = {
  blocks : int;
  threads_per_block : int;
  global_bytes : float;
  shared_bytes : float;
  flops : float;
  compute_s : float;
  global_s : float;
  shared_s : float;
  total_s : float;
  valid : bool;
}

let invalid =
  { blocks = 0; threads_per_block = 0; global_bytes = 0.; shared_bytes = 0.;
    flops = 0.; compute_s = 0.; global_s = 0.; shared_s = 0.;
    total_s = Float.infinity; valid = false }

let is_block_tag = String.starts_with ~prefix:"blockIdx"

(** Extent of each thread tag (max over occurrences: re-bound inner
    loops must not exceed the outer extent — larger means the schedule
    asks for more threads than exist, which we reject). *)
let thread_extents (p : Analysis.program) =
  let tbl = Hashtbl.create 8 and ok = ref true in
  List.iter
    (fun (site : Analysis.loop_site) ->
      match site.Analysis.site_kind with
      | Stmt.Thread_binding tag as kind ->
          let extent =
            Option.value ~default:0 (Interval.const_of_expr site.Analysis.site_extent)
          in
          let prev = Option.value ~default:extent (Hashtbl.find_opt tbl tag) in
          let rebound =
            List.exists (fun (o : Analysis.loop_site) -> o.Analysis.site_kind = kind)
              site.Analysis.site_outer
          in
          if rebound && extent > prev then ok := false;
          Hashtbl.replace tbl tag (max prev extent)
      | _ -> ())
    p.Analysis.loops;
  (tbl, !ok)

(** Execution count of an access across the whole device: product of
    enclosing loop extents, counting only the innermost occurrence of
    each thread tag. *)
let device_count (a : Analysis.access) =
  let rec bound_inside tag = function
    | [] -> false
    | { Analysis.lkind = Stmt.Thread_binding t; _ } :: _ when t = tag -> true
    | _ :: rest -> bound_inside tag rest
  in
  (* Innermost first; skip outer duplicates of a tag. *)
  let rec count = function
    | [] -> 1
    | { Analysis.lkind = Stmt.Thread_binding tag; _ } :: rest when bound_inside tag rest ->
        count rest
    | l :: rest -> count rest * l.Analysis.lextent
  in
  count a.Analysis.acc_loops

(** Find the loop var bound to [tag] closest to the access. *)
let tag_var (a : Analysis.access) tag =
  List.fold_left
    (fun acc l ->
      match l.Analysis.lkind with
      | Stmt.Thread_binding t when t = tag -> Some l.Analysis.lvar
      | _ -> acc)
    None a.Analysis.acc_loops

(** Register-level reuse: a load whose index is invariant under an
    enclosing per-thread serial/unrolled/vectorized loop is hoisted by
    any real compiler, so it does not re-issue a memory access per
    iteration. Registers are finite, so the credited reuse is capped. *)
let register_reuse (a : Analysis.access) =
  let reuse =
    List.fold_left
      (fun acc l ->
        match l.Analysis.lkind with
        | Stmt.Serial | Stmt.Unrolled | Stmt.Vectorized -> (
            match Analysis.stride_wrt a l.Analysis.lvar with
            | Some 0 -> acc * l.Analysis.lextent
            | Some _ | None -> acc)
        | Stmt.Parallel | Stmt.Thread_binding _ | Stmt.Vthread -> acc)
      1 a.Analysis.acc_loops
  in
  float_of_int (min 64 reuse)

(** Bytes of global traffic for one access site, including the
    coalescing penalty. *)
let global_traffic (a : Analysis.access) =
  let elem = Dtype.bytes a.Analysis.acc_buffer.Expr.bdtype in
  let count =
    float_of_int (device_count a) *. a.Analysis.acc_weight /. register_reuse a
  in
  let penalty =
    match tag_var a "threadIdx.x" with
    | Some v -> (
        match Analysis.stride_wrt a v with
        | Some 0 -> 0.25 (* warp-wide broadcast: one transaction serves 32 *)
        | Some s when abs s <= 1 -> 1.
        | Some s -> Float.min 4. (float_of_int (abs s))
        | None -> 4.)
    | None -> (
        (* Pure per-thread sequential access. *)
        match Analysis.innermost_loop a with
        | Some l -> (
            match Analysis.stride_wrt a l.Analysis.lvar with
            | Some s when abs s <= 1 -> 1.
            | Some _ | None -> 4.)
        | None -> 1.)
  in
  count *. elem *. penalty

let is_thread_tag = String.starts_with ~prefix:"threadIdx"

(** Barriers executed: a barrier synchronizes a whole thread group at
    once, so it is multiplied by serial/block loop trips but not by
    threadIdx extents. *)
let weighted_barriers (p : Analysis.program) =
  (* Stacks are innermost first; the product runs outermost first. *)
  let trips stack =
    List.fold_right
      (fun (site : Analysis.loop_site) mult ->
        match site.Analysis.site_kind with
        | Stmt.Thread_binding tag when is_thread_tag tag -> mult
        | _ -> (
            match Interval.const_of_expr site.Analysis.site_extent with
            | Some e -> mult *. float_of_int e
            | None -> mult))
      stack 1.
  in
  List.fold_left (fun acc stack -> acc +. trips stack) 0. p.Analysis.barriers

let estimate ?force_dtype (gpu : Machine.gpu) (stmt : Stmt.t) : breakdown =
  let p = Analysis.program ~intrin_flops:Tvm_schedule.Tensor_intrin.flops_of stmt in
  let tags, tags_ok = thread_extents p in
  if not tags_ok then invalid
  else
    let prod pred =
      Hashtbl.fold (fun tag e acc -> if pred tag then acc * max 1 e else acc) tags 1
    in
    let blocks = prod is_block_tag in
    let threads_per_block = prod (fun t -> not (is_block_tag t)) in
    if threads_per_block > 1024 then invalid
    else
      let shared_b = Analysis.alloc_bytes p Expr.Shared in
      if shared_b > gpu.Machine.shared_bytes_per_sm then invalid
      else
        let accesses = Analysis.accesses_exn p in
        let global_bytes =
          List.fold_left
            (fun acc a ->
              if a.Analysis.acc_buffer.Expr.bscope = Expr.Global then
                acc +. global_traffic a
              else acc)
            0. accesses
        in
        let shared_bytes =
          List.fold_left
            (fun acc a ->
              if a.Analysis.acc_buffer.Expr.bscope = Expr.Shared then
                acc
                +. float_of_int (device_count a) *. a.Analysis.acc_weight
                   /. register_reuse a
                   *. Dtype.bytes a.Analysis.acc_buffer.Expr.bdtype
              else acc)
            0. accesses
        in
        (* Occupancy: enough parallelism to hide latency, but not more
           threads per block than the SM supports. *)
        let total_threads = blocks * threads_per_block in
        let needed = gpu.Machine.sms * gpu.Machine.cuda_cores_per_sm * 4 in
        let util = Float.min 1. (float_of_int total_threads /. float_of_int needed) in
        (* Tiny blocks under-fill warps. *)
        let warp_eff =
          if threads_per_block >= 32 then 1.
          else float_of_int threads_per_block /. 32.
        in
        (* Register pressure: oversized thread-local tiles spill. *)
        let local_b = Analysis.alloc_bytes p Expr.Local in
        let spill = if local_b > 2048. then 2. else 1. in
        (* The dominant dtype is the last one stored. *)
        let stored = List.fold_left (fun _ d -> d) Dtype.Float32 p.Analysis.stored_dtypes in
        let dtype = match force_dtype with Some d -> d | None -> stored in
        let dtype_rate =
          match dtype with Dtype.Float16 -> gpu.Machine.fp16_rate | _ -> 1.
        in
        let byte_scale =
          (* Overriding precision rescales traffic too (fp16 halves it). *)
          match force_dtype with
          | Some d -> Dtype.bytes d /. Dtype.bytes stored
          | None -> 1.
        in
        let global_bytes = global_bytes *. byte_scale in
        let shared_bytes = shared_bytes *. byte_scale in
        let peak = Machine.gpu_peak_gflops gpu *. 1e9 *. dtype_rate in
        let compute_s = p.Analysis.flops /. (peak *. util *. warp_eff) *. spill in
        let global_s = global_bytes /. (gpu.Machine.global_gbps *. 1e9) in
        let shared_s =
          (shared_bytes /. (gpu.Machine.shared_gbps *. 1e9))
          +. (weighted_barriers p *. 5e-8
             /. float_of_int (max 1 (min blocks (gpu.Machine.sms * 8))))
        in
        let launch = gpu.Machine.kernel_launch_us *. 1e-6 in
        let total_s = Float.max compute_s (Float.max global_s shared_s) +. launch in
        { blocks; threads_per_block; global_bytes; shared_bytes; flops = p.Analysis.flops;
          compute_s; global_s; shared_s; total_s; valid = true }

let time_s ?force_dtype gpu stmt = (estimate ?force_dtype gpu stmt).total_s
