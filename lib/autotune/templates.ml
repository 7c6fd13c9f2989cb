(** Generic master schedule templates (§5.1).

    "We also created a generic master template for each hardware
    back-end that automatically extracts possible knobs based on the
    computation description" — these are those templates. Each template
    builds a fresh schedule from the output tensor of a (possibly
    fused) tensor-expression group, applies a configuration's knob
    values, and lowers it for the target.

    Invalid knob combinations (non-dividing tiles where cache stages
    need exactness, oversubscribed threads) raise
    [Tuner.Invalid_config]; the tuner records them as failed
    measurements, exactly as real on-device builds fail. *)

open Tvm_tir
module Tensor = Tvm_te.Tensor
module Sched = Tvm_schedule.Sched
module Iter_var = Tvm_schedule.Iter_var
module Lower = Tvm_lower.Lower

let reject fmt = Printf.ksprintf (fun s -> raise (Tuner.Invalid_config s)) fmt

let require_divides a b = if b mod a <> 0 then reject "%d does not divide %d" a b

(** Region inference is exact only when a fused-axis chunk maps to a
    rectangular region of the original tensor for *every* chunk, i.e.
    when the chunk size nests with the shape's suffix products. Reject
    misaligned chunks (the moral equivalent of a failed build). *)
let require_aligned_chunk chunk shape =
  let rec suffixes = function
    | [] | [ _ ] -> []
    | _ :: rest -> List.fold_left ( * ) 1 rest :: suffixes rest
  in
  List.iter
    (fun s ->
      if not (chunk mod s = 0 || s mod chunk = 0) then
        reject "chunk %d misaligned with suffix %d" chunk s)
    (suffixes shape)

(* ------------------------------------------------------------------ *)
(* Schedule helpers shared by the templates                             *)
(* ------------------------------------------------------------------ *)

(** Reduce axes of a stage before any splitting (for alignment checks
    the original extents are what matter; cache_write moved them). *)
let st_reduce_shape_of (st : Sched.stage) = st.Sched.s_reduce_axes

(** The reduction stage nearest the output — the group anchor the
    template concentrates effort on. *)
let find_anchor sched =
  List.fold_left
    (fun acc st -> if st.Sched.s_reduce_axes <> [] then Some st else acc)
    None (Sched.stages sched)

(** Inline every injective intermediate except [keep]. *)
let inline_intermediates sched ~keep =
  List.iter
    (fun st ->
      let kept = List.exists (fun k -> k == st) keep in
      let injective =
        match st.Sched.s_body with Tensor.Value _ -> true | Tensor.Reduce _ -> false
      in
      if injective && (not kept) && not st.Sched.s_is_output then
        Sched.compute_inline st)
    (Sched.stages sched)

(** Give a leftover root compute stage a basic GPU binding so it does
    not execute single-threaded. *)
let default_gpu_root st =
  let data = List.filter (fun iv -> not (Iter_var.is_reduce iv)) st.Sched.s_leaf in
  match data with
  | [] -> ()
  | first :: _ ->
      let fused = Sched.fuse_list st data in
      ignore first;
      let threads = min 64 fused.Iter_var.extent in
      if fused.Iter_var.extent mod threads = 0 then begin
        let bx, tx = Sched.split st fused ~factor:threads in
        Sched.bind st bx "blockIdx.x";
        Sched.bind st tx "threadIdx.x"
      end

let default_cpu_root st =
  let data = List.filter (fun iv -> not (Iter_var.is_reduce iv)) st.Sched.s_leaf in
  match data with
  | [] -> ()
  | [ only ] -> Sched.parallel st only
  | first :: _ ->
      ignore first;
      let fused = Sched.fuse_list st data in
      Sched.parallel st fused

(** Direct producer stages of [anchor] (whose buffers its body reads). *)
let producers_of sched st =
  Sched.read_buffers st
  |> List.filter_map (fun b -> Sched.find_by_buffer sched b)

(* ------------------------------------------------------------------ *)
(* GPU flat template                                                    *)
(* ------------------------------------------------------------------ *)

(* Knob space of the flat GPU template: an output of [n] elements with
   reduction depth [k]. *)
(** Chunk sizes nesting with the suffix chain of every shape in
    [shapes] (the alignment precondition of exact region inference).
    Both the fused output's shape and the anchor's shape matter: a
    chunk of the flattened output must map to a rectangular region of
    the anchor tensor too (a reshaping epilogue such as flatten makes
    them differ). *)
let aligned_divisors n shapes cap =
  let rec suffixes = function
    | [] | [ _ ] -> []
    | _ :: rest -> List.fold_left ( * ) 1 rest :: suffixes rest
  in
  let sfx = List.concat_map suffixes shapes in
  List.filter
    (fun d -> d <= cap && List.for_all (fun s -> d mod s = 0 || s mod d = 0) sfx)
    (Cfg_space.divisors n)

(** Shape of the stage region inference anchors on (the reduction
    nearest the output); the output's own shape when there is none. *)
let anchor_shape (output : Tensor.t) =
  let sched = Sched.create [ output ] in
  match find_anchor sched with
  | Some st -> Expr.Buffer.const_shape st.Sched.s_out
  | None -> Tensor.const_shape output

let gpu_flat_space ~n ~k ~shapes =
  let threads = List.filter (fun t -> t >= 8 && t <= 1024) (Cfg_space.divisors n) in
  let threads = if threads = [] then [ 1 ] else threads in
  let items =
    if k > 1 then aligned_divisors n shapes 256
    else List.filter (fun i -> i <= 256) (Cfg_space.divisors n)
  in
  let items = if items = [] then [ 1 ] else items in
  let rc = if k <= 1 then [ 1 ] else Cfg_space.divisors_upto k 256 in
  Cfg_space.space
    ([
       Cfg_space.knob "threads" threads;
       Cfg_space.knob "items" items;
       Cfg_space.knob "rc" rc;
       Cfg_space.knob "unroll" [ 0; 1 ];
       Cfg_space.knob "vec" [ 0; 1 ];
     ]
    @ if k > 1 then [ Cfg_space.knob "use_shared" [ 0; 1 ] ] else [])

(** Instantiate the flat GPU template. *)
let gpu_flat_instantiate ?(target = Lower.Gpu) (output : Tensor.t) cfg : Stmt.t =
  let n = List.fold_left ( * ) 1 (Tensor.const_shape output) in
  let threads = Cfg_space.get cfg "threads" in
  let items = Cfg_space.get cfg "items" in
  let rc = Cfg_space.get cfg "rc" in
  let unroll = Cfg_space.get cfg "unroll" = 1 in
  let vec = match Cfg_space.get_opt cfg "vec" with Some 1 -> true | _ -> false in
  let use_shared =
    match Cfg_space.get_opt cfg "use_shared" with Some 1 -> true | _ -> false
  in
  require_divides (threads * items) n;
  let out_shape = Tensor.const_shape output in
  let sched = Sched.create [ output ] in
  let out_st = Sched.find sched output in
  (* Anchor: reduction stage; if the output itself reduces, accumulate
     through a register cache first. *)
  let anchor =
    match find_anchor sched with
    | Some st when st == out_st -> Some (Sched.cache_write sched out_st Expr.Local)
    | other -> other
  in
  (* Alignment is only required where region inference runs: around an
     attached anchor (per-thread chunks) and for cooperative staging
     (block-wide chunks). Injective-only kernels take any factors. *)
  (match anchor with
  | None -> ()
  | Some a ->
      let a_shape = Expr.Buffer.const_shape a.Sched.s_out in
      require_aligned_chunk items out_shape;
      require_aligned_chunk items a_shape;
      if use_shared then begin
        require_aligned_chunk (threads * items) out_shape;
        require_aligned_chunk (threads * items) a_shape
      end);
  let keep =
    match anchor with
    | None -> [ out_st ]
    | Some a ->
        (* With cooperative staging the anchor's producers stay
           materialized so the shared copies read non-negative indices. *)
        let prods = if use_shared then producers_of sched a else [] in
        (out_st :: a :: prods)
  in
  inline_intermediates sched ~keep;
  (* Output loop structure: [block, thread, per-thread items]. *)
  let data = List.filter (fun iv -> not (Iter_var.is_reduce iv)) out_st.Sched.s_leaf in
  let fused = Sched.fuse_list out_st data in
  let bx, rest = Sched.split out_st fused ~factor:(threads * items) in
  let tx, xi = Sched.split out_st rest ~factor:items in
  Sched.bind out_st bx "blockIdx.x";
  Sched.bind out_st tx "threadIdx.x";
  if vec && items mod 4 = 0 && items > 1 then begin
    let _xo, xv = Sched.split out_st xi ~factor:4 in
    Sched.vectorize out_st xv
  end
  else if unroll then Sched.unroll out_st xi;
  (match anchor with
  | None -> ()
  | Some a ->
      if a.Sched.s_out.Expr.bscope = Expr.Global then Sched.set_scope sched a Expr.Local;
      Sched.compute_at a ~target:out_st ~level:tx;
      let reduce_leaves = List.filter Iter_var.is_reduce a.Sched.s_leaf in
      let rfused = Sched.fuse_list a reduce_leaves in
      let k_total = rfused.Iter_var.extent in
      let rc = min rc k_total in
      require_divides rc k_total;
      let ko, ki = Sched.split a rfused ~factor:rc in
      Sched.reorder a ((ko :: a.Sched.s_root_axes) @ [ ki ]);
      if unroll then Sched.unroll a ki;
      if use_shared then begin
        (* Mod-wrapping reduce chunks make cooperative-cache offsets
           non-minimal; require the chunk to nest with the fused reduce
           axes' suffix products. *)
        require_aligned_chunk rc
          (List.map (fun iv -> iv.Iter_var.extent)
             (List.filter Iter_var.is_reduce
                (st_reduce_shape_of a)));
        List.iter
          (fun (b : Expr.buffer) ->
            let cache = Sched.cache_read sched b Expr.Shared [ a ] in
            Sched.compute_at cache ~target:a ~level:ko;
            let cfused = Sched.fuse_list cache cache.Sched.s_leaf in
            let _co, ct = Sched.split cache cfused ~factor:threads in
            Sched.bind cache ct "threadIdx.x")
          (Sched.read_buffers a)
      end);
  (* Any remaining root stages (pads kept for shared staging, extra
     reductions in opaque chains) get a default binding. *)
  List.iter
    (fun st ->
      if Sched.is_root_stage st && (not (st == out_st)) && st.Sched.s_ann = [] then
        default_gpu_root st)
    (Sched.stages sched);
  Lower.lower ~target sched

let reduce_depth (output : Tensor.t) =
  (* Product of reduce extents of the reduction stage nearest output. *)
  let sched = Sched.create [ output ] in
  match find_anchor sched with
  | None -> 1
  | Some st ->
      List.fold_left (fun acc iv -> acc * iv.Iter_var.extent) 1 st.Sched.s_reduce_axes

let gpu_flat ~name (output : Tensor.t) : Tuner.template =
  let shape = Tensor.const_shape output in
  let n = List.fold_left ( * ) 1 shape in
  let k = reduce_depth output in
  {
    Tuner.tpl_name = name;
    tpl_space = gpu_flat_space ~n ~k ~shapes:[ shape; anchor_shape output ];
    tpl_instantiate = (fun cfg -> gpu_flat_instantiate output cfg);
  }

(* ------------------------------------------------------------------ *)
(* CPU flat template                                                    *)
(* ------------------------------------------------------------------ *)

let cpu_flat_space ~n ~k ~shapes =
  let items =
    if k > 1 then aligned_divisors n shapes 4096
    else List.filter (fun i -> i <= 4096) (Cfg_space.divisors n)
  in
  let items = if items = [] then [ 1 ] else items in
  let rc = if k <= 1 then [ 1 ] else Cfg_space.divisors_upto k 256 in
  Cfg_space.space
    [
      Cfg_space.knob "items" items;
      Cfg_space.knob "rc" rc;
      Cfg_space.knob "vec" [ 0; 1 ];
      Cfg_space.knob "unroll" [ 0; 1 ];
    ]

let cpu_flat_instantiate (output : Tensor.t) cfg : Stmt.t =
  let n = List.fold_left ( * ) 1 (Tensor.const_shape output) in
  let items = Cfg_space.get cfg "items" in
  let rc = Cfg_space.get cfg "rc" in
  let vec = Cfg_space.get cfg "vec" = 1 in
  let unroll = Cfg_space.get cfg "unroll" = 1 in
  require_divides items n;
  let sched = Sched.create [ output ] in
  let out_st = Sched.find sched output in
  let anchor =
    match find_anchor sched with
    | Some st when st == out_st -> Some (Sched.cache_write sched out_st Expr.Local)
    | other -> other
  in
  (match anchor with
  | None -> ()
  | Some a ->
      require_aligned_chunk items (Tensor.const_shape output);
      require_aligned_chunk items (Expr.Buffer.const_shape a.Sched.s_out));
  inline_intermediates sched
    ~keep:(match anchor with None -> [ out_st ] | Some a -> [ out_st; a ]);
  let data = List.filter (fun iv -> not (Iter_var.is_reduce iv)) out_st.Sched.s_leaf in
  let fused = Sched.fuse_list out_st data in
  let po, xi = Sched.split out_st fused ~factor:items in
  Sched.parallel out_st po;
  let vec_tail, xi =
    if vec && items >= 4 then begin
      let xo, xv = Sched.split out_st xi ~factor:(min 8 items) in
      Sched.vectorize out_st xv;
      (Some xv, xo)
    end
    else (None, xi)
  in
  ignore vec_tail;
  if unroll then Sched.unroll out_st xi;
  (match anchor with
  | None -> ()
  | Some a ->
      if a.Sched.s_out.Expr.bscope = Expr.Global then Sched.set_scope sched a Expr.Local;
      Sched.compute_at a ~target:out_st ~level:po;
      let reduce_leaves = List.filter Iter_var.is_reduce a.Sched.s_leaf in
      let rfused = Sched.fuse_list a reduce_leaves in
      let k_total = rfused.Iter_var.extent in
      let rc = min rc k_total in
      require_divides rc k_total;
      let ko, ki = Sched.split a rfused ~factor:rc in
      (* SIMD over the innermost spatial axis of the accumulation: the
         reduction stays innermost-but-one so the MACs vectorize. Axes
         that do not split evenly by the lane count are vectorized
         whole (the model prices the remainder). *)
      let data_axes, vec_axis =
        match (vec, List.rev a.Sched.s_root_axes) with
        | true, last :: _ when last.Iter_var.extent mod 4 = 0 && last.Iter_var.extent > 4 ->
            let lo, li = Sched.split a last ~factor:4 in
            Sched.vectorize a li;
            let axes =
              List.concat_map
                (fun iv -> if Iter_var.equal iv last then [ lo ] else [ iv ])
                a.Sched.s_root_axes
            in
            (axes, Some li)
        | true, last :: _ when last.Iter_var.extent >= 4 ->
            Sched.vectorize a last;
            let axes =
              List.filter (fun iv -> not (Iter_var.equal iv last)) a.Sched.s_root_axes
            in
            (axes, Some last)
        | _ -> (a.Sched.s_root_axes, None)
      in
      (match vec_axis with
      | Some li -> Sched.reorder a ((ko :: data_axes) @ [ ki; li ])
      | None -> Sched.reorder a ((ko :: data_axes) @ [ ki ]));
      if unroll then Sched.unroll a ki);
  List.iter
    (fun st ->
      if Sched.is_root_stage st && (not (st == out_st)) && st.Sched.s_ann = [] then
        default_cpu_root st)
    (Sched.stages sched);
  Lower.lower ~target:Lower.Cpu sched

let cpu_flat ~name (output : Tensor.t) : Tuner.template =
  let shape = Tensor.const_shape output in
  let n = List.fold_left ( * ) 1 shape in
  let k = reduce_depth output in
  {
    Tuner.tpl_name = name;
    tpl_space = cpu_flat_space ~n ~k ~shapes:[ shape; anchor_shape output ];
    tpl_instantiate = (fun cfg -> cpu_flat_instantiate output cfg);
  }

(* ------------------------------------------------------------------ *)
(* Structured GPU matmul template (Fig 7's workload)                    *)
(* ------------------------------------------------------------------ *)

(** 2-D tiled matmul with optional cooperative shared-memory fetching —
    the schedule of §4.2's code example. Expects a 2-D reduction
    output C[y,x] = sum_k. *)
let gpu_matmul_space ~m ~n ~k =
  Cfg_space.space
    [
      Cfg_space.knob "tile_y" (Cfg_space.divisors_upto m 128);
      Cfg_space.knob "tile_x" (Cfg_space.divisors_upto n 128);
      Cfg_space.knob "wy" (Cfg_space.divisors_upto m 32);
      Cfg_space.knob "wx" (Cfg_space.divisors_upto n 32);
      Cfg_space.knob "kf" (Cfg_space.divisors_upto k 64);
      Cfg_space.knob "coop" [ 0; 1 ];
      Cfg_space.knob "unroll" [ 0; 1 ];
    ]

let gpu_matmul_instantiate (c : Tensor.t) cfg : Stmt.t =
  let m, n =
    match Tensor.const_shape c with
    | [ m; n ] -> (m, n)
    | _ -> reject "gpu_matmul: output must be 2-D"
  in
  let ty = Cfg_space.get cfg "tile_y" and tx = Cfg_space.get cfg "tile_x" in
  let wy = Cfg_space.get cfg "wy" and wx = Cfg_space.get cfg "wx" in
  let kf = Cfg_space.get cfg "kf" in
  let coop = Cfg_space.get cfg "coop" = 1 in
  let unroll = Cfg_space.get cfg "unroll" = 1 in
  require_divides ty m;
  require_divides tx n;
  require_divides wy ty;
  require_divides wx tx;
  let sched = Sched.create [ c ] in
  let out_st = Sched.find sched c in
  let cl = Sched.cache_write sched out_st Expr.Local in
  let k_total =
    List.fold_left (fun acc iv -> acc * iv.Iter_var.extent) 1 cl.Sched.s_reduce_axes
  in
  require_divides kf k_total;
  inline_intermediates sched ~keep:[ out_st; cl ];
  let y = Sched.axis out_st 0 and x = Sched.axis out_st 1 in
  let by, ty_i = Sched.split out_st y ~factor:ty in
  let bx, tx_i = Sched.split out_st x ~factor:tx in
  let tyv, yi = Sched.split out_st ty_i ~factor:(ty / wy) in
  let txv, xi = Sched.split out_st tx_i ~factor:(tx / wx) in
  Sched.reorder out_st [ by; bx; tyv; txv; yi; xi ];
  Sched.bind out_st by "blockIdx.y";
  Sched.bind out_st bx "blockIdx.x";
  Sched.bind out_st tyv "threadIdx.y";
  Sched.bind out_st txv "threadIdx.x";
  if unroll then begin
    Sched.unroll out_st yi;
    Sched.unroll out_st xi
  end;
  Sched.compute_at cl ~target:out_st ~level:txv;
  let rfused = Sched.fuse_list cl (List.filter Iter_var.is_reduce cl.Sched.s_leaf) in
  let ko, ki = Sched.split cl rfused ~factor:kf in
  Sched.reorder cl ((ko :: cl.Sched.s_root_axes) @ [ ki ]);
  if unroll then Sched.unroll cl ki;
  if coop then
    List.iter
      (fun (b : Expr.buffer) ->
        let cache = Sched.cache_read sched b Expr.Shared [ cl ] in
        Sched.compute_at cache ~target:cl ~level:ko;
        let cfused = Sched.fuse_list cache cache.Sched.s_leaf in
        (* Distribute the copy over the 2-D thread grid. *)
        let rest, ct_x = Sched.split cache cfused ~factor:wx in
        let _co, ct_y = Sched.split cache rest ~factor:wy in
        Sched.bind cache ct_x "threadIdx.x";
        Sched.bind cache ct_y "threadIdx.y")
      (Sched.read_buffers cl);
  Lower.lower ~target:Lower.Gpu sched

let gpu_matmul ~name (c : Tensor.t) : Tuner.template =
  let m, n =
    match Tensor.const_shape c with [ m; n ] -> (m, n) | _ -> invalid_arg "gpu_matmul"
  in
  let k = reduce_depth c in
  {
    Tuner.tpl_name = name;
    tpl_space = gpu_matmul_space ~m ~n ~k;
    tpl_instantiate = (fun cfg -> gpu_matmul_instantiate c cfg);
  }
