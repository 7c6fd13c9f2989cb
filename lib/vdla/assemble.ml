(** VDLA code generation: translate a lowered (and vthread-lowered)
    accelerator loop program into the linear VDLA instruction stream.

    "Our code generation algorithm then translates the accelerator
    program to a series of calls into the runtime API" (§6.4) —
    the runtime API here being the {!Isa} instructions the
    discrete-event simulator executes.

    Serial loops with constant extents are fully unrolled (instruction
    order is what the DAE pipeline consumes); loop nests that merely
    copy between an on-chip buffer and DRAM element-by-element are
    collapsed into single DMA transfers. *)

open Tvm_tir

exception Codegen_error of string

(** Recognize a loop nest that only copies elements between
    accelerator buffers and DRAM (possibly several interleaved copies
    after vthread merging); return one transfer per copy statement. *)
let rec as_copy_nest (s : Stmt.t) ~(iters : float) :
    (float * [ `Load | `Store ]) list option =
  let classify dst src =
    let bytes scope_buf = iters *. Dtype.bytes scope_buf.Expr.bdtype in
    let accel b = Expr.is_accel_scope b.Expr.bscope in
    if accel dst && not (accel src) then Some (bytes dst, `Load)
    else if accel src && not (accel dst) then Some (bytes dst, `Store)
    else None
  in
  match s with
  | Stmt.For l -> (
      match Interval.const_of_expr l.Stmt.extent with
      | Some e -> as_copy_nest l.Stmt.body ~iters:(iters *. float_of_int e)
      | None -> None)
  | Stmt.Let_stmt (_, _, b) -> as_copy_nest b ~iters
  | Stmt.Store (dst, _, Expr.Load (src, _)) ->
      ( match classify dst src with Some c -> Some [ c ] | None -> None)
  | Stmt.Seq _ ->
      let items = Stmt.flatten_seq s in
      let copies =
        List.map
          (function
            | Stmt.Store (dst, _, Expr.Load (src, _)) -> classify dst src
            | _ -> None)
          items
      in
      if copies <> [] && List.for_all Option.is_some copies then
        Some (List.map Option.get copies)
      else None
  | Stmt.Store _ | Stmt.If_then_else _ | Stmt.Allocate _ | Stmt.Barrier
  | Stmt.Evaluate _ | Stmt.Call_intrin _ | Stmt.Dma_copy _ | Stmt.Push_dep _
  | Stmt.Pop_dep _ | Stmt.Skip ->
      None

(** On-chip storage demand per scope (bytes), from the allocations. *)
let sram_usage (stmt : Stmt.t) =
  let inp = ref 0. and wgt = ref 0. and acc = ref 0. in
  Stmt.iter
    (function
      | Stmt.Allocate (b, _) -> (
          match b.Expr.bscope with
          | Expr.Accel_inp -> inp := !inp +. Expr.Buffer.size_bytes b
          | Expr.Accel_wgt -> wgt := !wgt +. Expr.Buffer.size_bytes b
          | Expr.Accel_acc -> acc := !acc +. Expr.Buffer.size_bytes b
          | Expr.Global | Expr.Shared | Expr.Local -> ())
      | _ -> ())
    stmt;
  (!inp, !wgt, !acc)

let gemm_shape_of_intrin name =
  let intrin = Tvm_schedule.Tensor_intrin.find name in
  match
    (intrin.Tvm_schedule.Tensor_intrin.output_shape,
     intrin.Tvm_schedule.Tensor_intrin.reduce_extents)
  with
  | [ m; n ], [ k ] -> Some (m, n, k)
  | [ n ], [ k ] -> Some (1, n, k)
  | _ -> None

(** Assemble the instruction stream. *)
let run (stmt : Stmt.t) : Isa.insn list =
  let out = ref [] in
  let emit i = out := i :: !out in
  let rec walk (s : Stmt.t) =
    match as_copy_nest s ~iters:1. with
    | Some copies ->
        List.iter
          (function
            | bytes, `Load -> emit (Isa.Dma_load { bytes; dst_scope = Expr.Accel_inp })
            | bytes, `Store -> emit (Isa.Dma_store { bytes }))
          copies
    | None -> (
        match s with
        | Stmt.For l -> (
            match Interval.const_of_expr l.Stmt.extent with
            | Some e ->
                for _ = 1 to e do
                  walk l.Stmt.body
                done
            | None -> raise (Codegen_error "vdla: non-constant loop extent"))
        | Stmt.Seq ss -> List.iter walk ss
        | Stmt.Allocate (_, b) | Stmt.Let_stmt (_, _, b) -> walk b
        | Stmt.If_then_else (_, t, e) ->
            walk t;
            Option.iter walk e
        | Stmt.Dma_copy d ->
            let elems = List.fold_left ( * ) 1 d.Stmt.dma_extents in
            if Expr.is_accel_scope d.Stmt.dma_dst.Expr.bscope then
              emit
                (Isa.Dma_load
                   { bytes = float_of_int elems *. Dtype.bytes d.Stmt.dma_dst.Expr.bdtype;
                     dst_scope = d.Stmt.dma_dst.Expr.bscope })
            else
              emit
                (Isa.Dma_store
                   { bytes = float_of_int elems *. Dtype.bytes d.Stmt.dma_src.Expr.bdtype })
        | Stmt.Call_intrin ic -> (
            match gemm_shape_of_intrin ic.Stmt.intrin_name with
            | Some (m, n, k) ->
                if ic.Stmt.variant = "reset" then
                  emit (Isa.Alu { elems = m * n })
                else emit (Isa.Gemm { m; n; k })
            | None -> emit (Isa.Alu { elems = 256 }))
        | Stmt.Push_dep (a, b) ->
            emit (Isa.Push { from_ = Isa.unit_of_pipe a; to_ = Isa.unit_of_pipe b })
        | Stmt.Pop_dep (a, b) ->
            emit (Isa.Pop { from_ = Isa.unit_of_pipe a; to_ = Isa.unit_of_pipe b })
        | Stmt.Store _ | Stmt.Evaluate _ ->
            (* Residual scalar work (e.g. guard arithmetic): price as ALU. *)
            emit (Isa.Alu { elems = 1 })
        | Stmt.Barrier | Stmt.Skip -> ())
  in
  walk stmt;
  List.rev !out
