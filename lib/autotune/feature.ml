(** Loop-program feature extraction for the ML cost model (§5.2,
    Fig 13).

    Features per configuration: overall arithmetic volume, loop
    annotation one-hots, and — for each of the top-traffic buffers —
    the access count, the touched memory size at the whole-nest and
    innermost levels, reuse ratio, and unit-stride flags. These are the
    paper's "memory access count and reuse ratio of each memory buffer
    at each loop level" in a fixed-length encoding suitable for
    gradient tree boosting. All of them are read off one
    {!Analysis.program} walk of the program. *)

open Tvm_tir

let num_buffer_slots = 5
let per_buffer_feats = 6

let length = 10 + (num_buffer_slots * per_buffer_feats)

let log1 x = Float.log (1. +. Float.max 0. x)

(** Extract the feature vector of a lowered program. *)
let extract (stmt : Stmt.t) : float array =
  let feats = Array.make length 0. in
  let p = Analysis.program ~intrin_flops:Tvm_schedule.Tensor_intrin.flops_of stmt in
  feats.(0) <- log1 p.Analysis.flops;
  (* Loop annotation counts. *)
  List.iter
    (fun (site : Analysis.loop_site) ->
      let slot =
        match site.Analysis.site_kind with
        | Stmt.Parallel -> 1
        | Stmt.Vectorized -> 2
        | Stmt.Unrolled -> 3
        | Stmt.Thread_binding _ -> 4
        | Stmt.Vthread -> 5
        | Stmt.Serial -> 6
      in
      feats.(slot) <- feats.(slot) +. 1.)
    p.Analysis.loops;
  (* Allocation scopes and barriers. *)
  feats.(7) <- log1 (Analysis.alloc_bytes p Expr.Shared);
  feats.(8) <- log1 (Analysis.alloc_bytes p Expr.Local);
  feats.(9) <- float_of_int (List.length p.Analysis.barriers);
  (* Per-buffer aggregates, largest traffic first. *)
  let by_buffer = Hashtbl.create 8 in
  List.iter
    (fun (a : Analysis.access) ->
      let key = a.Analysis.acc_buffer.Expr.bid in
      Hashtbl.replace by_buffer key
        (a :: (try Hashtbl.find by_buffer key with Not_found -> [])))
    p.Analysis.accesses;
  let summaries =
    Hashtbl.fold
      (fun _ accs acc ->
        let count =
          List.fold_left
            (fun s a -> s +. (float_of_int a.Analysis.acc_count *. a.Analysis.acc_weight))
            0. accs
        in
        let whole =
          List.fold_left
            (fun s a -> Float.max s (Analysis.footprint_bytes_at_level a 0))
            0. accs
        in
        let innermost =
          List.fold_left
            (fun s a ->
              let depth = List.length a.Analysis.acc_loops in
              Float.max s (Analysis.footprint_bytes_at_level a (max 0 (depth - 1))))
            0. accs
        in
        let unit =
          if List.for_all Analysis.is_unit_stride_innermost accs then 1. else 0.
        in
        let is_global =
          match accs with
          | a :: _ when a.Analysis.acc_buffer.Expr.bscope = Expr.Global -> 1.
          | _ -> 0.
        in
        (count, whole, innermost, unit, is_global) :: acc)
      by_buffer []
    |> List.sort (fun (c1, w1, i1, u1, g1) (c2, w2, i2, u2, g2) ->
           (* fully deterministic ordering: hashtable iteration order
              must not leak into the feature vector *)
           compare (c2, w2, i2, u2, g2) (c1, w1, i1, u1, g1))
  in
  List.iteri
    (fun i (count, whole, innermost, unit, is_global) ->
      if i < num_buffer_slots then begin
        let base = 10 + (i * per_buffer_feats) in
        feats.(base) <- log1 count;
        feats.(base + 1) <- log1 whole;
        feats.(base + 2) <- log1 innermost;
        feats.(base + 3) <- unit;
        feats.(base + 4) <- is_global;
        feats.(base + 5) <- if whole > 0. then log1 (count /. whole) else 0.
      end)
    summaries;
  feats
