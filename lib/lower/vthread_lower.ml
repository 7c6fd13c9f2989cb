(** Virtual-thread lowering (§4.4, Fig 8).

    Transforms a virtual-thread-parallel program into a single
    instruction stream containing explicit low-level synchronization
    (dependence-token push/pop between the DAE pipeline stages) that the
    accelerator can interpret to recover pipeline parallelism:

    + each vthread loop is unrolled; every unrolled copy gets private
      on-chip buffers (the CL[8] → CL[2][8] duplication of Fig 8),
    + within each thread, RAW/WAR ordering is enforced conservatively
      from program order: consecutive operations on different pipeline
      units get a push after the earlier and a pop before the later, and
      loop-carried cross-unit edges are primed before the loop and
      drained after it (exactly the paper's [ex.push_dep_to(ld)]
      pre-loop pushes),
    + the per-thread streams are interleaved positionally, merging
      loops of equal extent so that thread 1's loads sit between thread
      0's loads and computes.

    With a single thread the tokens serialize the pipeline (Fig 9's
    monolithic behaviour); with two or more threads the load of one
    thread overlaps the compute of another — latency hiding emerges in
    the {!Tvm_vdla} discrete-event simulator rather than being assumed. *)

open Tvm_tir

(** Which DAE pipeline unit executes this statement, if any. *)
let pipe_of (s : Stmt.t) : Stmt.pipe option =
  match s with
  | Stmt.Dma_copy d ->
      if Expr.is_accel_scope d.Stmt.dma_dst.Expr.bscope then Some Stmt.Ld
      else if Expr.is_accel_scope d.Stmt.dma_src.Expr.bscope then Some Stmt.St
      else None
  | Stmt.Call_intrin _ -> Some Stmt.Ex
  | Stmt.Store _ | Stmt.For _ | Stmt.If_then_else _ | Stmt.Let_stmt _ | Stmt.Seq _
  | Stmt.Allocate _ | Stmt.Barrier | Stmt.Evaluate _ | Stmt.Push_dep _
  | Stmt.Pop_dep _ | Stmt.Skip ->
      None

(* ------------------------------------------------------------------ *)
(* Buffer freshening (per-vthread private buffers)                      *)
(* ------------------------------------------------------------------ *)

let freshen_buffers suffix stmt =
  let rec walk s =
    match s with
    | Stmt.Allocate (b, body) ->
        let fresh =
          Expr.Buffer.create ~scope:b.Expr.bscope ~dtype:b.Expr.bdtype
            (b.Expr.bname ^ suffix) b.Expr.bshape
        in
        let body =
          Visit.retarget_buffer ~old_b:b ~new_b:fresh ~remap:Fun.id body
        in
        Stmt.Allocate (fresh, walk body)
    | Stmt.For l -> Stmt.For { l with Stmt.body = walk l.Stmt.body }
    | Stmt.If_then_else (c, t, e) -> Stmt.If_then_else (c, walk t, Option.map walk e)
    | Stmt.Let_stmt (v, e, b) -> Stmt.Let_stmt (v, e, walk b)
    | Stmt.Seq ss -> Stmt.Seq (List.map walk ss)
    | Stmt.Store _ | Stmt.Barrier | Stmt.Evaluate _ | Stmt.Call_intrin _
    | Stmt.Dma_copy _ | Stmt.Push_dep _ | Stmt.Pop_dep _ | Stmt.Skip ->
        s
  in
  walk stmt

(* ------------------------------------------------------------------ *)
(* Interleaving                                                         *)
(* ------------------------------------------------------------------ *)

(** A token-wrapped pipeline op (e.g. [Seq [Pop; dma; Push]]) must stay
    contiguous in the merged stream; interleaving must not split it. *)
let is_op_group (s : Stmt.t) =
  match s with
  | Stmt.Seq items ->
      let ops, others =
        List.partition (fun i -> pipe_of i <> None) items
      in
      List.length ops = 1
      && List.for_all
           (function Stmt.Push_dep _ | Stmt.Pop_dep _ -> true | _ -> false)
           others
  | _ -> false

let rec interleave (a : Stmt.t) (b : Stmt.t) : Stmt.t =
  match (a, b) with
  | Stmt.Skip, s | s, Stmt.Skip -> s
  | _ when is_op_group a || is_op_group b -> Stmt.seq [ a; b ]
  | Stmt.Allocate (buf, body), other -> Stmt.Allocate (buf, interleave body other)
  | other, Stmt.Allocate (buf, body) -> Stmt.Allocate (buf, interleave other body)
  | Stmt.For la, Stmt.For lb
    when la.Stmt.kind = Stmt.Serial && lb.Stmt.kind = Stmt.Serial
         && Expr.equal la.Stmt.extent lb.Stmt.extent
         && Expr.equal la.Stmt.min_ lb.Stmt.min_ ->
      let body_b =
        Visit.subst_var_stmt lb.Stmt.loop_var (Expr.Var la.Stmt.loop_var) lb.Stmt.body
      in
      Stmt.For { la with Stmt.body = interleave la.Stmt.body body_b }
  | Stmt.Seq xs, Stmt.Seq ys ->
      (* Alternate same-pipe runs: all of one thread's consecutive loads,
         then the other's, then the computes — the granularity of Fig 8.
         Items spanning several pipeline units (nested loops) are merged
         recursively with their positional partner. *)
      let pipes_of item =
        let acc = ref [] in
        Stmt.iter
          (fun s ->
            match pipe_of s with
            | Some p -> if not (List.mem p !acc) then acc := p :: !acc
            | None -> ())
          item;
        !acc
      in
      let rec runs = function
        | [] -> []
        | item :: rest -> (
            match pipes_of item with
            | [ p ] -> (
                match runs rest with
                | `Run (q, items) :: tail when q = p -> `Run (p, item :: items) :: tail
                | tail -> `Run (p, [ item ]) :: tail)
            | [] -> (
                (* Op-free statements ride with the following run. *)
                match runs rest with
                | `Run (q, items) :: tail -> `Run (q, item :: items) :: tail
                | tail -> `Run (Stmt.Ex, [ item ]) :: tail)
            | _ -> `Mixed item :: runs rest)
      in
      let rec zip_runs xs ys =
        match (xs, ys) with
        | [], rest | rest, [] ->
            List.concat_map
              (function `Run (_, items) -> items | `Mixed item -> [ item ])
              rest
        | `Mixed x :: xs', `Mixed y :: ys' -> interleave x y :: zip_runs xs' ys'
        | `Run (_, xi) :: xs', `Run (_, yi) :: ys' -> xi @ yi @ zip_runs xs' ys'
        | `Run (_, xi) :: xs', (`Mixed _ :: _ as ys') -> xi @ zip_runs xs' ys'
        | (`Mixed _ :: _ as xs'), `Run (_, yi) :: ys' -> yi @ zip_runs xs' ys'
      in
      Stmt.seq (zip_runs (runs xs) (runs ys))
  | Stmt.Seq xs, other -> interleave (Stmt.Seq xs) (Stmt.Seq [ other ])
  | other, Stmt.Seq ys -> interleave (Stmt.Seq [ other ]) (Stmt.Seq ys)
  | _, _ -> Stmt.seq [ a; b ]

(* ------------------------------------------------------------------ *)
(* Per-thread synchronization insertion                                 *)
(* ------------------------------------------------------------------ *)

(** Transform [s], returning [(s', first_pipe, last_pipe)] where the
    pipes describe the first and last pipeline operations issued by
    [s'] in stream order. The vthread case unrolls, syncs each copy
    independently, and interleaves — outer levels then only add tokens
    at the merged block's boundary. *)
let rec sync (s : Stmt.t) : Stmt.t * Stmt.pipe option * Stmt.pipe option =
  match pipe_of s with
  | Some p -> (s, Some p, Some p)
  | None -> (
      match s with
      | Stmt.For { kind = Stmt.Vthread; loop_var; extent; body; _ } ->
          let n =
            match extent with
            | Expr.IntImm n -> n
            | _ -> invalid_arg "vthread extent must be constant"
          in
          let copies =
            List.init n (fun i ->
                let c = Visit.subst_var_stmt loop_var (Expr.IntImm i) body in
                let c = freshen_buffers (Printf.sprintf "_vt%d" i) c in
                let c', _, _ = sync c in
                c')
          in
          let merged = List.fold_left interleave Stmt.Skip copies in
          (* Boundary pipes of the merged stream. *)
          let first = first_pipe merged and last = last_pipe merged in
          (merged, first, last)
      | Stmt.For l ->
          let body, first, last = sync l.Stmt.body in
          (* Attach a token to the first/last op group of a statement,
             descending through allocations and sequences so the token
             stays adjacent to its op in the merged stream. Loops are
             not entered: a token beside a loop fires once, inside it
             would fire per iteration. *)
          let rec attach_front tok stmt =
            match stmt with
            | Stmt.Seq (x :: rest) -> Stmt.Seq (attach_front tok x :: rest)
            | Stmt.Allocate (b, body) -> Stmt.Allocate (b, attach_front tok body)
            | Stmt.Let_stmt (v, e, body) -> Stmt.Let_stmt (v, e, attach_front tok body)
            | other -> Stmt.seq (tok :: Stmt.flatten_seq other)
          in
          let rec attach_back tok stmt =
            match stmt with
            | Stmt.Seq items when items <> [] ->
                let rec go = function
                  | [ x ] -> [ attach_back tok x ]
                  | x :: rest -> x :: go rest
                  | [] -> []
                in
                Stmt.Seq (go items)
            | Stmt.Allocate (b, body) -> Stmt.Allocate (b, attach_back tok body)
            | Stmt.Let_stmt (v, e, body) -> Stmt.Let_stmt (v, e, attach_back tok body)
            | other -> Stmt.seq (Stmt.flatten_seq other @ [ tok ])
          in
          let wrapped, prime =
            match (first, last) with
            | Some p, Some q when p <> q ->
                (* Cross-iteration edge: iteration k+1's first unit must
                   wait for iteration k's last unit. *)
                ( attach_back (Stmt.Push_dep (q, p))
                    (attach_front (Stmt.Pop_dep (q, p)) body),
                  Some (q, p) )
            | _ -> (body, None)
          in
          let loop = Stmt.For { l with Stmt.body = wrapped } in
          let out =
            match prime with
            | Some (q, p) ->
                Stmt.seq [ Stmt.Push_dep (q, p); loop; Stmt.Pop_dep (q, p) ]
            | None -> loop
          in
          (out, first, last)
      | Stmt.Seq items ->
          let processed = List.map sync items in
          (* Stitch: between a block ending on pipe Q and the next block
             starting on pipe P (P<>Q), push right after the former and
             pop right before the latter. Tokens are grouped with their
             op so interleaving keeps them adjacent — this is what lets
             thread 1's loads slide between thread 0's loads and
             computes in the merged stream (Fig 8). *)
          let arr = Array.of_list processed in
          let n_items = Array.length arr in
          let prev_last = Array.make n_items None in
          let running = ref None in
          Array.iteri
            (fun i (_, _, last) ->
              prev_last.(i) <- !running;
              match last with Some _ -> running := last | None -> ())
            arr;
          let stmts =
            Array.to_list
              (Array.mapi
                 (fun i (stmt, first, _) ->
                   match (prev_last.(i), first) with
                   | Some q, Some p when p <> q ->
                       (* Also mark the previous op group with a push. *)
                       Stmt.seq [ Stmt.Pop_dep (q, p); stmt ]
                   | _ -> stmt)
                 arr)
          in
          (* Insert the matching pushes after the producing groups. *)
          let stmts =
            List.mapi
              (fun i stmt ->
                (* Does any later group first-op depend on this group's last op? *)
                let _, _, last_i = arr.(i) in
                match last_i with
                | None -> stmt
                | Some q ->
                    (* Find the next group with an op; if its first pipe
                       differs, this group must push to it. *)
                    let rec next j =
                      if j >= n_items then None
                      else
                        let _, first_j, _ = arr.(j) in
                        match first_j with Some p -> Some p | None -> next (j + 1)
                    in
                    (match next (i + 1) with
                    | Some p when p <> q ->
                        Stmt.seq (Stmt.flatten_seq stmt @ [ Stmt.Push_dep (q, p) ])
                    | _ -> stmt))
              stmts
          in
          let firsts = List.filter_map (fun (_, f, _) -> f) processed in
          let lasts = List.filter_map (fun (_, _, l) -> l) processed in
          let first = match firsts with [] -> None | f :: _ -> Some f in
          let last = match List.rev lasts with [] -> None | l :: _ -> Some l in
          (Stmt.seq stmts, first, last)
      | Stmt.Allocate (b, body) ->
          let body, first, last = sync body in
          (Stmt.Allocate (b, body), first, last)
      | Stmt.If_then_else (c, t, e) ->
          (* Control flow around pipeline ops is not generated for the
             accelerator path; keep it opaque. *)
          (Stmt.If_then_else (c, t, e), None, None)
      | Stmt.Let_stmt (v, e, body) ->
          let body, first, last = sync body in
          (Stmt.Let_stmt (v, e, body), first, last)
      | Stmt.Store _ | Stmt.Barrier | Stmt.Evaluate _ | Stmt.Push_dep _
      | Stmt.Pop_dep _ | Stmt.Skip | Stmt.Call_intrin _ | Stmt.Dma_copy _ ->
          (s, None, None))

and first_pipe s =
  let found = ref None in
  (try
     Stmt.iter
       (fun s ->
         match pipe_of s with
         | Some p ->
             found := Some p;
             raise Exit
         | None -> ())
       s
   with Exit -> ());
  !found

and last_pipe s =
  let found = ref None in
  Stmt.iter (fun s -> match pipe_of s with Some p -> found := Some p | None -> ()) s;
  !found

(** Run the pass: returns the single instruction stream with explicit
    synchronization, ready for the VDLA simulator. *)
let run (s : Stmt.t) : Stmt.t =
  let s', _, _ = sync s in
  s'

(** Count virtual-thread loops (used by tests and diagnostics). *)
let count_vthreads s =
  let n = ref 0 in
  Stmt.iter
    (function
      | Stmt.For { kind = Stmt.Vthread; _ } -> incr n
      | _ -> ())
    s;
  !n
