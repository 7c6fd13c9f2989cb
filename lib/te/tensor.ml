(** The declarative tensor expression language (§4.1).

    Each operation describes the shape of its output and an index
    formula for each element — "execution details are unspecified".
    A separate schedule (see {!Tvm_schedule}) decides loop structure.

    Mirroring the paper's example:
    {[
      let a = placeholder "A" [ m; h ] in
      let b = placeholder "B" [ n; h ] in
      let k = reduce_axis ~name:"k" h in
      let c =
        compute "C" [ m; n ] (fun [ y; x ] ->
            sum (read a [ rvar k; y ] * read b [ rvar k; x ]) [ k ])
    ]} *)

open Tvm_tir

(** Reduction combiners supported by the operator library. *)
type combiner = Sum | Max_comb | Min_comb

type raxis = { rvar : Expr.var; rmin : int; rextent : int }

(** The body of a compute op: either a plain index expression, or a
    reduction of a source expression over reduction axes. *)
type reduce_body = {
  comb : combiner;
  init : Expr.t;
  src : Expr.t;
  raxes : raxis list;
}

type body =
  | Value of Expr.t
  | Reduce of reduce_body

type t = {
  tname : string;
  tid : int;
  shape : Expr.t list;
  dtype : Dtype.t;
  buffer : Expr.buffer;  (** output storage of this operation *)
  op : op;
}

and op =
  | Placeholder
  | Compute of compute

and compute = {
  axes : Expr.var list;  (** one data-parallel axis per output dim *)
  body : body;
  inputs : t list;  (** tensors read by [body], in discovery order *)
}

(* Atomic + mutex: cache stages are created from parallel tuner
   workers (template instantiation under Tvm_par), so tensor ids must
   stay unique and the registry structurally sound across domains. *)
let counter = Atomic.make 0

let fresh_tid () = 1 + Atomic.fetch_and_add counter 1

(* Registry mapping buffer ids back to tensors, so that [compute] can
   discover its inputs from the loads appearing in the body. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let find_by_buffer (b : Expr.buffer) =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.find_opt registry b.Expr.bid)

let register t =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.replace registry t.buffer.Expr.bid t)

let name t = t.tname
let shape t = t.shape
let dtype t = t.dtype
let buffer t = t.buffer
let equal a b = a.tid = b.tid
let compare a b = compare a.tid b.tid

let const_shape t =
  List.map
    (fun e ->
      match Interval.const_of_expr e with
      | Some n -> n
      | None -> invalid_arg (Printf.sprintf "Tensor.const_shape %s: symbolic" t.tname))
    t.shape

let inputs t = match t.op with Placeholder -> [] | Compute c -> c.inputs

(** Transitive producers of [t] (inputs before consumers), deduplicated,
    [t] last — the order lowering emits stages in. *)
let topo_order (roots : t list) : t list =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec visit t =
    if not (Hashtbl.mem seen t.tid) then begin
      Hashtbl.replace seen t.tid ();
      List.iter visit (inputs t);
      out := t :: !out
    end
  in
  List.iter visit roots;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let placeholder ?(dtype = Dtype.Float32) name shape =
  let buffer = Expr.Buffer.create ~dtype name shape in
  let t =
    { tname = name; tid = fresh_tid (); shape; dtype; buffer; op = Placeholder }
  in
  register t;
  t

(** Read tensor [t] at [indices] inside a compute body. *)
let read t indices = Expr.Load (t.buffer, indices)

let reduce_axis ?(min = 0) ~name extent = { rvar = Expr.Var.fresh name; rmin = min; rextent = extent }

let rvar r = Expr.Var r.rvar

let combiner_init dtype = function
  | Sum -> if Dtype.is_float dtype then Expr.FloatImm 0. else Expr.IntImm 0
  | Max_comb -> if Dtype.is_float dtype then Expr.FloatImm (-1e30) else Expr.IntImm min_int
  | Min_comb -> if Dtype.is_float dtype then Expr.FloatImm 1e30 else Expr.IntImm max_int

let apply_combiner comb acc v =
  match comb with
  | Sum -> Expr.binop Expr.Add acc v
  | Max_comb -> Expr.binop Expr.Max acc v
  | Min_comb -> Expr.binop Expr.Min acc v

let discover_inputs (exprs : Expr.t list) : t list =
  let bufs =
    List.concat_map Visit.loaded_buffers exprs |> List.sort_uniq Expr.Buffer.compare
  in
  List.filter_map find_by_buffer bufs

let make_compute ?(dtype = Dtype.Float32) name shape axes body extra_exprs =
  let buffer = Expr.Buffer.create ~dtype name shape in
  let inputs =
    match body with
    | Value e -> discover_inputs (e :: extra_exprs)
    | Reduce r -> discover_inputs (r.src :: r.init :: extra_exprs)
  in
  let t =
    { tname = name; tid = fresh_tid (); shape; dtype; buffer;
      op = Compute { axes; body; inputs } }
  in
  register t;
  t

let fresh_axes shape =
  List.mapi (fun i _ -> Expr.Var.fresh (Printf.sprintf "ax%d" i)) shape

(** [compute name shape f]: [f] receives one index variable per output
    dimension and returns the element expression. *)
let compute ?dtype name shape (f : Expr.t list -> Expr.t) =
  let axes = fresh_axes shape in
  let body = Value (f (List.map Expr.var axes)) in
  make_compute ?dtype name shape axes body []

(** [compute_reduce name shape ~axes:raxes ~comb f]: reduction op. [f]
    receives the output index variables and returns the source
    expression, which may mention the reduction axis variables. *)
let compute_reduce ?dtype ?(comb = Sum) ?init name shape ~raxes
    (f : Expr.t list -> Expr.t) =
  let axes = fresh_axes shape in
  let dt = match dtype with Some d -> d | None -> Dtype.Float32 in
  let init = match init with Some i -> i | None -> combiner_init dt comb in
  let body = Reduce { comb; init; src = f (List.map Expr.var axes); raxes } in
  make_compute ?dtype name shape axes body []

(** Shorthand used by operator definitions: a sum-reduction body. *)
let sum src raxes = `Reduce (Sum, src, raxes)

(** Arity check helper for the interpreter and lowering. *)
let rank t = List.length t.shape

(** Approximate FLOP count of producing every element of [t] once,
    used for rooflines and GOPS reporting. *)
let op_flops t =
  match t.op with
  | Placeholder -> 0.
  | Compute c ->
      let out_elems = List.fold_left ( * ) 1 (const_shape t) |> float_of_int in
      let body_flops, red_iters =
        match c.body with
        | Value e -> (Analysis.expr_flops e, 1.)
        | Reduce r ->
            let iters =
              List.fold_left (fun acc a -> acc *. float_of_int a.rextent) 1. r.raxes
            in
            (Analysis.expr_flops r.src +. 1., iters)
      in
      out_elems *. body_flops *. red_iters
