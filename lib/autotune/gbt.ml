(** Gradient-boosted regression trees — the default cost model (§5.2).

    A from-scratch stand-in for XGBoost [8]: depth-bounded regression
    trees grown by exact greedy search on variance reduction, combined
    by shrinkage. As in XGBoost's exact greedy method, each feature
    column is presorted once per fit; a node tries at most 16
    candidate thresholds per column, the midpoints between quantiles
    of its distinct values. Every sum runs over a node's rows in
    ascending row order, so the fitted trees are fixed to the bit.
    Supports the paper's two objectives: plain regression on the score,
    and a rank objective that fits within-dataset rank positions — the
    explorer "selects the top candidates based only on the relative
    order of the prediction". *)

type objective = Regression | Rank

type tree =
  | Leaf of float
  | Node of { feature : int; threshold : float; left : tree; right : tree }

type t = {
  trees : tree list;  (** applied in order, already scaled by shrinkage *)
  base : float;
  objective : objective;
}

type params = {
  n_trees : int;
  max_depth : int;
  learning_rate : float;
  min_samples : int;  (** minimum samples to attempt a split *)
  obj : objective;
}

let default_params =
  { n_trees = 40; max_depth = 5; learning_rate = 0.3; min_samples = 4; obj = Rank }

let rec predict_tree tree (x : float array) =
  match tree with
  | Leaf v -> v
  | Node n ->
      if x.(n.feature) <= n.threshold then predict_tree n.left x
      else predict_tree n.right x

let predict model x =
  List.fold_left (fun acc tree -> acc +. predict_tree tree x) model.base model.trees

(* ------------------------------------------------------------------ *)
(* Tree growing                                                        *)
(* ------------------------------------------------------------------ *)

(* Per-fit split-search state. Columns are copied and presorted once
   per fit; a node is a segment [lo, hi) of [rows], kept in ascending
   row order, and [mark] flags the rows of the node being searched.
   Column searches read [mark] from every domain; only [best_split]
   writes it, before and after they run. *)
type search = {
  cols : float array array;  (** [cols.(f).(i)] = feature [f] of row [i] *)
  sorted : int array array;  (** each column's rows, ascending under [Float.compare] *)
  values : float array array;  (** per-column scratch: a node's distinct values *)
  mark : bool array;
  rows : int array;
  spill : int array;  (** scratch for the right side of a partition *)
}

let search_of (xs : float array array) =
  let n = Array.length xs in
  let cols = Array.init (Array.length xs.(0)) (fun f -> Array.init n (fun i -> xs.(i).(f))) in
  let sort col =
    let order = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Float.compare col.(a) col.(b)) order;
    order
  in
  {
    cols;
    sorted = Array.map sort cols;
    values = Array.map (fun _ -> Array.make n 0.) cols;
    mark = Array.make n false;
    rows = Array.make n 0;
    spill = Array.make n 0;
  }

(* Every float reduction below adds the node's rows in ascending row
   order, and squares deviations with [**] (libm [pow]). [d *. d]
   rounds differently on about 1 in 1,200 doubles (glibc 2.36), which
   can flip a near-tie between two gains and so change a tree. *)
let mean st (r : float array) lo hi =
  let s = ref 0. in
  for k = lo to hi - 1 do
    s := !s +. r.(st.rows.(k))
  done;
  !s /. float_of_int (hi - lo)

let sse st (r : float array) lo hi m =
  let s = ref 0. in
  for k = lo to hi - 1 do
    s := !s +. ((r.(st.rows.(k)) -. m) ** 2.)
  done;
  !s

(* Best split within one feature column. The node's distinct values
   are the marked entries of the presorted column with repeats dropped;
   its candidate thresholds are up to 16 midpoints between their
   quantiles, which come out ascending, so each is tried once, in
   ascending order, keeping the first strictly-best gain. Only the
   domain searching column [f] writes [st.values.(f)]. *)
let column_best st (r : float array) lo hi total_sse f =
  let col = st.cols.(f) and order = st.sorted.(f) and values = st.values.(f) in
  let nv = ref 0 in
  for j = 0 to Array.length order - 1 do
    let i = order.(j) in
    if st.mark.(i) && (!nv = 0 || Float.compare col.(i) values.(!nv - 1) <> 0) then begin
      values.(!nv) <- col.(i);
      incr nv
    end
  done;
  let nv = !nv in
  let found = ref false and best_gain = ref 0. and best_t = ref 0. in
  let num = min 16 (nv - 1) and last_t = ref 0. in
  for q = 0 to num - 1 do
    let pos = max 1 (min (nv - 1) ((q + 1) * nv / (num + 1))) in
    let t = (values.(pos - 1) +. values.(pos)) /. 2. in
    if q = 0 || Float.compare t !last_t <> 0 then begin
      let sl = ref 0. and nl = ref 0 and sr = ref 0. in
      for k = lo to hi - 1 do
        let i = st.rows.(k) in
        if col.(i) <= t then begin
          sl := !sl +. r.(i);
          incr nl
        end
        else sr := !sr +. r.(i)
      done;
      let nl = !nl and nr = hi - lo - !nl in
      if nl > 0 && nr > 0 then begin
        let ml = !sl /. float_of_int nl and mr = !sr /. float_of_int nr in
        let el = ref 0. and er = ref 0. in
        for k = lo to hi - 1 do
          let i = st.rows.(k) in
          if col.(i) <= t then el := !el +. ((r.(i) -. ml) ** 2.)
          else er := !er +. ((r.(i) -. mr) ** 2.)
        done;
        let gain = total_sse -. !el -. !er in
        if not (!found && !best_gain >= gain) then begin
          found := true;
          best_gain := gain;
          best_t := t
        end
      end
    end;
    last_t := t
  done;
  if !found then Some (!best_gain, f, !best_t) else None

(* Combine per-column winners in ascending feature order with the same
   strictly-greater rule, which reproduces the sequential loop's result
   exactly — so split search parallelizes over feature columns (§5.2's
   training hot loop) without changing a single tree. *)
let pick_best acc cand =
  match (acc, cand) with
  | _, None -> acc
  | None, c -> c
  | Some (g0, _, _), Some (g, _, _) -> if g0 >= g then acc else cand

let best_split ~pool st r lo hi total_sse =
  for k = lo to hi - 1 do
    st.mark.(st.rows.(k)) <- true
  done;
  let n_features = Array.length st.cols in
  (* Fan out only when the node is big enough for the split search to
     dwarf the fork-join overhead; the guard depends only on data
     sizes, so results are identical either way. *)
  let best =
    if Tvm_par.Pool.domains pool > 1 && n_features > 1 && hi - lo >= 64 then
      Tvm_par.Pool.parallel_reduce pool
        ~map:(column_best st r lo hi total_sse)
        ~combine:pick_best ~init:None
        (Array.init n_features Fun.id)
    else begin
      let best = ref None in
      for f = 0 to n_features - 1 do
        best := pick_best !best (column_best st r lo hi total_sse f)
      done;
      !best
    end
  in
  for k = lo to hi - 1 do
    st.mark.(st.rows.(k)) <- false
  done;
  best

(* Stable partition of the segment on [col.(i) <= t]: both sides keep
   ascending row order. Returns the boundary. *)
let partition st f t lo hi =
  let col = st.cols.(f) in
  let nl = ref lo and nr = ref 0 in
  for k = lo to hi - 1 do
    let i = st.rows.(k) in
    if col.(i) <= t then begin
      st.rows.(!nl) <- i;
      incr nl
    end
    else begin
      st.spill.(!nr) <- i;
      incr nr
    end
  done;
  Array.blit st.spill 0 st.rows !nl !nr;
  !nl

let rec grow_tree ~pool params st r lo hi depth =
  let m = mean st r lo hi in
  if depth >= params.max_depth || hi - lo < params.min_samples then Leaf m
  else
    match best_split ~pool st r lo hi (sse st r lo hi m) with
    | Some (gain, feature, threshold) when gain > 1e-12 ->
        let mid = partition st feature threshold lo hi in
        let left = grow_tree ~pool params st r lo mid (depth + 1) in
        let right = grow_tree ~pool params st r mid hi (depth + 1) in
        Node { feature; threshold; left; right }
    | Some _ | None -> Leaf m

let rec scale_tree factor = function
  | Leaf v -> Leaf (v *. factor)
  | Node n ->
      Node { n with left = scale_tree factor n.left; right = scale_tree factor n.right }

(** Transform raw targets according to the objective. Rank maps each
    target to its normalized rank in [0,1] (1 = best/lowest cost is up
    to the caller's sign convention; we preserve ordering). *)
let transform_targets obj (ys : float array) =
  match obj with
  | Regression -> Array.copy ys
  | Rank ->
      let n = Array.length ys in
      let order = Array.init n Fun.id in
      Array.sort (fun a b -> compare ys.(a) ys.(b)) order;
      let out = Array.make n 0. in
      Array.iteri
        (fun rank i -> out.(i) <- float_of_int rank /. float_of_int (max 1 (n - 1)))
        order;
      out

(** Fit a boosted ensemble on [(xs, ys)]. Callers typically pass
    [ys = score] where higher is better (e.g. -log time). *)
let fit ?(params = default_params) ?(pool = Tvm_par.Pool.sequential)
    (xs : float array array) (ys : float array) : t =
  let n = Array.length xs in
  if n = 0 then { trees = []; base = 0.; objective = params.obj }
  else begin
    let targets = transform_targets params.obj ys in
    let base = Array.fold_left ( +. ) 0. targets /. float_of_int n in
    let preds = Array.make n base in
    let st = search_of xs in
    let trees = ref [] in
    (* Boosting is sequential by construction (each tree fits the
       previous ensemble's residuals); the parallelism lives inside
       [best_split]'s per-column search. *)
    for _ = 1 to params.n_trees do
      let residuals = Array.init n (fun i -> targets.(i) -. preds.(i)) in
      (* The root holds every row, ascending; growing permutes [rows]. *)
      Array.iteri (fun i _ -> st.rows.(i) <- i) st.rows;
      let tree = grow_tree ~pool params st residuals 0 n 0 in
      let tree = scale_tree params.learning_rate tree in
      Array.iteri (fun i x -> preds.(i) <- preds.(i) +. predict_tree tree x) xs;
      trees := tree :: !trees
    done;
    { trees = List.rev !trees; base; objective = params.obj }
  end

(** Kendall-style pairwise ordering accuracy on held-out data; the
    quantity that matters for explorer quality. *)
let rank_accuracy model xs (ys : float array) =
  let n = Array.length xs in
  let preds = Array.map (predict model) xs in
  let correct = ref 0 and total = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if ys.(i) <> ys.(j) then begin
        incr total;
        if (ys.(i) < ys.(j)) = (preds.(i) < preds.(j)) then incr correct
      end
    done
  done;
  if !total = 0 then 1. else float_of_int !correct /. float_of_int !total
