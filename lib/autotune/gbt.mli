(** Gradient-boosted regression trees — the default cost model (§5.2).

    A from-scratch stand-in for XGBoost: depth-bounded regression trees
    grown by exact greedy search on variance reduction over columns
    presorted once per fit, trying at most 16 quantile-midpoint
    thresholds per node and column, combined by shrinkage. Sums run in
    ascending row order, so fitted trees are bit-reproducible. Supports
    both plain regression and the paper's rank objective ("the explorer
    selects the top candidates based only on the relative order of the
    prediction"). *)

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

val default_params : params

val predict : t -> float array -> float

(** Map raw targets to the training targets of the objective; [Rank]
    replaces each value with its normalized rank in [0, 1]. *)
val transform_targets : objective -> float array -> float array

(** Fit a boosted ensemble on [(xs, ys)]; callers typically pass
    [ys = -log time] so that higher is better. With [pool], each
    node's split search fans out over feature columns; the combined
    winner is chosen in column order with the sequential loop's exact
    tie-break, so the fitted model is bit-identical at any domain
    count. *)
val fit : ?params:params -> ?pool:Tvm_par.Pool.t -> float array array -> float array -> t

(** Pairwise ordering accuracy on held-out data — the quantity that
    matters for explorer quality (1.0 = perfect ranking). *)
val rank_accuracy : t -> float array array -> float array -> float
