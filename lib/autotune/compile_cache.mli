(** Cross-trial feature memo: canonical configuration → [Invalid] or
    the feature vector of its lowered program — the cost-model hot path
    (§5.2). Prediction must stay thousands of times cheaper than
    measurement, so the SA explorer's revisits and the tuner's prepare
    phase both look configurations up here instead of re-lowering them
    only to featurize them again.

    Features are extracted on demand. A configuration whose row no
    reader has asked for yet is [Pending]: it holds its lowered program
    until the first read — a GBT fit, an SA score or the persistence
    walk — replaces it, in place, by [Valid] features. A pending
    program is only ever featurized, never measured: a tune measures
    only programs it lowered itself (memos may be shared by tunes whose
    templates own different buffers). Once every entry is forced, the
    memo's footprint is one small float array per configuration seen.

    Keys are the {e canonical} configuration value
    ({!Cfg_space.canonical}: knobs sorted by name) compared
    structurally, so two distinct configurations can never share an
    entry — unlike an int-hash key, where a collision silently shares
    features between different schedules. [Invalid] entries record
    configurations whose instantiation failed, so invalid points are
    not retried either.

    Determinism: compilation is pure, so entries for equal keys carry
    equal values and [add] is first-wins (features may replace a
    pending program). Results are bit-identical whatever the memo
    holds, and whenever its entries are forced.

    Domain-safety follows the tuner's convention: one coordinator owns
    all writes between parallel sections, forcing included; worker
    domains only read the memo (plain [Hashtbl] reads race-free without
    writers) and featurize a pending program without storing the
    result. Each SA chain lists the entries it compiled or featurized,
    and the coordinator [add]s them after the walk in chain-index
    order, so the memo's contents and insertion order are independent
    of the domain count. Lookup metrics ([cache.hit]/[cache.miss]) and
    [cache.lookup] trace instants flow through [Tvm_obs], which buffers
    per-domain counters exactly. *)

type key = Cfg_space.config
(** Canonical configuration. *)

type entry =
  | Invalid  (** instantiation raised; do not retry *)
  | Valid of float array  (** features of the lowered program *)
  | Pending of Tvm_tir.Stmt.t
      (** valid; the lowered program, featurized on first read *)

type t

val create : ?size:int -> ?name:string -> unit -> t

(** Lookup by canonical key; never forces. Records
    [cache.hit]/[cache.miss] metrics and a [cache.lookup] trace instant
    unless [record:false] (used by the tuner's replay probe, which is
    not a feature query). *)
val find : ?record:bool -> t -> Cfg_space.config -> entry option

(** Insert, first-wins — except that [Valid] features replace a
    [Pending] program in place. *)
val add : t -> Cfg_space.config -> entry -> unit

(** Cached entry, or [compile]'s result after storing it. Records
    hit/miss. *)
val find_or_compile :
  t -> Cfg_space.config -> compile:(Cfg_space.config -> entry) -> entry

(** {!Feature.extract}, timed into [tune.phase.feature_s] (busy time
    summed over the domains that run it). *)
val featurize : Tvm_tir.Stmt.t -> float array

(** An entry's features: [Pending] is featurized without being stored,
    so this is safe on worker domains. *)
val feats : entry -> float array option

(** Features of [cfg]'s valid entry, featurizing and storing them if it
    is pending — coordinator only. [None] for an invalid or absent
    configuration. Records no lookup. *)
val force : t -> Cfg_space.config -> float array option

(** Every entry in insertion order, each forced first — the persistent
    store's walk (coordinator only). Never passes [Pending]. *)
val iter_entries : t -> (key -> entry -> unit) -> unit

val size : t -> int
