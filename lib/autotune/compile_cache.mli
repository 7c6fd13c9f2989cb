(** Cross-trial feature memo: canonical configuration → [Invalid] or
    the feature vector of its lowered program — the cost-model hot path
    (§5.2). Prediction must stay thousands of times cheaper than
    measurement, so the SA explorer's revisits and the tuner's prepare
    phase both look configurations up here instead of re-lowering them
    only to featurize them again.

    Programs are not kept: the tuner's prepare phase lowers every
    configuration it measures, and [Tuner.result] carries the best
    trial's program forward. The memo's footprint is therefore one
    small float array per configuration seen.

    Keys are the {e canonical} configuration value
    ({!Cfg_space.canonical}: knobs sorted by name) compared
    structurally, so two distinct configurations can never share an
    entry — unlike an int-hash key, where a collision silently shares
    features between different schedules. [Invalid] entries record
    configurations whose instantiation failed, so invalid points are
    not retried either.

    Determinism: compilation is pure, so entries for equal keys carry
    equal values and [add] is first-wins. Results are bit-identical
    whatever the memo holds.

    Domain-safety follows the tuner's convention: one coordinator owns
    all writes between parallel sections; worker domains only read the
    memo (plain [Hashtbl] reads race-free without writers). Each SA
    chain lists the entries it compiled, and the coordinator [add]s
    them after the walk in chain-index order, so the memo's contents
    and insertion order are independent of the domain count. Lookup metrics
    ([cache.hit]/[cache.miss]) and [cache.lookup] trace instants flow
    through [Tvm_obs], which buffers per-domain counters exactly. *)

type key = Cfg_space.config
(** Canonical configuration. *)

type entry =
  | Invalid  (** instantiation raised; do not retry *)
  | Valid of float array  (** features of the lowered program *)

type t

val create : ?size:int -> ?name:string -> unit -> t

(** Lookup by canonical key. Records [cache.hit]/[cache.miss] metrics
    and a [cache.lookup] trace instant unless [record:false] (used by
    the tuner's replay probe, which is not a feature query). *)
val find : ?record:bool -> t -> Cfg_space.config -> entry option

(** Insert, first-wins. *)
val add : t -> Cfg_space.config -> entry -> unit

(** Cached entry, or [compile]'s result after storing it. Records
    hit/miss. *)
val find_or_compile :
  t -> Cfg_space.config -> compile:(Cfg_space.config -> entry) -> entry

val feats : entry -> float array option

(** Every entry in insertion order — the persistent store's walk. *)
val iter_entries : t -> (key -> entry -> unit) -> unit

val size : t -> int
