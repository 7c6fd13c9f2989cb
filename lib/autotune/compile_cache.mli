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
    equal values; [add] is first-wins and {!merge} walks the source in
    its insertion order, so merged contents are independent of the
    domain count. Results are bit-identical whatever the memo holds.

    Domain-safety follows the tuner's convention: one coordinator owns
    all writes between parallel sections; worker domains only read the
    shared memo (plain [Hashtbl] reads race-free without writers), and
    each SA chain fills its own {!create_local} memo that the
    coordinator later {!merge}s in chain-index order. Lookup metrics
    ([cache.hit]/[cache.miss]) and [cache.lookup] trace instants flow
    through [Tvm_obs], which buffers per-domain counters exactly. *)

type key = Cfg_space.config
(** Canonical configuration. *)

type entry =
  | Invalid  (** instantiation raised; do not retry *)
  | Valid of float array  (** features of the lowered program *)

type t

val create : ?size:int -> ?name:string -> unit -> t

(** An empty memo named after [t], for per-chain overflow. *)
val create_local : t -> t

(** Lookup by canonical key. Records [cache.hit]/[cache.miss] metrics
    and a [cache.lookup] trace instant unless [record:false] (used for
    the shared tier of two-tier lookups, so each logical query counts
    once). *)
val find : ?record:bool -> t -> Cfg_space.config -> entry option

(** Count a hit against [t] for a lookup that was made with
    [record:false] — the two-tier pattern probes the shared tier
    silently and then must either count the hit here or fall through
    to {!find_or_compile} on the local tier (which records its own
    verdict), so each logical query counts exactly once. Without this
    the metrics invert as the shared tier warms up: the steady state
    where almost every query is answered by the shared memo shows up
    as a ~0% hit rate, because only the local-tier fallbacks (cold
    misses) were ever counted. *)
val record_hit : t -> unit

(** Insert, first-wins. *)
val add : t -> Cfg_space.config -> entry -> unit

(** Cached entry, or [compile]'s result after storing it. Records
    hit/miss. *)
val find_or_compile :
  t -> Cfg_space.config -> compile:(Cfg_space.config -> entry) -> entry

val feats : entry -> float array option

(** [merge ~into src] adds [src]'s entries absent from [into], in
    [src]'s insertion order. *)
val merge : into:t -> t -> unit

(** Every entry in insertion order — the persistent store's walk. *)
val iter_entries : t -> (key -> entry -> unit) -> unit

val size : t -> int
