(** A small reusable domain pool over stdlib [Domain] (§5.3's parallel
    exploration / §5.4's parallel measurement need host-side
    parallelism; Domainslib is deliberately not a dependency).

    The pool is fork-join: each [parallel_map] call fans its tasks out
    over [domains t] domains (the caller participates as one worker)
    with atomic index stealing, and writes results into a slot per
    input index — so the output order, and therefore every downstream
    merge, is identical for any domain count. A pool with one domain
    runs everything in the caller, making [domains = 1] the exact
    sequential semantics.

    Exceptions raised by tasks are collected and the one from the
    {e lowest} input index is re-raised after all tasks have run, so
    failure behaviour is deterministic too.

    Nesting is rejected: calling [parallel_map] (or friends) from
    inside a task raises {!Nested_parallelism} — at every domain
    count, so a nest bug cannot hide at [-j 1].

    {!run_lanes} is the one sanctioned two-level shape: coarse lanes
    (e.g. [tvmd] executing independent job streams) whose tasks may
    themselves call [parallel_map] — but only through a {e sequential}
    pool. A multi-domain [parallel_map] from inside a lane still
    raises {!Nested_parallelism}, at every lane width, so true nested
    fan-out remains impossible.

    Metrics: [par.domains] (gauge, last pool created), [par.tasks]
    (counter), [par.lane_tasks] (counter), [par.steal_idle_s]
    (histogram of the time the caller waited on straggler domains
    after finishing its own share). *)

exception Nested_parallelism

type t

(** [create ?domains ()] — [domains] defaults to
    [Domain.recommended_domain_count ()] and is clamped to at least 1. *)
val create : ?domains:int -> unit -> t

(** A pool that runs everything in the caller (one domain). *)
val sequential : t

val domains : t -> int

(** [parallel_map t f xs] = [Array.map f xs], order preserved. *)
val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [map_list t f xs] = [List.map f xs], order preserved. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** [parallel_init_chunked t n f] = [Array.init n f] with the
    indices fanned out in contiguous chunks of 64 —
    one steal per chunk instead of one per element, for workloads of
    many tiny pure tasks (the fleet's model-time precompute over
    thousands of (job × kind) pairs). Same ordering, exception and
    nesting semantics as {!parallel_map}. *)
val parallel_init_chunked : t -> int -> (int -> 'b) -> 'b array

(** [run_lanes t f xs] = [Array.map f xs] with the tasks spread over
    [min (domains t) (Array.length xs)] lane domains by index
    stealing. Unlike {!parallel_map} tasks, a lane task is allowed to
    call [parallel_map] on a {e sequential} pool (the semantics are
    plain [Array.map], so no nested fan-out happens); a multi-domain
    pool inside a lane raises {!Nested_parallelism} as usual, and so
    does [run_lanes] itself from inside any task or lane. Result
    order, and the lowest-index exception rule, match
    {!parallel_map}. *)
val run_lanes : t -> ('a -> 'b) -> 'a array -> 'b array

(** [parallel_reduce t ~map ~combine ~init xs] maps in parallel, then
    folds [combine] over the mapped values {e in input-index order} on
    the caller — the deterministic ordered merge. *)
val parallel_reduce :
  t -> map:('a -> 'b) -> combine:('acc -> 'b -> 'acc) -> init:'acc -> 'a array -> 'acc
