(** The event queue of the virtual-clock loops: the device pool's run
    completions and retries, the tvmd scheduler's ready and in-flight
    jobs, and the serving executor's running batches.

    A binary min-heap ordered by [(at, seq)]. [seq] defaults to the
    number of earlier pushes, so events at equal times pop in push
    order. Callers that pass [~seq] keep the [(at, seq)] keys unique;
    two equal keys pop in an unspecified order. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> ?seq:int -> at:float -> 'a -> unit

val top_time : 'a t -> float
(** [at] of the first event; [infinity] when the queue is empty. *)

val top : 'a t -> 'a option
val pop : 'a t -> 'a option
