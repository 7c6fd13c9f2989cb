(** N-dimensional arrays backing the functional execution paths.

    Values are stored as [float array] regardless of dtype; integer and
    sub-byte dtypes quantize on write ({!set}), matching how the
    reference kernels and the IR interpreter use them (the VDLA works on
    int8/int32, the low-precision kernels on uint1/uint2). *)

open Tvm_tir

type t = {
  shape : int array;
  strides : int array;  (** row-major *)
  data : float array;
  dtype : Dtype.t;
}

(** [create ?dtype shape] allocates a zero-filled array. *)
val create : ?dtype:Dtype.t -> int list -> t

val shape : t -> int list
val dtype : t -> Dtype.t
val num_elems : t -> int
val size_bytes : t -> float

(** Clamp/truncate [v] to what storage of this dtype can represent. *)
val quantize : Dtype.t -> float -> float

(** Multi-dimensional accessors; raise [Invalid_argument] on rank
    mismatch or out-of-bounds indices. *)
val get : t -> int list -> float

val set : t -> int list -> float -> unit
val fill : t -> float -> unit
val copy : t -> t

(** Byte-for-byte copy between equal-element-count arrays. *)
val copy_into : src:t -> dst:t -> unit

(** Build from an index function (indices row-major). *)
val init : ?dtype:Dtype.t -> int list -> (int list -> float) -> t

val of_list : ?dtype:Dtype.t -> int list -> float list -> t
val to_list : t -> float list

(** Deterministic pseudo-random fill: same [seed] ⇒ same values, across
    platforms — tests and benches rely on this reproducibility. *)
val random :
  ?dtype:Dtype.t -> ?seed:int -> ?lo:float -> ?hi:float -> int list -> t

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
val max_abs_diff : t -> t -> float

(** Shape equality plus element-wise tolerance (default [1e-4]). *)
val equal_approx : ?tol:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
