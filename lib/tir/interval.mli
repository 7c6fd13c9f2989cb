(** Interval analysis over index expressions.

    Bound inference for lowering (which buffer region does a consumer
    touch?) and footprint analysis for the timing models and cost-model
    features both reduce to evaluating an index expression over an
    environment mapping loop variables to integer ranges. The analysis
    is exact on the affine fragment our schedule templates generate
    (with divisor splits), and conservative otherwise. *)

type t = { lo : int; hi : int }  (** inclusive bounds *)

(** [make lo hi]; raises [Invalid_argument] if [lo > hi]. *)
val make : int -> int -> t

val point : int -> t
val of_extent : min:int -> extent:int -> t
val length : t -> int
val union : t -> t -> t
val contains : t -> int -> bool
val to_string : t -> string

exception Not_analyzable of string

(** Interval arithmetic. [div]/[modulo] require a positive constant
    divisor and raise {!Not_analyzable} otherwise. On point operands
    each operation returns the point {!Expr}'s constant folding would
    give; region inference relies on that. *)
val add : t -> t -> t

val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val modulo : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t

(** [fdiv x d] and [fmod x d] for [d > 0]: what {!div} and {!modulo}
    give on the points [x] and [d]. *)
val fdiv : int -> int -> int

val fmod : int -> int -> int

(** Evaluate an expression to an interval under [env : var id ->
    interval option]; raises {!Not_analyzable} on constructs outside the
    analyzable fragment (loads, calls, unbound variables, division by
    anything but a positive constant). *)
val eval : (int -> t option) -> Expr.t -> t

(** Constant-fold to an int when the interval is a single point. *)
val const_of_expr : Expr.t -> int option
