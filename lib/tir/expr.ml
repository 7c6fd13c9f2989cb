(** Scalar expressions of the tensor IR.

    The IR is deliberately scalar: vectorization is a loop annotation
    (see {!Stmt.for_kind}) validated for legality and priced by the
    timing models, rather than a vector-value IR. This keeps the
    functional interpreter total while still letting schedules and the
    cost model reason about SIMD. *)

(** Memory scopes, the TVM-specific schedule concept of §4.2: a compute
    stage can be placed in GPU shared memory ([Shared]), thread-local
    registers ([Local]), or one of the VDLA on-chip buffers
    ([Accel_wgt], [Accel_inp], [Accel_acc]) from Fig 20. *)
type scope =
  | Global
  | Shared
  | Local
  | Accel_wgt
  | Accel_inp
  | Accel_acc

let scope_to_string = function
  | Global -> "global"
  | Shared -> "shared"
  | Local -> "local"
  | Accel_wgt -> "wgt"
  | Accel_inp -> "inp"
  | Accel_acc -> "acc"

let scope_of_string = function
  | "global" -> Global
  | "shared" -> Shared
  | "local" -> Local
  | "wgt" -> Accel_wgt
  | "inp" -> Accel_inp
  | "acc" -> Accel_acc
  | s -> invalid_arg ("scope_of_string: " ^ s)

(** One of the VDLA on-chip buffers. *)
let is_accel_scope = function
  | Accel_wgt | Accel_inp | Accel_acc -> true
  | Global | Shared | Local -> false

type var = { vname : string; vid : int; vdtype : Dtype.t }

type binop = Add | Sub | Mul | Div | FloorMod | Min | Max
type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | IntImm of int
  | FloatImm of float
  | Var of var
  | Binop of binop * t * t
  | Cmp of cmpop * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Select of t * t * t  (** [Select (cond, then_, else_)] *)
  | Cast of Dtype.t * t
  | Load of buffer * t list  (** multi-dimensional read, flattened late *)
  | Call of string * t list  (** pure intrinsic: exp, sqrt, popcount, ... *)

(** A buffer is a named, typed, scoped multi-dimensional array. Tensors
    of the expression language own one; the schedule's cache stages
    introduce more with non-[Global] scopes. *)
and buffer = {
  bname : string;
  bid : int;
  bdtype : Dtype.t;
  bshape : t list;
  bscope : scope;
}

module Var = struct
  type nonrec t = var

  (* Atomic: fresh vars are minted from parallel tuner workers
     (template instantiation under Tvm_par). Ids stay unique; nothing
     downstream depends on their numeric values, only on equality. *)
  let counter = Atomic.make 0

  let fresh ?(dtype = Dtype.Int32) name =
    { vname = name; vid = 1 + Atomic.fetch_and_add counter 1; vdtype = dtype }

  let name v = v.vname
  let dtype v = v.vdtype
  let equal a b = a.vid = b.vid
  let compare a b = compare a.vid b.vid
  let pp fmt v = Format.fprintf fmt "%s" v.vname

  (** Unique printable name, used by printers when two vars collide. *)
  let unique_name v = Printf.sprintf "%s.%d" v.vname v.vid
end

module Buffer = struct
  type nonrec t = buffer

  (* Atomic for the same reason as [Var.counter]. *)
  let counter = Atomic.make 0

  let create ?(scope = Global) ?(dtype = Dtype.Float32) name shape =
    { bname = name; bid = 1 + Atomic.fetch_and_add counter 1; bdtype = dtype;
      bshape = shape; bscope = scope }

  let name b = b.bname
  let dtype b = b.bdtype
  let shape b = b.bshape
  let scope b = b.bscope
  let equal a b = a.bid = b.bid
  let compare a b = compare a.bid b.bid

  (** Shape as concrete ints; raises if any dimension is symbolic. *)
  let const_shape b =
    List.map
      (function
        | IntImm n -> n
        | _ -> invalid_arg (Printf.sprintf "Buffer.const_shape %s: symbolic" b.bname))
      b.bshape

  let num_elems b = List.fold_left ( * ) 1 (const_shape b)
  let size_bytes b = float_of_int (num_elems b) *. Dtype.bytes b.bdtype

  (** A copy of [b] with a different scope and its own identity. *)
  let with_scope scope b =
    { b with bid = 1 + Atomic.fetch_and_add counter 1; bscope = scope }
end

(** Structural equality modulo nothing — plain [Stdlib.(=)] is unsafe on
    this type only because of floats; we use compare-based equality.
    Hash-consed construction (below) makes physically-equal nodes the
    common case, so the [==] fast path usually answers in O(1). *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | IntImm x, IntImm y -> Stdlib.( = ) x y
  | FloatImm x, FloatImm y -> Float.equal x y
  | Var x, Var y -> Var.equal x y
  | Binop (o1, a1, b1), Binop (o2, a2, b2) -> Stdlib.( = ) o1 o2 && equal a1 a2 && equal b1 b2
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) -> Stdlib.( = ) o1 o2 && equal a1 a2 && equal b1 b2
  | And (a1, b1), And (a2, b2) | Or (a1, b1), Or (a2, b2) -> equal a1 a2 && equal b1 b2
  | Not a, Not b -> equal a b
  | Select (c1, t1, f1), Select (c2, t2, f2) -> equal c1 c2 && equal t1 t2 && equal f1 f2
  | Cast (d1, a), Cast (d2, b) -> Dtype.equal d1 d2 && equal a b
  | Load (b1, i1), Load (b2, i2) ->
      Buffer.equal b1 b2
      && Stdlib.( = ) (List.length i1) (List.length i2)
      && List.for_all2 equal i1 i2
  | Call (n1, a1), Call (n2, a2) ->
      String.equal n1 n2
      && Stdlib.( = ) (List.length a1) (List.length a2)
      && List.for_all2 equal a1 a2
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                         *)
(* ------------------------------------------------------------------ *)

(** Structural hash of an expression, shared by both tables below.

    It walks the node in pre-order and stops after [hash_budget] nodes,
    mixing only immediates: constructor and operator codes, integer
    constants, float bit patterns, var [vid]s and buffer [bid]s. Var
    names and buffer records are never hashed; the one string it
    hashes is an intrinsic call's name. So the cost is bounded by the
    budget, not the node size, and families such as fused-axis chains
    [((((o*12544 + ...)/28)/28)/128)] that differ only deep inside
    still spread over the buckets.

    It agrees with both equalities the tables use: physically equal
    nodes are structurally identical, and {!Hashcons.shallow_equal}
    nodes have the same constructor, immediates and vid/bid, and
    physically equal (so identical) children.

    The walk allocates nothing: one immediate int carries the running
    hash in its high bits and the remaining node budget in its low
    [budget_bits]. *)
let hash_budget = 32
let budget_bits = 6
let budget_mask = (1 lsl budget_bits) - 1

(* Fold one word into the hash field. The multiplier is 1 modulo
   2^[budget_bits], so the product leaves the budget field as it was. *)
let[@inline] mix st x = (st lxor (x lsl budget_bits)) * 0x1e3779b97f4a7c01

let binop_code = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | FloorMod -> 4 | Min -> 5 | Max -> 6

let cmpop_code = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let dtype_code = function
  | Dtype.Float32 -> 0 | Dtype.Float16 -> 1 | Dtype.Int64 -> 2 | Dtype.Int32 -> 3
  | Dtype.Int8 -> 4 | Dtype.UInt1 -> 5 | Dtype.UInt2 -> 6 | Dtype.Bool -> 7

(* A node's first word: constructor tag in the low 4 bits, operator or
   dtype code above it. *)
let rec hash_walk st e =
  if st land budget_mask = 0 then st
  else
    let st = st - 1 in
    match e with
    | IntImm n -> mix (mix st 0) n
    | FloatImm f -> mix (mix st 1) (Int64.to_int (Int64.bits_of_float f))
    | Var v -> mix (mix st 2) v.vid
    | Binop (op, a, b) -> hash_walk (hash_walk (mix st (3 lor (binop_code op lsl 4))) a) b
    | Cmp (op, a, b) -> hash_walk (hash_walk (mix st (4 lor (cmpop_code op lsl 4))) a) b
    | And (a, b) -> hash_walk (hash_walk (mix st 5) a) b
    | Or (a, b) -> hash_walk (hash_walk (mix st 6) a) b
    | Not a -> hash_walk (mix st 7) a
    | Select (c, t, f) -> hash_walk (hash_walk (hash_walk (mix st 8) c) t) f
    | Cast (d, a) -> hash_walk (mix st (9 lor (dtype_code d lsl 4))) a
    | Load (b, idx) -> hash_list (mix (mix st 10) b.bid) idx
    | Call (n, args) -> hash_list (mix (mix st 11) (Hashtbl.hash n)) args

and hash_list st = function
  | [] -> st
  | e :: rest -> hash_list (hash_walk st e) rest

let hash e =
  (* final avalanche: the tables index buckets by the low bits *)
  let h = hash_walk hash_budget e asr budget_bits in
  let h = (h lxor (h lsr 31)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 29)) * 0x14d049bb133111eb in
  (h lxor (h lsr 32)) land max_int

(** Hash tables over expressions that hash each key once per probe: the
    per-node memos of [Analysis], [Visit] and [Interval], and (below)
    the intern table. A miss inserts under the probe's hash; a table
    that reaches its [limit] empties but keeps its buckets, so it does
    not grow back. A cell is a key, a datum and a link, the size
    of a [Hashtbl] binding. *)
module Memo = struct
  type 'a bucket = Empty | Cons of { key : t; data : 'a; mutable next : 'a bucket }
  type nonrec 'a t = { mutable buckets : 'a bucket array; mutable size : int; limit : int }

  (** Composite nodes a per-call pass ([Interval.eval],
      [Visit.map_expr_shared]) walks by plain recursion before it
      raises {!Over_limit} and reruns with a memo of its own. Almost
      every index expression fits, and below this size a memo costs a
      hash per node for a hit rate under 10%; above it, the memo keeps a
      shared DAG linear in its node count. *)
  let direct_limit = 64

  exception Over_limit

  (** An empty memo of at least [n] buckets (a power of two, at least
      16, as [Hashtbl.create] rounds) holding at most [limit] keys. *)
  let create ?(limit = max_int) n =
    let rec pow2 k = if k >= n then k else pow2 (2 * k) in
    { buckets = Array.make (pow2 16) Empty; size = 0; limit }

  (* Double the buckets, relinking each cell in place under [rehash key
     data]. *)
  let grow m rehash =
    let n = 2 * Array.length m.buckets in
    let b = Array.make n Empty in
    let rec relink = function
      | Empty -> ()
      | Cons c as cell ->
          let next = c.next in
          let i = rehash c.key c.data land (n - 1) in
          c.next <- b.(i);
          b.(i) <- cell;
          relink next
    in
    Array.iter relink m.buckets;
    m.buckets <- b

  (* Bind [key] (not yet present, hash [h]) to [data], emptying a full
     table first. Reads [m.buckets] afresh, so it is safe after a
     compute that used [m]. *)
  let add m h key data rehash =
    if m.size >= m.limit then begin
      Array.fill m.buckets 0 (Array.length m.buckets) Empty;
      m.size <- 0
    end;
    let b = m.buckets in
    let i = h land (Array.length b - 1) in
    b.(i) <- Cons { key; data; next = b.(i) };
    m.size <- m.size + 1;
    if m.size > 2 * Array.length b then grow m rehash

  let rehash key _ = hash key

  let rec find key = function
    | Empty -> Empty
    | Cons c as cell -> if c.key == key then cell else find key c.next

  (** [memo m compute e]: [compute e] the first time [m] sees [e] (by
      physical identity), the stored result after. [compute] must be
      pure; it may itself use [m]. *)
  let memo m compute e =
    let h = hash e in
    match find e m.buckets.(h land (Array.length m.buckets - 1)) with
    | Cons c -> c.data
    | Empty ->
        let r = compute e in
        add m h e r rehash;
        r
end

(** The intern tables behind the smart constructors. Each domain owns
    its table ([Domain.DLS]): template instantiation fans out over
    [Tvm_par.Pool] domains, and per-domain tables need no locking on
    the construction fast path. Interning is only a canonicalization
    cache — two domains may hold physically distinct copies of the same
    structure, which costs sharing but never correctness. *)
module Hashcons = struct
  (* Shallow equality: same constructor, immediates compared by value,
     children by physical identity (they are already interned when the
     parent is built on the same domain). Floats compare bitwise so
     [-0.]/[0.]/NaN payloads are never conflated — printing must not
     depend on intern insertion order. Buffers compare physically:
     [bid]-equal buffers are the same record everywhere in the
     compiler. Every shallow-equal pair is structurally equal, so it
     has equal {!hash}es. *)
  let imm_equal a b =
    a == b
    ||
    match (a, b) with
    | IntImm x, IntImm y -> Stdlib.( = ) x y
    | FloatImm x, FloatImm y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | _ -> false

  let rec imm_equal_list xs ys =
    match (xs, ys) with
    | [], [] -> true
    | x :: xs, y :: ys -> imm_equal x y && imm_equal_list xs ys
    | _ -> false

  let shallow_equal a b =
    a == b
    ||
    match (a, b) with
    | IntImm x, IntImm y -> Stdlib.( = ) x y
    | FloatImm x, FloatImm y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | Var x, Var y -> x == y
    | Binop (o1, a1, b1), Binop (o2, a2, b2) ->
        Stdlib.( = ) o1 o2 && imm_equal a1 a2 && imm_equal b1 b2
    | Cmp (o1, a1, b1), Cmp (o2, a2, b2) ->
        Stdlib.( = ) o1 o2 && imm_equal a1 a2 && imm_equal b1 b2
    | And (a1, b1), And (a2, b2) | Or (a1, b1), Or (a2, b2) ->
        imm_equal a1 a2 && imm_equal b1 b2
    | Not a, Not b -> imm_equal a b
    | Select (c1, t1, f1), Select (c2, t2, f2) ->
        imm_equal c1 c2 && imm_equal t1 t2 && imm_equal f1 f2
    | Cast (d1, a), Cast (d2, b) -> Dtype.equal d1 d2 && imm_equal a b
    | Load (b1, i1), Load (b2, i2) -> b1 == b2 && imm_equal_list i1 i2
    | Call (n1, a1), Call (n2, a2) -> String.equal n1 n2 && imm_equal_list a1 a2
    | _ -> false

  (* Each interned node keyed to its own hash, so growth relinks
     without hashing. Bounded so a long tuning run cannot hold every
     expression it ever built: at [limit] the table empties (plain
     FIFO would need a second structure on the hot path). *)
  let limit = 1 lsl 17

  let key = Domain.DLS.new_key (fun () -> Memo.create ~limit 4096)
  let stored _ h = h

  let rec find h node = function
    | Memo.Empty -> Memo.Empty
    | Memo.Cons c as cell ->
        if Int.equal c.data h && shallow_equal c.key node then cell
        else find h node c.next

  (** Canonical representative of [node] on this domain; interns it on
      first sight. *)
  let cons node =
    let st = Domain.DLS.get key in
    let h = hash node in
    match find h node st.Memo.buckets.(h land (Array.length st.Memo.buckets - 1)) with
    | Memo.Cons c -> c.key
    | Memo.Empty ->
        Memo.add st h node h stored;
        node

  type stats = { population : int; buckets : int }

  (** This domain's intern table: its entries and buckets. *)
  let stats () =
    let st = Domain.DLS.get key in
    { population = st.Memo.size; buckets = Array.length st.Memo.buckets }

  (** Longest bucket of this domain's intern table: the hash-quality
      figure a test bounds. *)
  let max_bucket () =
    let rec length n = function Memo.Empty -> n | Memo.Cons c -> length (n + 1) c.next in
    Array.fold_left (fun m b -> max m (length 0 b)) 0 (Domain.DLS.get key).Memo.buckets
end

(* ------------------------------------------------------------------ *)
(* Smart constructors.  They fold constants eagerly so that lowering   *)
(* produces readable, mostly-simplified code without a separate pass,  *)
(* and intern every node they build (see [Hashcons]) so structurally   *)
(* equal subtrees come out physically shared.                          *)
(* ------------------------------------------------------------------ *)

let intern = Hashcons.cons

(* The common small integers are preallocated: loop bounds, strides and
   folded guards produce them constantly, and a fixed pool keeps them
   shared across domains without touching the intern tables. *)
let int_pool = Array.init 258 (fun i -> IntImm (i - 1))
let int n = if n >= -1 && n <= 256 then int_pool.(n + 1) else intern (IntImm n)
let float f = intern (FloatImm f)
let var v = intern (Var v)
let zero = int 0
let one = int 1
let f32 = float

let rec dtype_of = function
  | IntImm _ -> Dtype.Int32
  | FloatImm _ -> Dtype.Float32
  | Var v -> v.vdtype
  | Binop (_, a, b) ->
      let da = dtype_of a in
      if Dtype.is_float da then da else dtype_of b
  | Cmp _ | And _ | Or _ | Not _ -> Dtype.Bool
  | Select (_, a, _) -> dtype_of a
  | Cast (d, _) -> d
  | Load (b, _) -> b.bdtype
  | Call (name, args) -> (
      match (name, args) with
      | ("popcount" | "round" | "floor_i"), _ -> Dtype.Int32
      | _, a :: _ -> dtype_of a
      | _, [] -> Dtype.Float32)

let binop_eval_int op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div ->
      (* floor division, matching the interpreter's semantics *)
      if b = 0 then invalid_arg "div by zero"
      else
        let q = a / b and r = a mod b in
        if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q
  | FloorMod ->
      if b = 0 then invalid_arg "mod by zero"
      else
        let r = a mod b in
        if r <> 0 && (r < 0) <> (b < 0) then r + b else r
  | Min -> min a b
  | Max -> max a b

let binop_eval_float op a b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> a /. b
  | FloorMod -> Float.rem a b
  | Min -> Float.min a b
  | Max -> Float.max a b

let binop op a b =
  match (a, b) with
  | IntImm x, IntImm y -> int (binop_eval_int op x y)
  | FloatImm x, FloatImm y -> float (binop_eval_float op x y)
  | _ -> (
      match (op, a, b) with
      | Add, IntImm 0, e | Add, e, IntImm 0 -> e
      | Add, FloatImm 0., e | Add, e, FloatImm 0. -> e
      | Sub, e, IntImm 0 -> e
      | Mul, IntImm 1, e | Mul, e, IntImm 1 -> e
      | Mul, FloatImm 1., e | Mul, e, FloatImm 1. -> e
      | Mul, (IntImm 0 as z), _ | Mul, _, (IntImm 0 as z) -> z
      | Div, e, IntImm 1 -> e
      | FloorMod, _, IntImm 1 -> zero
      | (Min | Max), x, y when equal x y -> x
      | _ -> intern (Binop (op, a, b)))

let ( + ) a b = binop Add a b
let ( - ) a b = binop Sub a b
let ( * ) a b = binop Mul a b
let ( / ) a b = binop Div a b
let ( % ) a b = binop FloorMod a b
let min_ a b = binop Min a b
let max_ a b = binop Max a b

let cmp op a b =
  match (a, b) with
  | IntImm x, IntImm y ->
      let r =
        match op with
        | Eq -> x = y
        | Ne -> x <> y
        | Lt -> Stdlib.( < ) x y
        | Le -> Stdlib.( <= ) x y
        | Gt -> Stdlib.( > ) x y
        | Ge -> Stdlib.( >= ) x y
      in
      if r then one else zero
  | _ -> intern (Cmp (op, a, b))

let ( = ) a b = cmp Eq a b
let ( <> ) a b = cmp Ne a b
let ( < ) a b = cmp Lt a b
let ( <= ) a b = cmp Le a b
let ( > ) a b = cmp Gt a b
let ( >= ) a b = cmp Ge a b

let and_ a b =
  match (a, b) with
  | IntImm 1, e | e, IntImm 1 -> e
  | (IntImm 0 as z), _ | _, (IntImm 0 as z) -> z
  | _ -> intern (And (a, b))

let or_ a b =
  match (a, b) with
  | IntImm 0, e | e, IntImm 0 -> e
  | (IntImm 1 as o), _ | _, (IntImm 1 as o) -> o
  | _ -> intern (Or (a, b))

let not_ = function IntImm 0 -> one | IntImm 1 -> zero | e -> intern (Not e)

let select cond t f =
  match cond with
  | IntImm 0 -> f
  | IntImm 1 -> t
  | _ -> intern (Select (cond, t, f))

let cast d e =
  match e with
  | FloatImm f when Dtype.equal d Dtype.Int32 -> int (int_of_float f)
  | IntImm n when Dtype.is_float d -> float (float_of_int n)
  | e when Dtype.equal (dtype_of e) d -> e
  | e -> intern (Cast (d, e))

let load buf indices = intern (Load (buf, indices))
let call name args = intern (Call (name, args))

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | FloorMod -> "%"
  | Min -> "min"
  | Max -> "max"

let cmpop_to_string = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
