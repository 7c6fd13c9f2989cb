(** N-dimensional arrays backing the functional execution paths.

    Values are stored as [float array] regardless of dtype; integer and
    sub-byte dtypes quantize on write ({!set}), which matches how the
    reference kernels and the IR interpreter use them (the VDLA works on
    int8/int32, the low-precision kernels on uint1/uint2). *)

open Tvm_tir

type t = {
  shape : int array;
  strides : int array;  (** row-major *)
  data : float array;
  dtype : Dtype.t;
}

let compute_strides shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

let num_elems_of_shape shape = Array.fold_left ( * ) 1 shape

let create ?(dtype = Dtype.Float32) shape =
  let shape = Array.of_list shape in
  {
    shape;
    strides = compute_strides shape;
    data = Array.make (num_elems_of_shape shape) 0.;
    dtype;
  }

let shape t = Array.to_list t.shape
let dtype t = t.dtype
let num_elems t = Array.length t.data
let size_bytes t = float_of_int (num_elems t) *. Dtype.bytes t.dtype

(** Quantize [v] to what storage of this dtype can represent. *)
let quantize dtype v =
  match dtype with
  | Dtype.Float32 | Dtype.Float16 -> v
  | Dtype.Int64 | Dtype.Int32 -> Float.of_int (Float.to_int v)
  | Dtype.Int8 ->
      let i = Float.to_int v in
      Float.of_int (max (-128) (min 127 i))
  | Dtype.UInt1 | Dtype.Bool ->
      let i = Float.to_int v in
      Float.of_int (max 0 (min 1 i))
  | Dtype.UInt2 ->
      let i = Float.to_int v in
      Float.of_int (max 0 (min 3 i))

let flat_index t idx =
  let n = Array.length t.shape in
  if List.length idx <> n then
    invalid_arg
      (Printf.sprintf "Ndarray: rank mismatch (%d indices for rank %d)"
         (List.length idx) n);
  let flat = ref 0 in
  List.iteri
    (fun d i ->
      if i < 0 || i >= t.shape.(d) then
        invalid_arg
          (Printf.sprintf "Ndarray: index %d out of bounds for dim %d (size %d)" i d
             t.shape.(d));
      flat := !flat + (i * t.strides.(d)))
    idx;
  !flat

let get t idx = t.data.(flat_index t idx)
let set t idx v = t.data.(flat_index t idx) <- quantize t.dtype v

let fill t v =
  let v = quantize t.dtype v in
  Array.fill t.data 0 (Array.length t.data) v

let copy t = { t with data = Array.copy t.data }

let copy_into ~src ~dst =
  if num_elems src <> num_elems dst then invalid_arg "Ndarray.copy_into: size";
  Array.blit src.data 0 dst.data 0 (num_elems src)

(** Build from an index-function; indices supplied as a list, row-major
    iteration order. *)
let init ?(dtype = Dtype.Float32) shape f =
  let t = create ~dtype shape in
  let rank = Array.length t.shape in
  let idx = Array.make rank 0 in
  let n = num_elems t in
  for flat = 0 to n - 1 do
    let rem = ref flat in
    for d = 0 to rank - 1 do
      idx.(d) <- !rem / t.strides.(d);
      rem := !rem mod t.strides.(d)
    done;
    t.data.(flat) <- quantize dtype (f (Array.to_list idx))
  done;
  t

let of_list ?(dtype = Dtype.Float32) shape values =
  let t = create ~dtype shape in
  if List.length values <> num_elems t then invalid_arg "Ndarray.of_list: size";
  List.iteri (fun i v -> t.data.(i) <- quantize dtype v) values;
  t

let to_list t = Array.to_list t.data

(** Deterministic pseudo-random fill; used pervasively so tests and
    benches are reproducible without global RNG state. *)
let random ?(dtype = Dtype.Float32) ?(seed = 0) ?(lo = -1.) ?(hi = 1.) shape =
  let t = create ~dtype shape in
  let state = ref (seed land 0x3FFFFFFF) in
  let next () =
    (* xorshift-like LCG, deterministic across platforms *)
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !state /. float_of_int 0x3FFFFFFF
  in
  for i = 0 to num_elems t - 1 do
    t.data.(i) <- quantize dtype (lo +. ((hi -. lo) *. next ()))
  done;
  t

let map f t = { t with data = Array.map (fun v -> quantize t.dtype (f v)) t.data }

let map2 f a b =
  if a.shape <> b.shape then invalid_arg "Ndarray.map2: shape";
  { a with data = Array.init (num_elems a) (fun i -> quantize a.dtype (f a.data.(i) b.data.(i))) }

let fold f acc t = Array.fold_left f acc t.data

let max_abs_diff a b =
  if num_elems a <> num_elems b then invalid_arg "Ndarray.max_abs_diff: size";
  let m = ref 0. in
  for i = 0 to num_elems a - 1 do
    m := Float.max !m (Float.abs (a.data.(i) -. b.data.(i)))
  done;
  !m

let equal_approx ?(tol = 1e-4) a b =
  a.shape = b.shape && max_abs_diff a b <= tol

let pp fmt t =
  Format.fprintf fmt "ndarray<%s>[%s]"
    (Dtype.to_string t.dtype)
    (String.concat "x" (List.map string_of_int (shape t)))

let to_string t = Format.asprintf "%a" pp t
