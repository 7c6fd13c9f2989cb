(** Tensor-intrinsic declarations (§4.3, "tensorization").

    An intrinsic declares the behaviour of a hardware tensor instruction
    using the same tensor expression vocabulary (shapes of inputs and
    output, reduction extents), a lowering rule (which variants exist:
    body / reset / update, mirroring the paper's
    [gemm8x8 / fill_zero / fuse_gemm8x8_add]), a cost for the timing
    models, and executable semantics for the functional interpreter.

    Separating the intrinsic from the schedule is what makes
    tensorization extensible: VDLA's 16×16 GEMM, the ARM bit-serial
    micro-kernel, and test intrinsics all go through this one type. *)

type region_reader = int list -> float
type region_writer = int list -> float -> unit

type t = {
  name : string;
  input_shapes : int list list;  (** shapes of the input sub-regions *)
  output_shape : int list;  (** shape of the output sub-region *)
  reduce_extents : int list;  (** reduction extents internal to the intrinsic *)
  flops : float;  (** arithmetic performed by one invocation *)
  has_reduce_update : bool;
      (** whether reset/update variants exist so the intrinsic can be
          applied under an outer reduction loop *)
  execute :
    variant:string -> inputs:region_reader list -> out_read:region_reader ->
    out_write:region_writer -> unit;
      (** functional semantics; [variant] is "body", "reset" or "update" *)
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let register t = Hashtbl.replace registry t.name t

let find name =
  match Hashtbl.find_opt registry name with
  | Some t -> t
  | None -> invalid_arg ("Tensor_intrin.find: unknown intrinsic " ^ name)

(** Arithmetic of one call to the registered intrinsic [name] (0 for an
    unknown name): the price the cost models charge a tensorized call. *)
let flops_of name =
  match Hashtbl.find_opt registry name with Some t -> t.flops | None -> 0.

let declare ~name ~input_shapes ~output_shape ?(reduce_extents = [])
    ?(has_reduce_update = false) ~flops ~execute () =
  let t =
    { name; input_shapes; output_shape; reduce_extents; flops; has_reduce_update;
      execute }
  in
  register t;
  t

(** Iterate a row-major index space. *)
let iter_space shape f =
  let rank = List.length shape in
  let shape = Array.of_list shape in
  let idx = Array.make rank 0 in
  let total = Array.fold_left ( * ) 1 shape in
  for flat = 0 to total - 1 do
    let rem = ref flat in
    for d = rank - 1 downto 0 do
      idx.(d) <- !rem mod shape.(d);
      rem := !rem / shape.(d)
    done;
    f (Array.to_list idx)
  done

(** [gemm m n k]: dense matrix-multiply intrinsic
    out[i,j] (+)= sum_k a[i,kk] * b[j,kk], the VDLA GEMM unit shape
    (weights stationary, both operands K-major as in §4.3's example). *)
let gemm ?(name_prefix = "gemm") m n k =
  let execute ~variant ~inputs ~out_read ~out_write =
    match (variant, inputs) with
    | "reset", _ -> iter_space [ m; n ] (fun idx -> out_write idx 0.)
    | ("body" | "update"), [ a; b ] ->
        iter_space [ m; n ] (fun idx ->
            match idx with
            | [ ii; jj ] ->
                let acc = ref (if variant = "body" then 0. else out_read idx) in
                for kk = 0 to k - 1 do
                  acc := !acc +. (a [ ii; kk ] *. b [ jj; kk ])
                done;
                out_write idx !acc
            | _ -> assert false)
    | _ -> invalid_arg "gemm intrinsic: bad variant/arity"
  in
  declare
    ~name:(Printf.sprintf "%s%dx%dx%d" name_prefix m n k)
    ~input_shapes:[ [ m; k ]; [ n; k ] ]
    ~output_shape:[ m; n ] ~reduce_extents:[ k ]
    ~has_reduce_update:true
    ~flops:(2. *. float_of_int (m * n * k))
    ~execute ()

(** Bit-serial matrix–vector multiply micro-kernel for ultra
    low-precision inference (§6.2): activations [abits]-bit, weights
    1-bit, accumulated into 32-bit. One invocation computes [n] outputs
    over a [k]-deep dot product using AND+popcount over packed words. *)
let bitserial_gemv ?(abits = 2) n k =
  let execute ~variant ~inputs ~out_read ~out_write =
    match (variant, inputs) with
    | "reset", _ -> iter_space [ n ] (fun idx -> out_write idx 0.)
    | ("body" | "update"), [ a; w ] ->
        (* Semantically a plain dot product; the bit-serial decomposition
           affects cost, not values (weights in {-1,+1} scaled upstream). *)
        iter_space [ n ] (fun idx ->
            match idx with
            | [ j ] ->
                let acc = ref (if variant = "body" then 0. else out_read idx) in
                for kk = 0 to k - 1 do
                  acc := !acc +. (a [ kk ] *. w [ j; kk ])
                done;
                out_write idx !acc
            | _ -> assert false)
    | _ -> invalid_arg "bitserial_gemv: bad variant/arity"
  in
  declare
    ~name:(Printf.sprintf "bitserial_gemv_a%d_n%d_k%d" abits n k)
    ~input_shapes:[ [ k ]; [ n; k ] ]
    ~output_shape:[ n ] ~reduce_extents:[ k ]
    ~has_reduce_update:true
    (* popcount-based: abits AND+popcount word ops per 32 weight bits *)
    ~flops:(float_of_int (n * k * abits) /. 16.)
    ~execute ()
