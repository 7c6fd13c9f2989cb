(** Deployable module: the compiled artifact of §2's end-user example —
    "the final optimized computational graph (graph), generated
    operators (lib), and module parameters (params)".

    Each kernel packages the lowered loop program of one fused operator
    group, its I/O binding order, and its estimated run time on the
    compilation target. *)

open Tvm_tir
module Nd = Tvm_nd.Ndarray

type kernel = {
  k_name : string;
  k_group : int;  (** fusion group id this kernel implements *)
  k_stmt : Stmt.t;
  k_input_buffers : Expr.buffer list;  (** bind order = group input order *)
  k_output_buffer : Expr.buffer;
  k_time_s : float;  (** estimated run time on the compilation target *)
  k_flops : float;
}

type t = {
  m_target_name : string;
  m_kernels : kernel list;
  m_source : string Lazy.t;  (** printable low-level code of all kernels *)
}

let create ~target_name kernels =
  {
    m_target_name = target_name;
    m_kernels = kernels;
    m_source =
      lazy
        (String.concat "\n\n"
           (List.map
              (fun k ->
                Printf.sprintf "// kernel %s (%.3f ms est)\n%s" k.k_name
                  (1e3 *. k.k_time_s)
                  (Printer.stmt_to_string k.k_stmt))
              kernels));
  }

let kernels t = t.m_kernels
let source t = Lazy.force t.m_source

(** Execute one kernel functionally on the given arrays. *)
let run_kernel (k : kernel) ~(inputs : Nd.t list) ~(output : Nd.t) =
  let bindings =
    try (k.k_output_buffer, output) :: List.combine k.k_input_buffers inputs
    with Invalid_argument _ ->
      invalid_arg
        (Printf.sprintf "kernel %s: expected %d inputs, got %d" k.k_name
           (List.length k.k_input_buffers) (List.length inputs))
  in
  Tvm_sim.Interp.run k.k_stmt ~bindings
