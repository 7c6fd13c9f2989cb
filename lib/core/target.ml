(** Compilation targets — the [t.target.cuda()] of §2's example. *)

module Machine = Tvm_sim.Machine

type t =
  | Cuda of Machine.gpu  (** server-class GPU (§6.1) *)
  | Llvm of Machine.cpu  (** CPU back-end (§6.2) *)
  | Opencl_mali of Machine.gpu  (** embedded GPU (§6.3) *)

(** NVIDIA Titan X. *)
let cuda () = Cuda Machine.titan_x

(** ARM Cortex A53 (the paper's embedded CPU board). *)
let arm_cpu () = Llvm Machine.arm_a53

(** Generic LLVM CPU target. *)
let llvm () = Llvm Machine.xeon_host

(** ARM Mali T860MP4. *)
let mali () = Opencl_mali Machine.mali_t860

let of_name = function
  | "cuda" -> cuda ()
  | "arm" -> arm_cpu ()
  | "mali" -> mali ()
  | "llvm" -> llvm ()
  | s -> invalid_arg ("unknown target " ^ s ^ " (cuda|arm|mali|llvm)")

let name = function
  | Cuda g -> "cuda/" ^ g.Machine.gpu_name
  | Llvm c -> "llvm/" ^ c.Machine.cpu_name
  | Opencl_mali g -> "opencl/" ^ g.Machine.gpu_name

let is_gpu = function Cuda _ | Opencl_mali _ -> true | Llvm _ -> false

(** Estimated run time of a lowered kernel on this target (noise-free;
    the measurement path adds noise via the device pool). *)
let time_s t stmt =
  match t with
  | Cuda g | Opencl_mali g -> Tvm_sim.Gpu_model.time_s g stmt
  | Llvm c -> Tvm_sim.Cpu_model.time_s c stmt

let device_kind t : Tvm_rpc.Device_pool.device_kind =
  match t with
  | Cuda g | Opencl_mali g -> Tvm_rpc.Device_pool.Gpu_dev g
  | Llvm c -> Tvm_rpc.Device_pool.Cpu_dev c
