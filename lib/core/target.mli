(** Compilation targets — the [t.target.cuda()] of §2's example.

    Each target pairs a back-end kind with a simulated machine
    description; the lowering pipeline and the timing model used for
    measurements are both selected through it. *)

module Machine = Tvm_sim.Machine

type t =
  | Cuda of Machine.gpu  (** server-class GPU (§6.1) *)
  | Llvm of Machine.cpu  (** CPU back-end (§6.2) *)
  | Opencl_mali of Machine.gpu  (** embedded GPU (§6.3) *)

(** NVIDIA Titan X. *)
val cuda : unit -> t

(** ARM Cortex A53 (the paper's embedded CPU board). *)
val arm_cpu : unit -> t

(** Generic LLVM CPU target (server-class host). *)
val llvm : unit -> t

(** ARM Mali T860MP4. *)
val mali : unit -> t

(** A target by its {!Tvm_spec.Job_spec.target} name, with default
    machines; raises [Invalid_argument] listing the valid names
    otherwise. *)
val of_name : string -> t

val name : t -> string
val is_gpu : t -> bool

(** Estimated run time of a lowered kernel on this target (noise-free;
    the measurement path adds noise via the device pool). *)
val time_s : t -> Tvm_tir.Stmt.t -> float

val device_kind : t -> Tvm_rpc.Device_pool.device_kind
