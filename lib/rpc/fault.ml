(** Deterministic, seed-driven fault injection for the device pool.

    The paper's measurement fleet (§5.4, Fig 11) runs on real boards
    that time out, crash mid-run and return garbage. A [plan]
    reproduces those behaviours in the simulator, driven entirely by a
    hash of (plan seed, job, attempt number) — so a given plan injects
    exactly the same fault sequence on every run. *)

type rates = {
  timeout_rate : float;  (** transient: the job hangs until killed *)
  crash_rate : float;  (** transient: the run dies before reporting *)
  corrupt_rate : float;
      (** transient: the timed runs disagree wildly (an outlier) *)
}

let no_fault_rates = { timeout_rate = 0.; crash_rate = 0.; corrupt_rate = 0. }

type outcome =
  | No_fault
  | Timeout
  | Crash
  | Corrupt of float  (** multiplier applied to the true measurement *)

type plan = { plan_seed : int; rates : rates }

let none = { plan_seed = 0; rates = no_fault_rates }

let transient ?(seed = 0) ~rate () =
  {
    plan_seed = seed;
    rates =
      {
        timeout_rate = 0.5 *. rate;
        crash_rate = 0.3 *. rate;
        corrupt_rate = 0.2 *. rate;
      };
  }

(* Integer mixer (splitmix-style): avalanches its two inputs so
   consecutive attempt numbers give independent-looking draws. *)
let mix a b =
  let h = ref ((a * 0x9E3779B1) lxor (b * 0x85EBCA6B)) in
  h := !h lxor (!h lsr 15);
  h := !h * 0x2C1B3C6D;
  h := !h lxor (!h lsr 12);
  h := !h * 0x297A2D39;
  h := !h lxor (!h lsr 15);
  !h land max_int

(** Uniform draw in [0,1) for ([plan_seed] + [salt], [job], [attempt]). *)
let unit_float t ~job ~attempt ~salt =
  float_of_int (mix (mix (t.plan_seed + salt) job) attempt land 0x3FFFFFFF)
  /. float_of_int 0x40000000

let draw t ~job ~attempt =
  let r = t.rates in
  let u = unit_float t ~job ~attempt ~salt:0 in
  let timeout = r.timeout_rate in
  let crash = timeout +. r.crash_rate in
  let corrupt = crash +. r.corrupt_rate in
  if u < timeout then Timeout
  else if u < crash then Crash
  else if u < corrupt then
    (* outlier factor in [3, 10): far outside measurement noise, so
       repeat-disagreement detection always fires *)
    Corrupt (3. +. (7. *. unit_float t ~job ~attempt ~salt:1))
  else No_fault
