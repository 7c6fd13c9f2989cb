(* See job_spec.mli. *)

module Json = Tvm_obs.Json

type op = Compile | Tune | Profile

let op_name = function Compile -> "compile" | Tune -> "tune" | Profile -> "profile"

let op_of_name = function
  | "compile" -> Compile
  | "tune" -> Tune
  | "profile" -> Profile
  | s -> invalid_arg ("job_spec: unknown op " ^ s ^ " (compile|tune|profile)")

type t = {
  op : op;
  workload : string;
  target : string;
  fusion : bool;
  trials : int;
  method_name : string;
  seed : int;
  batch : int;
  sa_steps : int;
  n_chains : int;
  jobs : int;
  devices : int;
  validate : bool;
  verbose : bool;
  use_compile_cache : bool;
  replay : bool;
  fault_rate : float;
  straggler : int option;
  max_retries : int;
  timeout_s : float;
  fleet : int;
}

let default =
  {
    op = Tune;
    workload = "C7";
    target = "cuda";
    fusion = true;
    trials = 64;
    method_name = "ml";
    seed = 42;
    batch = 16;
    sa_steps = 60;
    n_chains = 16;
    jobs = Domain.recommended_domain_count ();
    devices = 1;
    validate = false;
    verbose = false;
    use_compile_cache = true;
    replay = false;
    fault_rate = 0.;
    straggler = None;
    max_retries = 2;
    timeout_s = 10.;
    fleet = 0;
  }

let make ?(op = default.op) ?(workload = default.workload)
    ?(target = default.target) ?(fusion = default.fusion)
    ?(trials = default.trials) ?(method_name = default.method_name)
    ?(seed = default.seed) ?(batch = default.batch)
    ?(sa_steps = default.sa_steps) ?(n_chains = default.n_chains)
    ?(jobs = default.jobs) ?(devices = default.devices)
    ?(validate = default.validate) ?(verbose = default.verbose)
    ?(use_compile_cache = default.use_compile_cache)
    ?(replay = default.replay) ?(fault_rate = default.fault_rate) ?straggler
    ?(max_retries = default.max_retries) ?(timeout_s = default.timeout_s)
    ?(fleet = default.fleet) () =
  {
    op; workload; target; fusion; trials; method_name; seed; batch; sa_steps;
    n_chains; jobs; devices; validate; verbose; use_compile_cache; replay;
    fault_rate; straggler; max_retries; timeout_s; fleet;
  }

let to_json t =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ("op", Json.Str (op_name t.op));
      ("workload", Json.Str t.workload);
      ("target", Json.Str t.target);
      ("fusion", Json.Bool t.fusion);
      ("trials", Json.Num (Float.of_int t.trials));
      ("method", Json.Str t.method_name);
      ("seed", Json.Num (Float.of_int t.seed));
      ("batch", Json.Num (Float.of_int t.batch));
      ("sa_steps", Json.Num (Float.of_int t.sa_steps));
      ("n_chains", Json.Num (Float.of_int t.n_chains));
      ("jobs", Json.Num (Float.of_int t.jobs));
      ("devices", Json.Num (Float.of_int t.devices));
      ("validate", Json.Bool t.validate);
      ("verbose", Json.Bool t.verbose);
      ("use_compile_cache", Json.Bool t.use_compile_cache);
      ("replay", Json.Bool t.replay);
      ("fault_rate", Json.num t.fault_rate);
      ("straggler", opt (fun n -> Json.Num (Float.of_int n)) t.straggler);
      ("max_retries", Json.Num (Float.of_int t.max_retries));
      ("timeout_s", Json.num t.timeout_s);
      ("fleet", Json.Num (Float.of_int t.fleet));
    ]

let max_batch = 1024
let max_n_chains = 1024
let max_jobs = 128
let max_devices = 10_000
let max_fleet = 10_000

(* 2^53: past it a double no longer holds every integer exactly. *)
let max_exact = 1 lsl 53

let int_of_num ?(lo = -max_exact) ?(hi = max_exact) what v =
  if Float.is_integer v && v >= Float.of_int lo && v <= Float.of_int hi then
    int_of_float v
  else invalid_arg (Printf.sprintf "%s must be an integer in [%d, %d], got %g" what lo hi v)

let of_json j =
  (match j with Json.Obj _ -> () | _ -> invalid_arg "job_spec: expected a JSON object");
  let str key d = Option.value ~default:d (Option.bind (Json.member key j) Json.to_string_opt) in
  let num_opt key = Option.bind (Json.member key j) Json.to_num_opt in
  let num key d = Option.value ~default:d (num_opt key) in
  let checked ?lo ?hi key v = int_of_num ?lo ?hi ("job_spec: " ^ key) v in
  let int ?lo ?hi key d = Option.fold ~none:d ~some:(checked ?lo ?hi key) (num_opt key) in
  let bool key d =
    match Json.member key j with Some (Json.Bool b) -> b | _ -> d
  in
  let d = default in
  {
    op = op_of_name (str "op" (op_name d.op));
    workload = str "workload" d.workload;
    target = str "target" d.target;
    fusion = bool "fusion" d.fusion;
    trials = int ~lo:0 "trials" d.trials;
    method_name = str "method" d.method_name;
    seed = int "seed" d.seed;
    batch = int ~lo:1 ~hi:max_batch "batch" d.batch;
    sa_steps = int ~lo:0 "sa_steps" d.sa_steps;
    n_chains = int ~lo:1 ~hi:max_n_chains "n_chains" d.n_chains;
    jobs = int ~lo:1 ~hi:max_jobs "jobs" d.jobs;
    devices = int ~lo:1 ~hi:max_devices "devices" d.devices;
    validate = bool "validate" d.validate;
    verbose = bool "verbose" d.verbose;
    use_compile_cache = bool "use_compile_cache" d.use_compile_cache;
    replay = bool "replay" d.replay;
    fault_rate = num "fault_rate" d.fault_rate;
    straggler = Option.map (checked ~lo:0 "straggler") (num_opt "straggler");
    max_retries = int ~lo:0 "max_retries" d.max_retries;
    timeout_s = num "timeout_s" d.timeout_s;
    fleet = int ~lo:0 ~hi:max_fleet "fleet" d.fleet;
  }

let to_string t = Json.to_string (to_json t)
let of_string s = of_json (Json.parse s)
