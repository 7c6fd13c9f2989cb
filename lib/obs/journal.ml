(* See journal.mli. The store is a mutex-protected reverse list of
   entries; all producers run on the coordinator domain in input order
   (that is the determinism contract, not something this module can
   enforce), so the mutex only guards against concurrent tuners. *)

type entry =
  | Run of { r_name : string; r_method : string; r_trials : int }
  | Propose of {
      p_uid : int;
      p_origin : string;
      p_chain : int;
      p_score : float;
      p_config : string;
    }
  | Prepare of { q_uid : int; q_cache : string; q_valid : bool }
  | Dispatch of {
      d_uid : int;
      d_dev : int;
      d_device : string;
      d_attempt : int;
      d_outcome : string;
      d_cost_s : float;
      d_queue_s : float;
    }
  | Measure of {
      m_uid : int;
      m_status : string;
      m_time_s : float option;
      m_attempts : int;
    }

let on = ref false
let lock = Mutex.create ()
let store : entry list ref = ref []  (* reverse record order *)
let uid_counter = Atomic.make 0

let enabled () = !on

let reset () =
  Mutex.protect lock (fun () ->
      store := [];
      Atomic.set uid_counter 0)

let set_enabled b =
  if b && not !on then reset ();
  on := b

let fresh_uid () = Atomic.fetch_and_add uid_counter 1

let record e = if !on then Mutex.protect lock (fun () -> store := e :: !store)

let run ~name ~method_ ~trials =
  record (Run { r_name = name; r_method = method_; r_trials = trials })

let propose ~uid ~origin ~chain ~score ~config =
  record
    (Propose
       { p_uid = uid; p_origin = origin; p_chain = chain; p_score = score;
         p_config = config })

let prepare ~uid ~cache ~valid =
  record (Prepare { q_uid = uid; q_cache = cache; q_valid = valid })

let dispatch ~uid ~dev ~device ~attempt ~outcome ~cost_s ~queue_s =
  record
    (Dispatch
       { d_uid = uid; d_dev = dev; d_device = device; d_attempt = attempt;
         d_outcome = outcome; d_cost_s = cost_s; d_queue_s = queue_s })

let measure ~uid ~status ~time_s ~attempts =
  record
    (Measure
       { m_uid = uid; m_status = status; m_time_s = time_s;
         m_attempts = attempts })

(* ------------------------------------------------------------------ *)
(* Job tags                                                            *)
(* ------------------------------------------------------------------ *)

(* Domain-local so concurrent tuners on different domains cannot see
   each other's batches; the pool replays its jobs on the domain that
   set the tags. *)
let job_tags : int array Domain.DLS.key = Domain.DLS.new_key (fun () -> [||])

let set_job_tags tags = Domain.DLS.set job_tags tags
let clear_job_tags () = Domain.DLS.set job_tags [||]

let job_tag j =
  let tags = Domain.DLS.get job_tags in
  if j >= 0 && j < Array.length tags then tags.(j) else -1

(* ------------------------------------------------------------------ *)
(* Access and serialization                                            *)
(* ------------------------------------------------------------------ *)

let entries () = Mutex.protect lock (fun () -> List.rev !store)
let size () = Mutex.protect lock (fun () -> List.length !store)

(* Fields are assembled by hand in a fixed order so the line layout —
   not just the data — is stable; floats go through [Json.num_string]
   (full [%.17g] precision, non-finite as null). *)
let entry_to_line = function
  | Run { r_name; r_method; r_trials } ->
      Printf.sprintf {|{"ev":"run","name":%s,"method":%s,"trials":%d}|}
        (Json.escape r_name) (Json.escape r_method) r_trials
  | Propose { p_uid; p_origin; p_chain; p_score; p_config } ->
      Printf.sprintf
        {|{"ev":"propose","uid":%d,"origin":%s,"chain":%d,"score":%s,"config":%s}|}
        p_uid (Json.escape p_origin) p_chain (Json.num_string p_score)
        (Json.escape p_config)
  | Prepare { q_uid; q_cache; q_valid } ->
      Printf.sprintf {|{"ev":"prepare","uid":%d,"cache":%s,"valid":%b}|} q_uid
        (Json.escape q_cache) q_valid
  | Dispatch
      { d_uid; d_dev; d_device; d_attempt; d_outcome; d_cost_s; d_queue_s } ->
      Printf.sprintf
        {|{"ev":"dispatch","uid":%d,"dev":%d,"device":%s,"attempt":%d,"outcome":%s,"cost_s":%s,"queue_s":%s}|}
        d_uid d_dev (Json.escape d_device) d_attempt (Json.escape d_outcome)
        (Json.num_string d_cost_s) (Json.num_string d_queue_s)
  | Measure { m_uid; m_status; m_time_s; m_attempts } ->
      Printf.sprintf
        {|{"ev":"measure","uid":%d,"status":%s,"time_s":%s,"attempts":%d}|}
        m_uid (Json.escape m_status)
        (match m_time_s with Some t -> Json.num_string t | None -> "null")
        m_attempts

let to_jsonl () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (entry_to_line e);
      Buffer.add_char buf '\n')
    (entries ());
  Buffer.contents buf

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl ()))

let parse_line line =
  if String.trim line = "" then None
  else
    match Json.parse line with
    | exception Json.Parse_error _ -> None
    | j -> (
        let str k = Option.bind (Json.member k j) Json.to_string_opt in
        let num k = Option.bind (Json.member k j) Json.to_num_opt in
        let int_ k = Option.map int_of_float (num k) in
        let ( let* ) = Option.bind in
        match str "ev" with
        | Some "run" ->
            let* name = str "name" in
            let* method_ = str "method" in
            let* trials = int_ "trials" in
            Some (Run { r_name = name; r_method = method_; r_trials = trials })
        | Some "propose" ->
            let* uid = int_ "uid" in
            let* origin = str "origin" in
            let* chain = int_ "chain" in
            let* config = str "config" in
            let score = Option.value ~default:Float.nan (num "score") in
            Some
              (Propose
                 { p_uid = uid; p_origin = origin; p_chain = chain;
                   p_score = score; p_config = config })
        | Some "prepare" ->
            let* uid = int_ "uid" in
            let* cache = str "cache" in
            let* valid =
              match Json.member "valid" j with
              | Some (Json.Bool b) -> Some b
              | _ -> None
            in
            Some (Prepare { q_uid = uid; q_cache = cache; q_valid = valid })
        | Some "dispatch" ->
            let* uid = int_ "uid" in
            let* dev = int_ "dev" in
            let* device = str "device" in
            let* attempt = int_ "attempt" in
            let* outcome = str "outcome" in
            let* cost_s = num "cost_s" in
            let* queue_s = num "queue_s" in
            (* Placement and speculation keys that older pools wrote
               are ignored like any unknown key. *)
            Some
              (Dispatch
                 { d_uid = uid; d_dev = dev; d_device = device;
                   d_attempt = attempt; d_outcome = outcome; d_cost_s = cost_s;
                   d_queue_s = queue_s })
        | Some "measure" ->
            let* uid = int_ "uid" in
            let* status = str "status" in
            let* attempts = int_ "attempts" in
            Some
              (Measure
                 { m_uid = uid; m_status = status; m_time_s = num "time_s";
                   m_attempts = attempts })
        | _ -> None)

let load_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let out = ref [] in
      (try
         while true do
           match parse_line (input_line ic) with
           | Some e -> out := e :: !out
           | None -> ()
         done
       with End_of_file -> ());
      List.rev !out)
