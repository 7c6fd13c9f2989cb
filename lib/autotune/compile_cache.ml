(* See compile_cache.mli. *)

module Obs_trace = Tvm_obs.Trace
module Obs_metrics = Tvm_obs.Metrics

type key = Cfg_space.config
type entry = Invalid | Valid of float array

type t = {
  table : (key, entry) Hashtbl.t;
  order : key Queue.t;  (** entry insertion order — the persistence walk *)
  name : string;
}

let create ?(size = 256) ?(name = "tuner") () =
  { table = Hashtbl.create size; order = Queue.create (); name }

let size t = Hashtbl.length t.table
let feats = function Invalid -> None | Valid feats -> Some feats

let record_lookup t hit =
  Obs_metrics.incr (if hit then "cache.hit" else "cache.miss");
  if Obs_trace.enabled () then
    Obs_trace.instant "cache.lookup"
      ~attrs:[ ("cache", t.name); ("hit", if hit then "1" else "0") ]

let find ?(record = true) t cfg =
  let found = Hashtbl.find_opt t.table (Cfg_space.canonical cfg) in
  if record then record_lookup t (Option.is_some found);
  found

(* First entry wins: compilation is deterministic, so a duplicate
   carries equal values and dropping it changes nothing. *)
let add t cfg entry =
  let k = Cfg_space.canonical cfg in
  if not (Hashtbl.mem t.table k) then begin
    Hashtbl.add t.table k entry;
    Queue.push k t.order
  end

let find_or_compile t cfg ~compile =
  match find t cfg with
  | Some e -> e
  | None ->
      let e = compile cfg in
      add t cfg e;
      e

(** Entries in insertion order — the persistence walk. *)
let iter_entries t f =
  Queue.iter (fun k -> f k (Hashtbl.find t.table k)) t.order
