(* See compile_cache.mli. *)

module Obs_trace = Tvm_obs.Trace
module Obs_metrics = Tvm_obs.Metrics

type key = Cfg_space.config
type entry = Invalid | Valid of float array | Pending of Tvm_tir.Stmt.t

type t = {
  table : (key, entry) Hashtbl.t;
  order : key Queue.t;  (** entry insertion order — the persistence walk *)
  name : string;
}

let create ?(size = 256) ?(name = "tuner") () =
  { table = Hashtbl.create size; order = Queue.create (); name }

let size t = Hashtbl.length t.table

let featurize stmt =
  let t0 = Obs_trace.now_ns () in
  let feats = Feature.extract stmt in
  Obs_metrics.incr "tune.phase.feature_s"
    ~by:(Int64.to_float (Int64.sub (Obs_trace.now_ns ()) t0) /. 1e9);
  feats

let feats = function
  | Invalid -> None
  | Valid feats -> Some feats
  | Pending stmt -> Some (featurize stmt)

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
   carries equal values and dropping it changes nothing. Features
   replace a pending program without moving it in [order]. *)
let add t cfg entry =
  let k = Cfg_space.canonical cfg in
  match (Hashtbl.find_opt t.table k, entry) with
  | None, _ ->
      Hashtbl.add t.table k entry;
      Queue.push k t.order
  | Some (Pending _), Valid _ -> Hashtbl.replace t.table k entry
  | Some _, _ -> ()

let find_or_compile t cfg ~compile =
  match find t cfg with
  | Some e -> e
  | None ->
      let e = compile cfg in
      add t cfg e;
      e

let force_key t k =
  match Hashtbl.find_opt t.table k with
  | Some (Pending stmt) ->
      let e = Valid (featurize stmt) in
      Hashtbl.replace t.table k e;
      Some e
  | found -> found

let force t cfg = Option.bind (force_key t (Cfg_space.canonical cfg)) feats

(** Entries in insertion order, forced — the persistence walk. *)
let iter_entries t f =
  Queue.iter (fun k -> f k (Option.get (force_key t k))) t.order
