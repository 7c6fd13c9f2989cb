(* See store.mli. *)

module Obs_metrics = Tvm_obs.Metrics

type block = { b_kind : string; b_records : string list }

(* ------------------------------------------------------------------ *)
(* Checksum                                                            *)
(* ------------------------------------------------------------------ *)

let fnv1a64 (s : string) : int64 =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let checksum s = Printf.sprintf "%016Lx" (fnv1a64 s)

(* ------------------------------------------------------------------ *)
(* Raw blocks                                                          *)
(* ------------------------------------------------------------------ *)

let header_prefix = "#tvmstore "

let reject ?path reason =
  Printf.eprintf "[tvm] store%s: skipping block: %s\n%!"
    (match path with Some p -> " " ^ p | None -> "")
    reason;
  Obs_metrics.incr "cache.load_rejected"

let append_block path ~kind records =
  if String.exists (fun c -> c = ' ' || c = '\n') kind then
    invalid_arg ("Store.append_block: kind with separator: " ^ kind);
  List.iter
    (fun r ->
      if String.contains r '\n' then
        invalid_arg "Store.append_block: record with newline")
    records;
  let body = String.concat "\n" records in
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
  in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Printf.fprintf oc "%sv1 kind=%s records=%d checksum=%s\n" header_prefix kind
    (List.length records) (checksum body);
  List.iter (fun r -> output_string oc (r ^ "\n")) records;
  flush oc

let parse_header line =
  try
    Scanf.sscanf line "#tvmstore v%d kind=%s records=%d checksum=%s%!"
      (fun v kind n sum -> Some (v, kind, n, sum))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let read_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let load_blocks path =
  if not (Sys.file_exists path) then []
  else begin
    let lines = Array.of_list (read_lines path) in
    let n = Array.length lines in
    let blocks = ref [] in
    let i = ref 0 in
    while !i < n do
      let line = lines.(!i) in
      if String.starts_with ~prefix:header_prefix line then begin
        match parse_header line with
        | None ->
            reject ~path "malformed header";
            incr i
        | Some (v, _, _, _) when v <> 1 ->
            reject ~path (Printf.sprintf "unknown version v%d" v);
            incr i
        | Some (_, kind, count, sum) ->
            if count < 0 || !i + count > n - 1 then begin
              reject ~path "truncated block";
              i := n
            end
            else begin
              let records =
                Array.to_list (Array.sub lines (!i + 1) count)
              in
              if checksum (String.concat "\n" records) <> sum then begin
                reject ~path "checksum mismatch";
                (* Resync at the next header line: the block body is not
                   trustworthy, so don't skip by its claimed length. *)
                incr i
              end
              else begin
                blocks := { b_kind = kind; b_records = records } :: !blocks;
                i := !i + 1 + count
              end
            end
      end
      else incr i
    done;
    List.rev !blocks
  end

(* ------------------------------------------------------------------ *)
(* Field encoding                                                      *)
(* ------------------------------------------------------------------ *)

(* Fields are tab-separated; free-form strings (Db keys, scope tags,
   pool-error messages) travel [String.escaped] so they can never
   collide with the separators, and floats travel as "%h" hex literals
   so every round trip is bit-exact. *)

let float_out = function
  | None -> "-"
  | Some t -> Printf.sprintf "%h" t

let float_in = function
  | "-" -> None
  | s -> (
      match float_of_string_opt s with
      | Some t -> Some t
      | None -> failwith ("bad float " ^ s))

let fields line = String.split_on_char '\t' line

(* ------------------------------------------------------------------ *)
(* Scoped records                                                      *)
(* ------------------------------------------------------------------ *)

(* A scoped block's first record is its escaped scope tag. Tags are
   compared escaped, so a hostile tag that does not unescape can only
   fail to match — it never raises. *)

let append_scoped path ~kind ~scope out items =
  if items <> [] then
    append_block path ~kind (String.escaped scope :: List.map out items)

let load_records blocks ~kind ?scope parse =
  let tag = Option.map String.escaped scope in
  let parse_block records =
    match List.map parse records with
    | parsed -> parsed
    | exception e ->
        reject
          (Printf.sprintf "bad %s record (%s)" kind (Printexc.to_string e));
        []
  in
  List.concat_map
    (fun b ->
      if b.b_kind <> kind then []
      else
        match (tag, b.b_records) with
        | None, records -> parse_block records
        | Some t, t' :: records when t = t' -> parse_block records
        | Some _, _ -> [])
    blocks

(* ------------------------------------------------------------------ *)
(* Trial logs                                                          *)
(* ------------------------------------------------------------------ *)

let db_kind = "db.scoped"

let db_record_out (key, cfg, result) =
  let { Measure_result.time_s; status; attempts } = result in
  let msg = match status with Measure_result.Pool_error m -> m | _ -> "" in
  Printf.sprintf "%s\t%s\t%s\t%s\t%d\t%s" (String.escaped key)
    (Cfg_space.to_string cfg)
    (Measure_result.status_name status)
    (float_out time_s) attempts (String.escaped msg)

let db_record_in line =
  match fields line with
  | [ key; cfg; status; time; attempts; msg ] ->
      let status =
        Measure_result.status_of_name ~msg:(Scanf.unescaped msg) status
      in
      ( Scanf.unescaped key,
        Cfg_space.of_string cfg,
        {
          Measure_result.time_s = float_in time;
          status;
          attempts = int_of_string attempts;
        } )
  | _ -> failwith ("bad db record: " ^ line)

let flush_db_scope path ~scope ~from db =
  let records = Tuner.Db.records db in
  append_scoped path ~kind:db_kind ~scope db_record_out
    (List.filteri (fun i _ -> i >= from) records
    |> List.map (fun (r : Tuner.Db.record) ->
           (r.Tuner.Db.db_key, r.Tuner.Db.db_config, r.Tuner.Db.db_result)));
  List.length records

let load_db_scope blocks ~scope ~into =
  let records = load_records blocks ~kind:db_kind ~scope db_record_in in
  List.iter (fun (key, cfg, result) -> Tuner.Db.add into key cfg result) records;
  List.length records

(* ------------------------------------------------------------------ *)
(* Tuned-configuration cache                                           *)
(* ------------------------------------------------------------------ *)

let tuned_kind = "tuned.scoped"

let tuned_out (sig_, cfg, t) =
  Printf.sprintf "%s\t%s\t%h" (String.escaped sig_) (Cfg_space.to_string cfg) t

let tuned_in line =
  match fields line with
  | [ sig_; cfg; t ] -> (
      match float_of_string_opt t with
      | Some t -> (Scanf.unescaped sig_, Cfg_space.of_string cfg, t)
      | None -> failwith ("bad tuned record: " ^ line))
  | _ -> failwith ("bad tuned record: " ^ line)

let append_tuned_scope path ~scope entries =
  append_scoped path ~kind:tuned_kind ~scope tuned_out entries

let load_tuned_scope blocks ~scope =
  load_records blocks ~kind:tuned_kind ~scope tuned_in

(* ------------------------------------------------------------------ *)
(* Compile caches                                                      *)
(* ------------------------------------------------------------------ *)

let cache_kind = "cache"

(* [Compile_cache.iter_entries] forces every entry, so [feats] only
   reads stored features here. *)
let cache_entry_out (key, entry) =
  match Compile_cache.feats entry with
  | None -> Printf.sprintf "%s\tinvalid" (Cfg_space.to_string key)
  | Some feats ->
      Printf.sprintf "%s\tvalid\t%s" (Cfg_space.to_string key)
        (String.concat " "
           (List.map (Printf.sprintf "%h") (Array.to_list feats)))

let cache_entry_in line =
  match fields line with
  | [ cfg; "invalid" ] -> (Cfg_space.of_string cfg, Compile_cache.Invalid)
  | [ cfg; "valid"; feats ] ->
      let feats =
        if feats = "" then [||]
        else
          Array.of_list
            (List.map
               (fun s ->
                 match float_of_string_opt s with
                 | Some f -> f
                 | None -> failwith ("bad feature " ^ s))
               (String.split_on_char ' ' feats))
      in
      (Cfg_space.of_string cfg, Compile_cache.Valid feats)
  | _ -> failwith ("bad cache record: " ^ line)

let save_cache path ~scope ?(from = 0) cache =
  let entries = ref [] and total = ref 0 in
  Compile_cache.iter_entries cache (fun k e ->
      if !total >= from then entries := (k, e) :: !entries;
      incr total);
  append_scoped path ~kind:cache_kind ~scope cache_entry_out (List.rev !entries);
  !total

let load_cache blocks ~scope ~into =
  let entries = load_records blocks ~kind:cache_kind ~scope cache_entry_in in
  List.iter (fun (k, e) -> Compile_cache.add into k e) entries;
  List.length entries

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)
(* ------------------------------------------------------------------ *)

type keep = Keep_all | First_per_key | Last_per_key

type rule = { rl_kind : string; rl_scoped : bool; rl_keep : keep }

let default_rules =
  [
    { rl_kind = db_kind; rl_scoped = true; rl_keep = Keep_all };
    { rl_kind = tuned_kind; rl_scoped = true; rl_keep = First_per_key };
    { rl_kind = cache_kind; rl_scoped = true; rl_keep = First_per_key };
  ]

exception Injected_crash

(* A record's dedup key is its first tab-separated field. *)
let record_key line =
  match String.index_opt line '\t' with
  | Some i -> String.sub line 0 i
  | None -> line

let dedup_records keep records =
  match keep with
  | Keep_all -> records
  | First_per_key ->
      let seen = Hashtbl.create 64 in
      List.filter
        (fun r ->
          let k = record_key r in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        records
  | Last_per_key ->
      let seen = Hashtbl.create 64 in
      List.rev
        (List.filter
           (fun r ->
             let k = record_key r in
             if Hashtbl.mem seen k then false
             else begin
               Hashtbl.add seen k ();
               true
             end)
           (List.rev records))

let block_to_string ~kind records =
  let body = String.concat "\n" records in
  Printf.sprintf "%sv1 kind=%s records=%d checksum=%s\n%s" header_prefix kind
    (List.length records) (checksum body)
    (if records = [] then "" else body ^ "\n")

let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  in_channel_length ic

let compact ?(rules = default_rules) ?(threshold_bytes = 0)
    ?crash_after_bytes ?(crash_before_rename = false) path =
  if not (Sys.file_exists path) then None
  else begin
    let before = file_size path in
    if before < threshold_bytes then None
    else begin
      let rule_for kind =
        match List.find_opt (fun r -> r.rl_kind = kind) rules with
        | Some r -> r
        | None -> { rl_kind = kind; rl_scoped = false; rl_keep = Keep_all }
      in
      (* Group live records by (kind, scope tag), preserving both the
         groups' first-appearance order and record order within a
         group — every loader is order-sensitive only within its own
         (kind, scope). Unruled kinds keep every record. *)
      let groups : (string * string option, string list ref) Hashtbl.t =
        Hashtbl.create 16
      in
      let order = ref [] in
      let add_group key records =
        match Hashtbl.find_opt groups key with
        | Some acc -> acc := List.rev_append records !acc
        | None ->
            Hashtbl.add groups key (ref (List.rev records));
            order := key :: !order
      in
      List.iter
        (fun b ->
          let rule = rule_for b.b_kind in
          if rule.rl_scoped then
            match b.b_records with
            | tag :: records -> add_group (b.b_kind, Some tag) records
            | [] -> ()
          else add_group (b.b_kind, None) b.b_records)
        (load_blocks path);
      let buf = Buffer.create (before / 2) in
      List.iter
        (fun (kind, tag) ->
          let records =
            List.rev !(Hashtbl.find groups (kind, tag))
            |> dedup_records (rule_for kind).rl_keep
          in
          let records =
            match tag with Some t -> t :: records | None -> records
          in
          if records <> [] then
            Buffer.add_string buf (block_to_string ~kind records))
        (List.rev !order);
      let out = Buffer.contents buf in
      let tmp = path ^ ".compact.tmp" in
      let write n =
        let oc = open_out_bin tmp in
        Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
        output_string oc (String.sub out 0 n);
        flush oc
      in
      (match crash_after_bytes with
      | Some n when n < String.length out ->
          write n;
          raise Injected_crash
      | _ -> ());
      write (String.length out);
      if crash_before_rename then raise Injected_crash;
      Sys.rename tmp path;
      Obs_metrics.incr "store.compactions";
      Obs_metrics.incr "store.compacted_bytes"
        ~by:(float_of_int (max 0 (before - String.length out)));
      Some (before, String.length out)
    end
  end
