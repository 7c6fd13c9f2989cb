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

let reject path reason =
  Printf.eprintf "[tvm] store %s: skipping block: %s\n%!" path reason;
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
            reject path "malformed header";
            incr i
        | Some (v, _, _, _) when v <> 1 ->
            reject path (Printf.sprintf "unknown version v%d" v);
            incr i
        | Some (_, kind, count, sum) ->
            if count < 0 || !i + count > n - 1 then begin
              reject path "truncated block";
              i := n
            end
            else begin
              let records =
                Array.to_list (Array.sub lines (!i + 1) count)
              in
              if checksum (String.concat "\n" records) <> sum then begin
                reject path "checksum mismatch";
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
(* Trial logs                                                          *)
(* ------------------------------------------------------------------ *)

let db_kind = "db"

let db_record_out (r : Tuner.Db.record) =
  let { Measure_result.time_s; status; attempts } = r.Tuner.Db.db_result in
  let msg = match status with Measure_result.Pool_error m -> m | _ -> "" in
  Printf.sprintf "%s\t%s\t%s\t%s\t%d\t%s"
    (String.escaped r.Tuner.Db.db_key)
    (Cfg_space.to_string r.Tuner.Db.db_config)
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

let flush_db path ~from db =
  let records = Tuner.Db.records db in
  let total = List.length records in
  if total > from then begin
    let fresh = List.filteri (fun i _ -> i >= from) records in
    append_block path ~kind:db_kind (List.map db_record_out fresh)
  end;
  total

let load_db path ~into =
  let loaded = ref 0 in
  List.iter
    (fun b ->
      if b.b_kind = db_kind then
        match List.map db_record_in b.b_records with
        | parsed ->
            List.iter
              (fun (key, cfg, result) ->
                Tuner.Db.add into key cfg result;
                incr loaded)
              parsed
        | exception e ->
            reject path ("bad db record (" ^ Printexc.to_string e ^ ")"))
    (load_blocks path);
  !loaded

(* ------------------------------------------------------------------ *)
(* Scoped trial logs                                                   *)
(* ------------------------------------------------------------------ *)

let db_scoped_kind = "db.scoped"

let flush_db_scope path ~scope ~from db =
  let records = Tuner.Db.records db in
  let total = List.length records in
  if total > from then begin
    let fresh = List.filteri (fun i _ -> i >= from) records in
    append_block path ~kind:db_scoped_kind
      (String.escaped scope :: List.map db_record_out fresh)
  end;
  total

let load_db_scope path ~scope ~into =
  let loaded = ref 0 in
  List.iter
    (fun b ->
      if b.b_kind = db_scoped_kind then
        match b.b_records with
        | tag :: records when Scanf.unescaped tag = scope -> (
            match List.map db_record_in records with
            | parsed ->
                List.iter
                  (fun (key, cfg, result) ->
                    Tuner.Db.add into key cfg result;
                    incr loaded)
                  parsed
            | exception e ->
                reject path ("bad db record (" ^ Printexc.to_string e ^ ")"))
        | _ -> ())
    (load_blocks path);
  !loaded

(* ------------------------------------------------------------------ *)
(* Tuned-configuration cache                                           *)
(* ------------------------------------------------------------------ *)

let tuned_kind = "tuned"

let tuned_out (sig_, cfg, t) =
  Printf.sprintf "%s\t%s\t%s" (String.escaped sig_) (Cfg_space.to_string cfg)
    (Printf.sprintf "%h" t)

let tuned_in line =
  match fields line with
  | [ sig_; cfg; t ] -> (
      match float_of_string_opt t with
      | Some t -> (Scanf.unescaped sig_, Cfg_space.of_string cfg, t)
      | None -> failwith ("bad tuned record: " ^ line))
  | _ -> failwith ("bad tuned record: " ^ line)

let append_tuned path entries =
  if entries <> [] then
    append_block path ~kind:tuned_kind (List.map tuned_out entries)

let load_tuned path =
  List.concat_map
    (fun b ->
      if b.b_kind <> tuned_kind then []
      else
        match List.map tuned_in b.b_records with
        | parsed -> parsed
        | exception e ->
            reject path ("bad tuned record (" ^ Printexc.to_string e ^ ")");
            [])
    (load_blocks path)

let tuned_scoped_kind = "tuned.scoped"

let append_tuned_scope path ~scope entries =
  if entries <> [] then
    append_block path ~kind:tuned_scoped_kind
      (String.escaped scope :: List.map tuned_out entries)

let load_tuned_scope path ~scope =
  List.concat_map
    (fun b ->
      if b.b_kind <> tuned_scoped_kind then []
      else
        match b.b_records with
        | tag :: records when Scanf.unescaped tag = scope -> (
            match List.map tuned_in records with
            | parsed -> parsed
            | exception e ->
                reject path
                  ("bad tuned record (" ^ Printexc.to_string e ^ ")");
                [])
        | _ -> [])
    (load_blocks path)

(* ------------------------------------------------------------------ *)
(* Compile caches                                                      *)
(* ------------------------------------------------------------------ *)

let cache_kind = "cache"

(* First record of a cache block is the escaped scope tag; the rest are
   feature-memo entries. *)

let cache_entry_out key (entry : Compile_cache.entry) =
  match entry with
  | Compile_cache.Invalid ->
      Printf.sprintf "%s\tinvalid" (Cfg_space.to_string key)
  | Compile_cache.Valid feats ->
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
      if !total >= from then entries := cache_entry_out k e :: !entries;
      incr total);
  if !entries <> [] then
    append_block path ~kind:cache_kind
      (String.escaped scope :: List.rev !entries);
  !total

let load_cache path ~scope ~into =
  let added = ref 0 in
  List.iter
    (fun b ->
      if b.b_kind = cache_kind then
        match b.b_records with
        | tag :: records when Scanf.unescaped tag = scope -> (
            match List.map cache_entry_in records with
            | parsed ->
                List.iter
                  (fun (k, e) ->
                    Compile_cache.add into k e;
                    incr added)
                  parsed
            | exception e ->
                reject path ("bad cache record (" ^ Printexc.to_string e ^ ")"))
        | _ -> ())
    (load_blocks path);
  !added

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)
(* ------------------------------------------------------------------ *)

type keep = Keep_all | First_per_key | Last_per_key

type rule = { rl_kind : string; rl_scoped : bool; rl_keep : keep }

let default_rules =
  [
    { rl_kind = db_kind; rl_scoped = false; rl_keep = Keep_all };
    { rl_kind = db_scoped_kind; rl_scoped = true; rl_keep = Keep_all };
    { rl_kind = tuned_kind; rl_scoped = false; rl_keep = First_per_key };
    { rl_kind = tuned_scoped_kind; rl_scoped = true; rl_keep = First_per_key };
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
