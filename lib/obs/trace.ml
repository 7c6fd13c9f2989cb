(** Span tracing: nested timed spans over a monotonic clock.

    The tracer is a process-global, mutex-protected recorder, disabled
    by default. When disabled, [with_span] is a single flag check and a
    direct call — no allocation, no locking — so instrumentation can
    stay in hot paths permanently. When enabled it records a tree of
    closed spans plus point-in-time instant events (e.g. one per tuner
    trial), and exports either a human-readable tree or Chrome
    [trace_event] JSON loadable in [chrome://tracing] / Perfetto.

    Every span and event carries a {e lane} — a Chrome [(pid, tid)]
    pair — so the export separates host domains and simulated devices
    into their own tracks instead of stacking everything on pid 1 /
    tid 1. Each domain has an ambient lane (default [host_lane]); the
    device pool places its per-job slices on per-device lanes
    explicitly. Lanes are labelled with [process_name]/[thread_name]
    metadata events, and {!flow} emits Chrome flow arrows
    ([ph: s/t/f]) that link one tuning trial's propose → dispatch →
    measure steps across lanes.

    Time comes from the monotonic clock (nanoseconds); timestamps are
    reported relative to the most recent [reset]/[set_enabled true], so
    traces start near t=0. *)

type span = {
  sp_id : int;
  sp_parent : int;  (** [-1] for roots; [-2] for lane slices (kept out
                        of the span tree, exported like any span) *)
  sp_depth : int;
  sp_name : string;
  mutable sp_attrs : (string * string) list;
  sp_start_ns : int64;
  mutable sp_dur_ns : int64;  (** [-1L] while open *)
  sp_pid : int;
  sp_tid : int;
}

type flow_phase = Flow_start | Flow_step | Flow_end

type event = {
  ev_name : string;
  ev_attrs : (string * string) list;
  ev_ts_ns : int64;
  ev_parent : int;
  ev_pid : int;
  ev_tid : int;
  ev_flow : flow_phase option;  (** [None] = instant event *)
  ev_flow_id : int;
}

let on = ref false
let lock = Mutex.create ()
let next_id = ref 0
let epoch_ns = ref 0L
let open_stack : span list ref = ref []
let closed : span list ref = ref []  (* reverse completion order *)
let events : event list ref = ref []  (* reverse order *)

let now_ns () = Monotonic_clock.now ()

let enabled () = !on

(* ------------------------------------------------------------------ *)
(* Lanes                                                               *)
(* ------------------------------------------------------------------ *)

(** The coordinator's lane: pid 1 ("tvm host"), tid 1 ("main"). *)
let host_lane = (1, 1)

(** Lane of worker domain [i] (1-based) in the Tvm_par pool. *)
let domain_lane i = (1, 1 + i)

(** Lane of simulated device [dev_id] in the RPC pool. *)
let device_lane dev_id = (2, 1 + dev_id)

(* Ambient lane: every span/event opened on this domain without an
   explicit [?lane] lands here. Worker domains set theirs on spawn. *)
let lane_key : (int * int) Domain.DLS.key = Domain.DLS.new_key (fun () -> host_lane)

let set_lane lane = Domain.DLS.set lane_key lane
let current_lane () = Domain.DLS.get lane_key

(* Lane labels survive [reset] deliberately: pools register their
   device lanes at creation, which may precede enabling the tracer. *)
let process_names : (int, string) Hashtbl.t = Hashtbl.create 8
let thread_names : (int * int, string) Hashtbl.t = Hashtbl.create 16

let name_process ~pid name =
  Mutex.protect lock (fun () -> Hashtbl.replace process_names pid name)

let name_thread ~lane name =
  Mutex.protect lock (fun () -> Hashtbl.replace thread_names lane name)

let () =
  Hashtbl.replace process_names (fst host_lane) "tvm host";
  Hashtbl.replace thread_names host_lane "main"

let reset () =
  Mutex.protect lock (fun () ->
      next_id := 0;
      open_stack := [];
      closed := [];
      events := [];
      epoch_ns := now_ns ())

let set_enabled b =
  if b && not !on then reset ();
  on := b

let open_span ?(attrs = []) name =
  let pid, tid = current_lane () in
  Mutex.protect lock (fun () ->
      let parent, depth =
        match !open_stack with
        | [] -> (-1, 0)
        | p :: _ -> (p.sp_id, p.sp_depth + 1)
      in
      let sp =
        {
          sp_id = !next_id;
          sp_parent = parent;
          sp_depth = depth;
          sp_name = name;
          sp_attrs = attrs;
          sp_start_ns = now_ns ();
          sp_dur_ns = -1L;
          sp_pid = pid;
          sp_tid = tid;
        }
      in
      incr next_id;
      open_stack := sp :: !open_stack;
      sp)

let close_span ?error sp =
  Mutex.protect lock (fun () ->
      sp.sp_dur_ns <- Int64.sub (now_ns ()) sp.sp_start_ns;
      (match error with
      | Some e -> sp.sp_attrs <- ("error", e) :: sp.sp_attrs
      | None -> ());
      (* Pop down to (and including) sp: defensive against a child the
         caller failed to close, which would otherwise pin the stack. *)
      let rec pop = function
        | s :: rest when s.sp_id = sp.sp_id -> rest
        | _ :: rest -> pop rest
        | [] -> []
      in
      open_stack := pop !open_stack;
      closed := sp :: !closed)

let with_span ?attrs name f =
  if not !on then f ()
  else begin
    let sp = open_span ?attrs name in
    match f () with
    | v ->
        close_span sp;
        v
    | exception e ->
        close_span ~error:(Printexc.to_string e) sp;
        raise e
  end

(** Record an already-timed slice on [lane] (default: the ambient
    lane), closing now and starting at [start_ns]. Slices sit outside
    the span tree ([sp_parent = -2]) — they exist to give lane tracks
    (devices, domains) visible extents that flow arrows can bind to. *)
let slice ?lane ?(attrs = []) ~start_ns name =
  if !on then begin
    let pid, tid = match lane with Some l -> l | None -> current_lane () in
    Mutex.protect lock (fun () ->
        let sp =
          {
            sp_id = !next_id;
            sp_parent = -2;
            sp_depth = 0;
            sp_name = name;
            sp_attrs = attrs;
            sp_start_ns = start_ns;
            sp_dur_ns = Int64.max 1L (Int64.sub (now_ns ()) start_ns);
            sp_pid = pid;
            sp_tid = tid;
          }
        in
        incr next_id;
        closed := sp :: !closed)
  end

let record_event ?lane ?(attrs = []) ?flow ?(flow_id = -1) name =
  if !on then begin
    let pid, tid = match lane with Some l -> l | None -> current_lane () in
    Mutex.protect lock (fun () ->
        let parent = match !open_stack with [] -> -1 | p :: _ -> p.sp_id in
        events :=
          { ev_name = name; ev_attrs = attrs; ev_ts_ns = now_ns ();
            ev_parent = parent; ev_pid = pid; ev_tid = tid;
            ev_flow = flow; ev_flow_id = flow_id }
          :: !events)
  end

(** Record a point-in-time event under the current open span. Callers
    on hot paths should guard with [enabled ()] so attribute lists are
    not built when tracing is off. *)
let instant ?lane ?attrs name = record_event ?lane ?attrs name

(** One step of a Chrome flow (an arrow across lanes): [Flow_start]
    opens flow [id], [Flow_step] continues it on another lane,
    [Flow_end] terminates it. Perfetto draws the arrows between the
    slices enclosing each step. *)
let flow ?lane ~id phase name = record_event ?lane ~flow:phase ~flow_id:id name

let span_count () = Mutex.protect lock (fun () -> List.length !closed)
let event_count () = Mutex.protect lock (fun () -> List.length !events)

(** Closed spans in start order (open spans are not included). *)
let spans () =
  Mutex.protect lock (fun () ->
      List.sort (fun a b -> compare a.sp_start_ns b.sp_start_ns) !closed)

let find_span name = List.find_opt (fun s -> s.sp_name = name) (spans ())

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let us_of_ns ns = Int64.to_float (Int64.sub ns !epoch_ns) /. 1e3

let to_tree_string () =
  let all = spans () in
  let evs = Mutex.protect lock (fun () -> !events) in
  let event_counts = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace event_counts e.ev_parent
        (1 + Option.value ~default:0 (Hashtbl.find_opt event_counts e.ev_parent)))
    evs;
  let buf = Buffer.create 1024 in
  let rec emit parent =
    List.iter
      (fun s ->
        if s.sp_parent = parent then begin
          let attrs =
            match s.sp_attrs with
            | [] -> ""
            | l ->
                " ("
                ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) l)
                ^ ")"
          in
          let ev_note =
            match Hashtbl.find_opt event_counts s.sp_id with
            | Some k -> Printf.sprintf "  [%d events]" k
            | None -> ""
          in
          Buffer.add_string buf
            (Printf.sprintf "%s%-*s %10.3f ms%s\n"
               (String.make (2 * s.sp_depth) ' ')
               (max 1 (48 - (2 * s.sp_depth)))
               (s.sp_name ^ attrs)
               (Int64.to_float s.sp_dur_ns /. 1e6)
               ev_note);
          emit s.sp_id
        end)
      all
  in
  emit (-1);
  Buffer.contents buf

let args_json attrs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs)

(** Chrome trace-event JSON (the [{"traceEvents": [...]}] envelope).
    Emits [process_name]/[thread_name] metadata for every lane that
    carries at least one span or event, then complete spans, then
    instant and flow events. *)
let to_chrome_json () =
  let all_spans = spans () in
  let all_events = Mutex.protect lock (fun () -> List.rev !events) in
  let used_lanes =
    let tbl = Hashtbl.create 8 in
    List.iter (fun s -> Hashtbl.replace tbl (s.sp_pid, s.sp_tid) ()) all_spans;
    List.iter (fun e -> Hashtbl.replace tbl (e.ev_pid, e.ev_tid) ()) all_events;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare
  in
  let meta_events =
    let lane_name (pid, tid) =
      match Hashtbl.find_opt thread_names (pid, tid) with
      | Some n -> n
      | None -> Printf.sprintf "tid %d" tid
    in
    let pids = List.sort_uniq compare (List.map fst used_lanes) in
    List.map
      (fun pid ->
        let pname =
          match Hashtbl.find_opt process_names pid with
          | Some n -> n
          | None -> Printf.sprintf "pid %d" pid
        in
        Json.Obj
          [
            ("name", Json.Str "process_name");
            ("ph", Json.Str "M");
            ("pid", Json.num (Float.of_int pid));
            ("tid", Json.num 0.);
            ("args", Json.Obj [ ("name", Json.Str pname) ]);
          ])
      pids
    @ List.map
        (fun (pid, tid) ->
          Json.Obj
            [
              ("name", Json.Str "thread_name");
              ("ph", Json.Str "M");
              ("pid", Json.num (Float.of_int pid));
              ("tid", Json.num (Float.of_int tid));
              ("args", Json.Obj [ ("name", Json.Str (lane_name (pid, tid))) ]);
            ])
        used_lanes
  in
  let span_events =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.Str s.sp_name);
            ("cat", Json.Str "tvm");
            ("ph", Json.Str "X");
            ("ts", Json.num (us_of_ns s.sp_start_ns));
            ("dur", Json.num (Int64.to_float s.sp_dur_ns /. 1e3));
            ("pid", Json.num (Float.of_int s.sp_pid));
            ("tid", Json.num (Float.of_int s.sp_tid));
            ("args", args_json s.sp_attrs);
          ])
      all_spans
  in
  let instant_events =
    List.map
      (fun e ->
        let common =
          [
            ("name", Json.Str e.ev_name);
            ("cat", Json.Str "tvm");
            ("ts", Json.num (us_of_ns e.ev_ts_ns));
            ("pid", Json.num (Float.of_int e.ev_pid));
            ("tid", Json.num (Float.of_int e.ev_tid));
          ]
        in
        match e.ev_flow with
        | None ->
            Json.Obj
              (common
              @ [ ("ph", Json.Str "i"); ("s", Json.Str "t");
                  ("args", args_json e.ev_attrs) ])
        | Some phase ->
            let ph, extra =
              match phase with
              | Flow_start -> ("s", [])
              | Flow_step -> ("t", [])
              | Flow_end -> ("f", [ ("bp", Json.Str "e") ])
            in
            Json.Obj
              (common
              @ [ ("ph", Json.Str ph);
                  ("id", Json.num (Float.of_int e.ev_flow_id)) ]
              @ extra))
      all_events
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta_events @ span_events @ instant_events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write_chrome_trace path = Json.write_file path (to_chrome_json ())
