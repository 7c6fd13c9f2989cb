(* See pool.mli. Fork-join with atomic index stealing: every fan-out
   spawns and joins fresh domains, which on a 2-core box took 117 to
   1,443 µs per sequential spawn and join (3 runs of 200; ROADMAP item
   11). Avoiding a resident worker/condvar loop keeps the pool
   impossible to deadlock. *)

exception Nested_parallelism

type t = { n_domains : int }

(* True while this domain is executing pool tasks; checked on entry so
   nested fan-out is rejected identically at every domain count. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* True while this domain is executing a lane task ([run_lanes]):
   sequential-pool [parallel_map] is permitted there, multi-domain
   pools and further lane nesting are not. *)
let in_lane : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let create ?domains () =
  let n =
    match domains with
    | Some d -> max 1 d
    | None -> Domain.recommended_domain_count ()
  in
  Tvm_obs.Metrics.set_gauge "par.domains" (float_of_int n);
  { n_domains = n }

let sequential = { n_domains = 1 }

let domains t = t.n_domains

let now_ns () = Tvm_obs.Trace.now_ns ()

(* The fork-join engine shared by [parallel_map] and [run_lanes]: fan
   [f] over [xs] on [width] domains with atomic index stealing,
   marking every participating domain with [flag] for the duration. *)
let fan_out ~flag ~lane_label ~width f (xs : 'a array) : 'b array =
  let n = Array.length xs in
  let results = Array.make n None in
  (* Lowest-index exception, so the raised failure is independent
     of scheduling. Every task still runs exactly once. *)
  let first_error : (int * exn) option Atomic.t = Atomic.make None in
  let next = Atomic.make 0 in
  let work () =
    Domain.DLS.set flag true;
    Tvm_obs.Metrics.with_local_counters @@ fun () ->
    let continue_ = ref true in
    while !continue_ do
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then continue_ := false
      else
        match f xs.(i) with
        | y -> results.(i) <- Some y
        | exception e ->
            let rec record () =
              match Atomic.get first_error with
              | Some (j, _) when j <= i -> ()
              | cur ->
                  if not (Atomic.compare_and_set first_error cur (Some (i, e)))
                  then record ()
            in
            record ()
    done;
    Domain.DLS.set flag false
  in
  let workers =
    Array.init (width - 1) (fun w ->
        (* Worker w+1 gets its own trace lane (the coordinator is
           the host lane), so spans/events it records show up as a
           separate named track in the Chrome export. *)
        let lane = Tvm_obs.Trace.domain_lane (w + 1) in
        Tvm_obs.Trace.name_thread ~lane
          (Printf.sprintf "%s %d" lane_label (w + 1));
        Domain.spawn (fun () ->
            Tvm_obs.Trace.set_lane lane;
            work ()))
  in
  work ();
  let local_done = now_ns () in
  Array.iter Domain.join workers;
  Tvm_obs.Metrics.observe "par.steal_idle_s"
    (Int64.to_float (Int64.sub (now_ns ()) local_done) /. 1e9);
  match Atomic.get first_error with
  | Some (_, e) -> raise e
  | None -> Array.map (function Some y -> y | None -> assert false) results

let parallel_map t f (xs : 'a array) : 'b array =
  if Domain.DLS.get in_task then raise Nested_parallelism;
  (* Inside a lane only the sequential shape is sanctioned. *)
  if Domain.DLS.get in_lane && t.n_domains > 1 then raise Nested_parallelism;
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    Tvm_obs.Metrics.incr ~by:(float_of_int n) "par.tasks";
    if t.n_domains <= 1 || n = 1 then begin
      Domain.DLS.set in_task true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set in_task false)
        (fun () -> Array.map f xs)
    end
    else
      fan_out ~flag:in_task ~lane_label:"worker" ~width:(min t.n_domains n) f
        xs
  end

let run_lanes t f (xs : 'a array) : 'b array =
  if Domain.DLS.get in_task || Domain.DLS.get in_lane then
    raise Nested_parallelism;
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    Tvm_obs.Metrics.incr ~by:(float_of_int n) "par.lane_tasks";
    let width = min t.n_domains n in
    if width <= 1 then begin
      Domain.DLS.set in_lane true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set in_lane false)
        (fun () -> Array.map f xs)
    end
    else fan_out ~flag:in_lane ~lane_label:"lane" ~width f xs
  end

let map_list t f xs = Array.to_list (parallel_map t f (Array.of_list xs))

let chunk = 64

let parallel_init_chunked t n (f : int -> 'b) : 'b array =
  if n < 0 then invalid_arg "Pool.parallel_init_chunked";
  if n = 0 then [||]
  else begin
    let n_chunks = (n + chunk - 1) / chunk in
    if n_chunks <= 1 || t.n_domains <= 1 then parallel_map t f (Array.init n Fun.id)
    else begin
      (* One steal per chunk, not per element: with fleet-sized inputs
         (thousands of sub-millisecond model evaluations) the atomic
         fetch-and-add and slot write per element would dominate. Each
         chunk task fills a contiguous slice of the one result array,
         so output order — and the lowest-index exception rule, because
         chunk index order is element index order — is unchanged. *)
      let results = Array.make n None in
      let fill c =
        let lo = c * chunk in
        let hi = min n (lo + chunk) in
        for i = lo to hi - 1 do
          results.(i) <- Some (f i)
        done
      in
      ignore (parallel_map t fill (Array.init n_chunks Fun.id));
      Array.map (function Some y -> y | None -> assert false) results
    end
  end

let parallel_reduce t ~map ~combine ~init xs =
  Array.fold_left combine init (parallel_map t map xs)
