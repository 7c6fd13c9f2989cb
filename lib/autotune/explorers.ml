(** Schedule explorers (§5.3).

    {!simulated_annealing} is TVM's explorer: parallel random-walk
    chains over the configuration space, guided by the cost model's
    predictions; exploration state persists across model updates.
    {!random_batch} and {!Genetic} are the blackbox baselines of
    Fig 12. *)

type predictor = Cfg_space.config -> float
(** Higher predicted score = better (e.g. -log predicted time). *)

type sa_state = { mutable chains : Cfg_space.config list }

let sa_init space rng ~n_chains =
  { chains = List.init n_chains (fun _ -> Cfg_space.random_config space) |> List.map (fun f -> f rng) }

(** One batch of parallel simulated annealing: walk each chain
    [n_steps] proposals; accept improving moves, accept worsening moves
    with Metropolis probability under [temp]. Returns the top [batch]
    distinct configs seen (excluding [visited]) with their provenance:
    [(config, chain index, predicted score)] — the flight recorder
    journals both so per-chain yield is visible after the fact.

    Chains genuinely run in parallel on [pool] (§5.3's "parallel
    simulated annealing"), and the result is bit-identical for any
    domain count: each chain walks with its own [Random.State] split
    from [rng] up front, [predict_for_chain i] gives chain [i] its own
    predictor (so per-chain state stays chain-local — the tuner folds
    it back afterwards), candidates merge in chain-index order with
    first-wins dedup, and the final ranking is a stable sort on the
    predicted score. [visited] is only read during the walk; callers must not
    mutate it concurrently. *)
let simulated_annealing ?(pool = Tvm_par.Pool.sequential) space rng
    (state : sa_state) ~(predict_for_chain : int -> predictor)
    ~(visited : (Cfg_space.config, unit) Hashtbl.t) ~n_steps ~temp ~batch =
  let chains = Array.of_list state.chains in
  (* Split per-chain streams from the caller's rng before fanning out,
     so the caller's stream advances the same way at every -j. *)
  let seeds = Array.map (fun _ -> Random.State.bits rng) chains in
  let walk ci =
    let crng = Random.State.make [| seeds.(ci); ci |] in
    let predict = predict_for_chain ci in
    let seen_scores : (Cfg_space.config * Cfg_space.config * float) list ref =
      ref []
    in
    (* A walk re-proposes configs constantly (a rejected move leaves
       [cur] in place, so [mutate] keeps drawing from the same
       neighbourhood), and canonicalization + prediction dominate the
       propose phase. Memo both per chain, keyed by the canonical
       config: the predictor is pure within a batch, so a cache hit
       returns the identical score, and only the *first* sighting per
       chain is recorded — exactly the entry the first-wins dedup at
       the merge would have kept anyway. Chain-local tables keep the
       fan-out race-free. *)
    let score_memo : (Cfg_space.config, float) Hashtbl.t =
      Hashtbl.create 256
    in
    let eval cfg =
      let k = Cfg_space.canonical cfg in
      match Hashtbl.find_opt score_memo k with
      | Some s -> s
      | None ->
          let s = predict cfg in
          Hashtbl.replace score_memo k s;
          (* Non-finite predictions (NaN from an untrained model, -inf
             for rejected configs) must not enter the candidate pool:
             NaN breaks the final sort and either would surface junk
             configs. Keys are the canonical configuration (structural,
             collision-free) — an int-hash key here once let distinct
             configs shadow each other. *)
          if Float.is_finite s && not (Hashtbl.mem visited k) then
            seen_scores := (k, cfg, s) :: !seen_scores;
          s
    in
    let cur = ref chains.(ci) in
    let cur_score = ref (eval !cur) in
    let stuck = ref 0 in
    for step = 1 to n_steps do
      let t = temp *. (1. -. (float_of_int step /. float_of_int (n_steps + 1))) in
      let cand =
        (* teleport a chain that keeps proposing invalid neighbours
           (sparse-validity spaces strand single-knob walks) *)
        if !stuck > 8 then begin
          stuck := 0;
          Cfg_space.random_config space crng
        end
        else Cfg_space.mutate space crng !cur
      in
      let score = eval cand in
      let accept =
        score > !cur_score
        || Random.State.float crng 1.
           < Float.exp ((score -. !cur_score) /. Float.max 1e-9 t)
      in
      if accept && Float.is_finite score then begin
        cur := cand;
        cur_score := score;
        stuck := 0
      end
      else incr stuck
    done;
    (!cur, List.rev !seen_scores)
  in
  let walked =
    Tvm_par.Pool.parallel_map pool walk (Array.init (Array.length chains) Fun.id)
  in
  state.chains <- Array.to_list (Array.map fst walked);
  (* Deterministic ordered merge: concatenate per-chain candidates in
     chain-index order, dedup first-wins, then a *stable* sort by score
     so ties keep that order. Top-[batch] distinct survive. *)
  let dedup : (Cfg_space.config, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.mapi
    (fun ci (_, seen) -> List.map (fun (k, cfg, s) -> (k, cfg, ci, s)) seen)
    walked
  |> Array.to_list |> List.concat
  |> List.filter (fun (k, _, _, _) ->
         if Hashtbl.mem dedup k then false
         else begin
           Hashtbl.replace dedup k ();
           true
         end)
  |> List.stable_sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)
  |> List.filteri (fun i _ -> i < batch)
  |> List.map (fun (_, cfg, ci, s) -> (cfg, ci, s))

(** Uniform random batch, deduplicated against [visited] (keyed by the
    canonical configuration). *)
let random_batch space rng ~(visited : (Cfg_space.config, unit) Hashtbl.t)
    ~batch =
  let out = ref [] in
  let attempts = ref 0 in
  while List.length !out < batch && !attempts < batch * 50 do
    incr attempts;
    let cfg = Cfg_space.random_config space rng in
    let k = Cfg_space.canonical cfg in
    if not (Hashtbl.mem visited k) then begin
      Hashtbl.replace visited k ();
      out := cfg :: !out
    end
  done;
  !out

module Genetic = struct
  (** Blackbox genetic algorithm: tournament selection over measured
      fitness, uniform crossover, one-knob mutation. No cost model —
      every candidate costs a real measurement, which is why it
      converges slowly in Fig 12. *)

  type individual = { cfg : Cfg_space.config; mutable fitness : float }

  type state = { mutable population : individual list }

  let init space rng ~pop_size =
    { population = List.init pop_size (fun _ -> { cfg = Cfg_space.random_config space rng; fitness = neg_infinity }) }

  let tournament rng pop =
    let pick () = List.nth pop (Random.State.int rng (List.length pop)) in
    let a = pick () and b = pick () in
    if a.fitness >= b.fitness then a else b

  (** Produce the next generation to measure. Parents without a single
      valid measurement between them contribute a fresh random
      individual instead (keeps the blackbox search alive when much of
      the space is invalid). *)
  let next_generation space rng state ~mutation_rate =
    let pop = state.population in
    let children =
      List.map
        (fun _ ->
          let pa = tournament rng pop and pb = tournament rng pop in
          let child =
            if pa.fitness <= -1e8 && pb.fitness <= -1e8 then
              Cfg_space.random_config space rng
            else Cfg_space.crossover rng pa.cfg pb.cfg
          in
          let child =
            if Random.State.float rng 1. < mutation_rate then
              Cfg_space.mutate space rng child
            else child
          in
          { cfg = child; fitness = neg_infinity })
        pop
    in
    state.population <- children;
    List.map (fun ind -> ind.cfg) children

  let record_fitness state fitnesses =
    List.iter2 (fun ind f -> ind.fitness <- f) state.population fitnesses
end
