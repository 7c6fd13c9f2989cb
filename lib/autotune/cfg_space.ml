(** Schedule-space specification (§5.1).

    A template declares knobs; a configuration assigns each knob one of
    its choices. The generic master templates extract knobs (tile
    sizes, thread counts, unroll/vectorize toggles) automatically from
    the computation description, so spaces routinely contain 10³–10⁶
    points per operator (billions across a network, §5.1). *)

type knob = { k_name : string; k_choices : int array }

type t = { knobs : knob list }

type config = (string * int) list  (** knob name → chosen value *)

let knob name choices =
  if choices = [] then invalid_arg ("knob " ^ name ^ ": empty choices");
  { k_name = name; k_choices = Array.of_list choices }

(** All divisors of [n], ascending — the tiling-factor choice sets.
    Pairs (d, n/d) up to √n: [small] collects d descending, [large]
    collects n/d ascending. *)
let divisors n =
  let rec go d small large =
    if d > n / d then List.rev_append small large
    else if n mod d <> 0 then go (d + 1) small large
    else
      let q = n / d in
      go (d + 1) (d :: small) (if q = d then large else q :: large)
  in
  if n < 1 then [] else go 1 [] []

(** Divisors of [n] no larger than [cap]. *)
let divisors_upto n cap = List.filter (fun d -> d <= cap) (divisors n)

let space knobs = { knobs }

let size t =
  List.fold_left (fun acc k -> acc * Array.length k.k_choices) 1 t.knobs

let get (config : config) name =
  match List.assoc_opt name config with
  | Some v -> v
  | None -> invalid_arg ("config: missing knob " ^ name)

let get_opt (config : config) name = List.assoc_opt name config

(** Dense index <-> config bijection (mixed-radix). *)
let config_at t index =
  if index < 0 || index >= size t then invalid_arg "config_at: out of range";
  let rec go knobs index acc =
    match knobs with
    | [] -> List.rev acc
    | k :: rest ->
        let radix = Array.length k.k_choices in
        go rest (index / radix) ((k.k_name, k.k_choices.(index mod radix)) :: acc)
  in
  go t.knobs index []

let index_of t (config : config) =
  let rec go knobs mult acc =
    match knobs with
    | [] -> acc
    | k :: rest ->
        let v = get config k.k_name in
        let pos = ref (-1) in
        Array.iteri (fun i c -> if c = v then pos := i) k.k_choices;
        if !pos < 0 then invalid_arg ("index_of: bad value for " ^ k.k_name);
        go rest (mult * Array.length k.k_choices) (acc + (mult * !pos))
  in
  go t.knobs 1 0

let random_config t rng =
  List.map
    (fun k -> (k.k_name, k.k_choices.(Random.State.int rng (Array.length k.k_choices))))
    t.knobs

(** One-knob mutation: the random-walk step of the SA explorer. *)
let mutate t rng (config : config) =
  match t.knobs with
  | [] -> config
  | knobs ->
      let k = List.nth knobs (Random.State.int rng (List.length knobs)) in
      let v = k.k_choices.(Random.State.int rng (Array.length k.k_choices)) in
      List.map (fun (name, old) -> if name = k.k_name then (name, v) else (name, old)) config

(** Uniform crossover, for the genetic-algorithm baseline. *)
let crossover rng (a : config) (b : config) =
  List.map2
    (fun (n1, v1) (_n2, v2) -> if Random.State.bool rng then (n1, v1) else (n1, v2))
    a b

let to_string (config : config) =
  String.concat ","
    (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) config)

(** Inverse of {!to_string} — the persistent store's wire format for
    configurations. Raises [Invalid_argument] on malformed input. *)
let of_string (s : string) : config =
  if s = "" then []
  else
    List.map
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i -> (
            let name = String.sub kv 0 i in
            let v = String.sub kv (i + 1) (String.length kv - i - 1) in
            match int_of_string_opt v with
            | Some n when name <> "" -> (name, n)
            | _ -> invalid_arg ("Cfg_space.of_string: bad binding " ^ kv))
        | None -> invalid_arg ("Cfg_space.of_string: bad binding " ^ kv))
      (String.split_on_char ',' s)

(** Canonical representative of a configuration: knobs sorted by name.
    Configs are assoc lists whose order is arbitrary; canonicalizing
    gives one structural value per configuration, so tables keyed by it
    ([Compile_cache], the tuner's visited set, the explorers' dedup)
    get exact equality — two distinct configurations can never share an
    entry the way int-hash keys could collide. *)
let canonical (config : config) : config = List.sort compare config

(** Stable order-insensitive hash of the canonical key. An int hash
    always has collisions, so this must never be used as an identity:
    lookups key on {!canonical} itself (equality-checked). The one
    sanctioned hash-only use is seeding [Device_pool]'s deterministic
    measurement noise, where a collision merely replays a noise draw. *)
let hash (config : config) = Hashtbl.hash (canonical config)
