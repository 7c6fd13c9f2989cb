(** Typed operator attributes (Fig 3's "example attributes": channels,
    kernel_size, padding, strides, ...). *)

type value =
  | Int of int
  | Float of float
  | Str of string
  | Ints of int list
  | Bool of bool

type t = (string * value) list

let empty : t = []

let get_int ?default t key =
  match (List.assoc_opt key t, default) with
  | Some (Int v), _ -> v
  | Some _, _ -> invalid_arg (Printf.sprintf "attr %s: not an int" key)
  | None, Some d -> d
  | None, None -> invalid_arg (Printf.sprintf "attr %s: missing" key)

let get_str ?default t key =
  match (List.assoc_opt key t, default) with
  | Some (Str v), _ -> v
  | Some _, _ -> invalid_arg (Printf.sprintf "attr %s: not a string" key)
  | None, Some d -> d
  | None, None -> invalid_arg (Printf.sprintf "attr %s: missing" key)

let get_ints ?default t key =
  match (List.assoc_opt key t, default) with
  | Some (Ints v), _ -> v
  | Some _, _ -> invalid_arg (Printf.sprintf "attr %s: not an int list" key)
  | None, Some d -> d
  | None, None -> invalid_arg (Printf.sprintf "attr %s: missing" key)

let to_string (t : t) =
  String.concat ","
    (List.map
       (fun (k, v) ->
         let vs =
           match v with
           | Int i -> string_of_int i
           | Float f -> string_of_float f
           | Str s -> s
           | Bool b -> string_of_bool b
           | Ints is -> "[" ^ String.concat ";" (List.map string_of_int is) ^ "]"
         in
         k ^ "=" ^ vs)
       t)
