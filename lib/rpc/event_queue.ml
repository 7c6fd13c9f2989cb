(* See event_queue.mli. *)

type 'a entry = { at : float; seq : int; v : 'a }
type 'a t = { mutable a : 'a entry array; mutable n : int; mutable pushes : int }

let create () = { a = [||]; n = 0; pushes = 0 }
let length q = q.n
let is_empty q = q.n = 0
let top_time q = if q.n = 0 then infinity else q.a.(0).at
let top q = if q.n = 0 then None else Some q.a.(0).v
let lt x y = x.at < y.at || (x.at = y.at && x.seq < y.seq)

let push q ?seq ~at v =
  let e = { at; seq = Option.value seq ~default:q.pushes; v } in
  q.pushes <- q.pushes + 1;
  if q.n = Array.length q.a then begin
    let a = Array.make (max 16 (2 * q.n)) e in
    Array.blit q.a 0 a 0 q.n;
    q.a <- a
  end;
  (* Sift the hole at the end up past every parent sorting after [e]. *)
  let i = ref q.n in
  q.n <- q.n + 1;
  while !i > 0 && lt e q.a.((!i - 1) / 2) do
    q.a.(!i) <- q.a.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  q.a.(!i) <- e

let pop q =
  if q.n = 0 then None
  else begin
    let first = q.a.(0).v and n = q.n - 1 in
    q.n <- n;
    (* Sift the last entry down from the root's hole. *)
    let e = q.a.(n) and i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && lt q.a.(l + 1) q.a.(l) then l + 1 else l in
      if l < n && lt q.a.(c) e then begin
        q.a.(!i) <- q.a.(c);
        i := c
      end
      else sifting := false
    done;
    q.a.(!i) <- e;
    Some first
  end
