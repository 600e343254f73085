type entry = { time : float; seq : int; run : unit -> unit }

type t = { mutable heap : entry array; mutable len : int }

let dummy = { time = 0.; seq = 0; run = ignore }

let create () = { heap = Array.make 64 dummy; len = 0 }

let is_empty t = t.len = 0

let size t = t.len

let[@inline] precedes a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let heap = Array.make (2 * Array.length t.heap) dummy in
  Array.blit t.heap 0 heap 0 t.len;
  t.heap <- heap

(* Both sifts move a hole rather than swapping: each level costs one
   array write instead of two. *)
let rec sift_up heap i e =
  if i = 0 then heap.(0) <- e
  else begin
    let parent = (i - 1) / 2 in
    let p = heap.(parent) in
    if precedes e p then begin
      heap.(i) <- p;
      sift_up heap parent e
    end
    else heap.(i) <- e
  end

let rec sift_down heap len i e =
  let l = (2 * i) + 1 in
  if l >= len then heap.(i) <- e
  else begin
    let r = l + 1 in
    let c = if r < len && precedes heap.(r) heap.(l) then r else l in
    let ce = heap.(c) in
    if precedes ce e then begin
      heap.(i) <- ce;
      sift_down heap len c e
    end
    else heap.(i) <- e
  end

let add t ~time ~seq run =
  if t.len = Array.length t.heap then grow t;
  t.len <- t.len + 1;
  sift_up t.heap (t.len - 1) { time; seq; run }

let min_time t = if t.len = 0 then None else Some t.heap.(0).time

(* Remove the root of a non-empty heap and return it. *)
let take t =
  let heap = t.heap in
  let e = heap.(0) in
  t.len <- t.len - 1;
  let last = heap.(t.len) in
  heap.(t.len) <- dummy;
  if t.len > 0 then sift_down heap t.len 0 last;
  e

type slot = { mutable s_time : float; mutable s_seq : int; mutable s_run : unit -> unit }

let slot () = { s_time = 0.; s_seq = 0; s_run = ignore }

(* The event hot path: [pop] allocates an option + tuple per event, so
   the engine's step loop drains through a caller-owned slot instead. *)
let pop_into t s =
  t.len > 0
  && begin
       let e = take t in
       s.s_time <- e.time;
       s.s_seq <- e.seq;
       s.s_run <- e.run;
       true
     end

let pop t =
  if t.len = 0 then None
  else
    let e = take t in
    Some (e.time, e.seq, e.run)
