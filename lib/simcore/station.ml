(* Unfinished jobs wait in a ring of parallel arrays (completion time,
   seq, continuation); station.mli says why only the head needs an
   entry in the engine's queue. *)

type t = {
  engine : Engine.t;
  mutable free_at : float;
  mutable busy_total : float;
  mutable jobs : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable ks : (unit -> unit) array;
  mutable head : int;
  mutable len : int;
  fire : unit -> unit;  (* the heap entry of whichever job is head *)
}

let noop () = ()

(* The ring starts empty, so a station that never queues costs nothing
   at [create], and then doubles from 8: its capacity is a power of
   two and indices wrap by masking. *)
let grow t =
  let n = Array.length t.ks in
  let cap = if n = 0 then 8 else 2 * n in
  let times = Array.make cap 0. in
  let seqs = Array.make cap 0 in
  let ks = Array.make cap noop in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) land (n - 1) in
    times.(i) <- t.times.(j);
    seqs.(i) <- t.seqs.(j);
    ks.(i) <- t.ks.(j)
  done;
  t.times <- times;
  t.seqs <- seqs;
  t.ks <- ks;
  t.head <- 0

(* The head completes.  The next job's entry goes into the heap before
   the head's continuation runs, so a [submit] from inside it finds the
   invariant intact: the head has an entry whenever the ring is
   non-empty. *)
let fire t =
  let k = t.ks.(t.head) in
  t.ks.(t.head) <- noop;
  t.head <- (t.head + 1) land (Array.length t.ks - 1);
  t.len <- t.len - 1;
  if t.len > 0 then
    Engine.schedule_reserved t.engine ~time:t.times.(t.head) ~seq:t.seqs.(t.head)
      t.fire;
  k ()

let create engine =
  let rec t =
    {
      engine;
      free_at = 0.;
      busy_total = 0.;
      jobs = 0;
      times = [||];
      seqs = [||];
      ks = [||];
      head = 0;
      len = 0;
      fire = (fun () -> fire t);
    }
  in
  t

let submit t ~service k =
  if not (Float.is_finite service) || service < 0. then
    invalid_arg "Station.submit: negative service";
  let now = Engine.now t.engine in
  let start = Float.max now t.free_at in
  t.free_at <- start +. service;
  t.busy_total <- t.busy_total +. service;
  t.jobs <- t.jobs + 1;
  if t.len = Array.length t.ks then grow t;
  let i = (t.head + t.len) land (Array.length t.ks - 1) in
  let seq = Engine.reserve_seq t.engine in
  t.times.(i) <- t.free_at;
  t.seqs.(i) <- seq;
  t.ks.(i) <- k;
  t.len <- t.len + 1;
  (* an idle station's job is its head; [free_at] is passed as is
     because a read from the float ring would box the time again *)
  if t.len = 1 then Engine.schedule_reserved t.engine ~time:t.free_at ~seq t.fire

let busy_until t = Float.max t.free_at (Engine.now t.engine)

let busy_total t = t.busy_total

let jobs t = t.jobs
