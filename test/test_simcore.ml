(* Unit and property tests for the discrete-event core. *)

module Engine = Asvm_simcore.Engine
module Event_queue = Asvm_simcore.Event_queue
module Station = Asvm_simcore.Station
module Rng = Asvm_simcore.Rng
module Stats = Asvm_simcore.Stats
module Metrics = Asvm_obs.Metrics

let test_queue_order () =
  let q = Event_queue.create () in
  let order = ref [] in
  let ev tag () = order := tag :: !order in
  Event_queue.add q ~time:3.0 ~seq:0 (ev "c");
  Event_queue.add q ~time:1.0 ~seq:1 (ev "a");
  Event_queue.add q ~time:2.0 ~seq:2 (ev "b");
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, _, run) ->
      run ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  let order = ref [] in
  for i = 0 to 9 do
    Event_queue.add q ~time:1.0 ~seq:i (fun () -> order := i :: !order)
  done;
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, _, run) ->
      run ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int))
    "seq order on equal times"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !order)

let test_queue_heap_property =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i time -> Event_queue.add q ~time ~seq:i ignore) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (time, _, _) -> time >= last && drain time
      in
      drain neg_infinity)

let test_engine_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:5. (fun () -> log := ("b", Engine.now e) :: !log);
  Engine.schedule e ~delay:1. (fun () ->
      log := ("a", Engine.now e) :: !log;
      Engine.schedule e ~delay:1. (fun () -> log := ("a2", Engine.now e) :: !log));
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "nested scheduling"
    [ ("a", 1.); ("a2", 2.); ("b", 5.) ]
    (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired)
  done;
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "events before cutoff" 5 !fired;
  Alcotest.(check (float 1e-9)) "clock advanced to cutoff" 5.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest of events" 10 !fired

let test_engine_max_events_per_run () =
  (* regression: [max_events] used to compare against the engine's
     cumulative executed count, so a second bounded run did nothing *)
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired)
  done;
  Engine.run ~max_events:3 e;
  Alcotest.(check int) "first bounded run" 3 !fired;
  Engine.run ~max_events:3 e;
  Alcotest.(check int) "second bounded run executes too" 6 !fired;
  Engine.run e;
  Alcotest.(check int) "drain the rest" 10 !fired;
  Alcotest.(check int) "cumulative count intact" 10 (Engine.events_executed e)

let test_queue_pop_into () =
  let q = Event_queue.create () in
  let s = Event_queue.slot () in
  Alcotest.(check bool) "empty queue" false (Event_queue.pop_into q s);
  let order = ref [] in
  Event_queue.add q ~time:2.0 ~seq:0 (fun () -> order := "b" :: !order);
  Event_queue.add q ~time:1.0 ~seq:1 (fun () -> order := "a" :: !order);
  let times = ref [] in
  while Event_queue.pop_into q s do
    times := s.Event_queue.s_time :: !times;
    s.Event_queue.s_run ()
  done;
  Alcotest.(check (list string)) "runs in time order" [ "a"; "b" ]
    (List.rev !order);
  Alcotest.(check (list (float 1e-9))) "slot carries times" [ 1.0; 2.0 ]
    (List.rev !times);
  (* a failed pop leaves the slot untouched *)
  Alcotest.(check bool) "drained" false (Event_queue.pop_into q s);
  Alcotest.(check (float 1e-9)) "slot untouched on empty" 2.0
    s.Event_queue.s_time

let test_engine_rejects_past () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.) ignore)

let test_station_fifo () =
  let e = Engine.create () in
  let st = Station.create e in
  let completions = ref [] in
  Station.submit st ~service:2. (fun () ->
      completions := ("a", Engine.now e) :: !completions);
  Station.submit st ~service:3. (fun () ->
      completions := ("b", Engine.now e) :: !completions);
  (* submitted later while the server is busy: queues behind *)
  Engine.schedule e ~delay:1. (fun () ->
      Station.submit st ~service:1. (fun () ->
          completions := ("c", Engine.now e) :: !completions));
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "FIFO completion times"
    [ ("a", 2.); ("b", 5.); ("c", 6.) ]
    (List.rev !completions)

let test_station_idle_gap () =
  let e = Engine.create () in
  let st = Station.create e in
  let t = ref 0. in
  Station.submit st ~service:1. (fun () -> ());
  Engine.schedule e ~delay:10. (fun () ->
      Station.submit st ~service:1. (fun () -> t := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "idle server starts immediately" 11. !t

(* A station with no FIFO of its own: every completion goes straight
   into the engine's queue.  It is the reference the real station must
   match event for event. *)
module Reference_station = struct
  type t = { engine : Engine.t; mutable free_at : float }

  let create engine = { engine; free_at = 0. }

  let submit t ~service k =
    let start = Float.max (Engine.now t.engine) t.free_at in
    t.free_at <- start +. service;
    Engine.schedule_at t.engine ~time:t.free_at k
end

(* A random program: top-level operations run before the engine starts,
   and each event runs its children when it fires. *)
type op =
  | Submit of int * float * op list  (** station, service, children *)
  | Direct of float * op list  (** delay, children *)

let rec pp_op = function
  | Submit (st, service, ops) ->
    Printf.sprintf "Submit(%d,%g,[%s])" st service (pp_ops ops)
  | Direct (delay, ops) -> Printf.sprintf "Direct(%g,[%s])" delay (pp_ops ops)

and pp_ops ops = String.concat ";" (List.map pp_op ops)

let gen_program =
  let open QCheck.Gen in
  (* few distinct durations, zero included, so completions collide *)
  let duration = oneofl [ 0.; 0.; 0.5; 1.; 1.; 2. ] in
  let rec ops depth =
    list_size (int_range 0 (if depth = 0 then 6 else 3)) (op depth)
  and op depth =
    let children = if depth >= 3 then return [] else ops (depth + 1) in
    frequency
      [
        (3, map3 (fun st d c -> Submit (st, d, c)) (int_bound 2) duration children);
        (1, map2 (fun d c -> Direct (d, c)) duration children);
      ]
  in
  pair (int_range 1 3) (ops 0)

(* Run [program] with [submit] and return the executed (time, label)
   pairs; labels number the operations in the order they execute. *)
let trace_program ~create ~submit (stations, program) =
  let e = Engine.create () in
  let sts = Array.init stations (fun _ -> create e) in
  let log = ref [] and next = ref 0 in
  let rec exec op =
    let label = !next in
    incr next;
    let fire children () =
      log := (Engine.now e, label) :: !log;
      List.iter exec children
    in
    match op with
    | Submit (st, service, children) ->
      submit sts.(st mod stations) ~service (fire children)
    | Direct (delay, children) -> Engine.schedule e ~delay (fire children)
  in
  List.iter exec program;
  Engine.run e;
  (List.rev !log, Engine.events_executed e)

let test_station_matches_reference =
  QCheck.Test.make ~name:"station executes events in the reference order"
    ~count:500
    (QCheck.make
       ~print:(fun (n, ops) -> Printf.sprintf "%d stations: %s" n (pp_ops ops))
       gen_program)
    (fun program ->
      trace_program ~create:Station.create ~submit:Station.submit program
      = trace_program ~create:Reference_station.create
          ~submit:Reference_station.submit program)

(* Each job submits two more to the same station from its
   continuation, so the backlog grows while the head moves: the ring
   wraps, then grows with its head away from slot 0. *)
let test_station_ring_wraps () =
  let rec tree depth =
    if depth = 0 then []
    else
      let service = if depth mod 3 = 0 then 0. else 1. in
      [ Submit (0, service, tree (depth - 1)); Submit (0, service, tree (depth - 1)) ]
  in
  let program = (1, tree 9) in
  let run submit create = trace_program ~create ~submit program in
  let got, events = run Station.submit Station.create in
  Alcotest.(check int) "every job fires" 1022 events;
  Alcotest.(check bool) "same order as the reference" true
    ((got, events) = run Reference_station.submit Reference_station.create)

let test_station_one_heap_entry () =
  let e = Engine.create () in
  let busy = Station.create e and other = Station.create e in
  let stations = 2 and direct = 3 in
  let jobs = 10_000 in
  let fired = ref 0 and max_pending = ref 0 in
  let observe () = max_pending := max !max_pending (Engine.pending e) in
  for _ = 1 to jobs do
    Station.submit busy ~service:1. (fun () ->
        incr fired;
        observe ())
  done;
  Station.submit other ~service:2. observe;
  Station.submit other ~service:2. observe;
  for i = 1 to direct do
    Engine.schedule e ~delay:(float_of_int (i * 1000) +. 0.5) observe
  done;
  observe ();
  Alcotest.(check int) "one entry per busy station" (stations + direct)
    (Engine.pending e);
  Engine.run ~until:5000.5 e;
  Alcotest.(check int) "jobs done by the cutoff" 5000 !fired;
  Alcotest.(check (float 1e-9)) "clock at the cutoff" 5000.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "every job fires" jobs !fired;
  Alcotest.(check bool) "pending never exceeds stations + direct" true
    (!max_pending <= stations + direct);
  Alcotest.(check int) "queue drained" 0 (Engine.pending e);
  Alcotest.(check int) "one event per job" (jobs + 2 + direct)
    (Engine.events_executed e)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 100 (fun _ -> Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" xs ys

let test_rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let test_rng_split_independent () =
  let r = Rng.create 7 in
  let r' = Rng.split r in
  let xs = List.init 50 (fun _ -> Rng.int r 1000000) in
  let ys = List.init 50 (fun _ -> Rng.int r' 1000000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Rng.shuffle (Rng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_tally () =
  let t = Stats.Tally.create () in
  List.iter (Stats.Tally.add t) [ 1.; 2.; 3.; 4. ];
  let s = Stats.Tally.summary t in
  Alcotest.(check int) "n" 4 s.n;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1. s.min;
  Alcotest.(check (float 1e-9)) "max" 4. s.max;
  Alcotest.(check (float 1e-9)) "total" 10. s.total;
  Alcotest.(check (float 1e-6)) "stddev" 1.2909944487 s.stddev

let test_counters () =
  let c = Stats.Counters.create () in
  Stats.Counters.incr c "x";
  Stats.Counters.incr ~by:4 c "x";
  Stats.Counters.incr c "y";
  Alcotest.(check int) "x" 5 (Stats.Counters.get c "x");
  Alcotest.(check int) "y" 1 (Stats.Counters.get c "y");
  Alcotest.(check int) "absent" 0 (Stats.Counters.get c "z")

(* the simulator's one exact-percentile histogram *)
let test_histogram () =
  let h = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.observe h) [ 5.; 1.; 3.; 2.; 4. ];
  Alcotest.(check int) "count" 5 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "median" 3. (Metrics.Histogram.percentile h 50.);
  Alcotest.(check (float 1e-9)) "p0" 1. (Metrics.Histogram.percentile h 0.);
  Alcotest.(check (float 1e-9)) "p100" 5. (Metrics.Histogram.percentile h 100.);
  Alcotest.(check (float 1e-9)) "p25" 2. (Metrics.Histogram.percentile h 25.)

let histogram_bounds =
  QCheck.Test.make ~name:"percentiles stay within sample range" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_bound_inclusive 100.)) (float_bound_inclusive 100.))
    (fun (samples, p) ->
      let h = Metrics.Histogram.create () in
      List.iter (Metrics.Histogram.observe h) samples;
      let v = Metrics.Histogram.percentile h p in
      let lo = List.fold_left min infinity samples in
      let hi = List.fold_left max neg_infinity samples in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let test_linear_fit () =
  let s = Stats.Series.create "lat" in
  (* y = 2.7 + 0.48 x, the paper's ASVM Figure 11 model *)
  List.iter
    (fun x -> Stats.Series.add s ~x ~y:(2.7 +. (0.48 *. x)))
    [ 1.; 2.; 4.; 6.; 8. ];
  let intercept, slope = Stats.Series.linear_fit s in
  Alcotest.(check (float 1e-9)) "intercept" 2.7 intercept;
  Alcotest.(check (float 1e-9)) "slope" 0.48 slope

(* ----------------------- int table ----------------------- *)

module Int_table = Asvm_simcore.Int_table

type table_op = Replace of int * int | Remove of int | Probe of int

(* keys mix a dense small range (hits, shared buckets), negatives and
   the extremes, where an identity hash is most likely to go wrong *)
let gen_table_key =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-8) 40);
        (2, int);
        (1, oneofl [ max_int; min_int; max_int - 1; min_int + 1; 0; -1 ]);
        (1, map (fun k -> k lsl 31) (int_range 0 8));
      ])

let gen_table_op =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Replace (k, v)) gen_table_key small_int);
        (2, map (fun k -> Remove k) gen_table_key);
        (1, map (fun k -> Probe k) gen_table_key);
      ])

let show_table_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Probe k -> Printf.sprintf "probe %d" k

let test_int_table_matches_hashtbl =
  QCheck.Test.make ~name:"int table agrees with Stdlib.Hashtbl" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_table_op ops))
       QCheck.Gen.(list_size (int_range 0 200) gen_table_op))
    (fun ops ->
      let t = Int_table.create 4 and r = Hashtbl.create 4 in
      List.for_all
        (fun op ->
          let k =
            match op with
            | Replace (k, v) ->
              Int_table.replace t k v;
              Hashtbl.replace r k v;
              k
            | Remove k ->
              Int_table.remove t k;
              Hashtbl.remove r k;
              k
            | Probe k -> k
          in
          Int_table.find_opt t k = Hashtbl.find_opt r k
          && Int_table.mem t k = Hashtbl.mem r k
          && Int_table.length t = Hashtbl.length r)
        ops
      && Hashtbl.fold
           (fun k v ok -> ok && Int_table.find_opt t k = Some v)
           r true)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "simcore"
    [
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_order;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "pop_into" `Quick test_queue_pop_into;
          qtest test_queue_heap_property;
        ] );
      ( "engine",
        [
          Alcotest.test_case "schedule" `Quick test_engine_schedule;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "max_events per run" `Quick
            test_engine_max_events_per_run;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
        ] );
      ( "station",
        [
          Alcotest.test_case "fifo queueing" `Quick test_station_fifo;
          Alcotest.test_case "idle gap" `Quick test_station_idle_gap;
          qtest test_station_matches_reference;
          Alcotest.test_case "ring wraps and grows" `Quick test_station_ring_wraps;
          Alcotest.test_case "one heap entry" `Quick test_station_one_heap_entry;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          qtest test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          qtest test_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "tally" `Quick test_tally;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histogram" `Quick test_histogram;
          qtest histogram_bounds;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
        ] );
      ("int_table", [ qtest test_int_table_matches_hashtbl ]);
    ]
