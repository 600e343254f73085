(* Observability layer: metric registry and structured traces.

   Unit tests cover the registry semantics (label normalization,
   percentiles, counter diffs, JSON round-trips); the integration tests
   assert the paper's central message-economy claim from the registry
   counters: a remote write-ownership transfer costs 3 messages (1
   carrying page contents) under ASVM and 5 (2 with contents) under
   the XMM baseline (paper section 3.3 / Table 1). *)

module Json = Asvm_obs.Json
module Metrics = Asvm_obs.Metrics
module Trace = Asvm_obs.Trace
module Cluster = Asvm_cluster.Cluster
module Config = Asvm_cluster.Config
module Prot = Asvm_machvm.Prot
module Address_map = Asvm_machvm.Address_map

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 1.5;
      Json.String "with \"quotes\" and \n newline";
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> Alcotest.(check string) "roundtrip" (Json.to_string j) (Json.to_string j')
      | Error e -> Alcotest.failf "parse error: %s" e)
    samples;
  (match Json.of_string "{\"a\": 1} trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ());
  match Json.of_string "{\"u\": \"\\u0041\"}" with
  | Ok j -> (
    match Json.member "u" j with
    | Some (Json.String s) -> Alcotest.(check string) "unicode escape" "A" s
    | _ -> Alcotest.fail "missing member")
  | Error e -> Alcotest.failf "parse error: %s" e

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let test_label_merging () =
  let r = Metrics.Registry.create () in
  let c1 =
    Metrics.Registry.counter r "m" ~labels:[ ("a", "1"); ("b", "2") ]
  in
  let c2 =
    Metrics.Registry.counter r "m" ~labels:[ ("b", "2"); ("a", "1") ]
  in
  Metrics.Counter.incr c1;
  Metrics.Counter.incr c2;
  (* label order is irrelevant: both handles hit the same series *)
  Alcotest.(check int) "same series" 2 (Metrics.Counter.value c1);
  (* duplicate keys: the last binding wins *)
  let c3 =
    Metrics.Registry.counter r "m" ~labels:[ ("a", "0"); ("a", "1"); ("b", "2") ]
  in
  Metrics.Counter.incr c3;
  Alcotest.(check int) "dup key last wins" 3 (Metrics.Counter.value c1);
  let snap = Metrics.Registry.snapshot r in
  Alcotest.(check int) "one series" 1 (List.length snap);
  (* a name reused with a different metric type is an error *)
  match Metrics.Registry.gauge r "m" ~labels:[ ("a", "1"); ("b", "2") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type clash accepted"

let test_percentiles () =
  let r = Metrics.Registry.create () in
  let h = Metrics.Registry.histogram r "h_ms" in
  (* 1..100 shuffled: exact order statistics are known *)
  List.iter
    (fun i -> Metrics.Histogram.observe h (float_of_int (((i * 37) mod 100) + 1)))
    (List.init 100 Fun.id);
  let close = Alcotest.(check (float 1e-9)) in
  close "p0" 1. (Metrics.Histogram.percentile h 0.);
  close "p100" 100. (Metrics.Histogram.percentile h 100.);
  close "p50" 50.5 (Metrics.Histogram.percentile h 50.);
  (* rank 0.9 * 99 = 89.1 -> between the 90th and 91st order stats *)
  close "p90" 90.1 (Metrics.Histogram.percentile h 90.);
  close "mean" 50.5 (Metrics.Histogram.mean h);
  Alcotest.(check int) "count" 100 (Metrics.Histogram.count h)

(* Percentiles as the histogram computed them with the polymorphic
   heap sort it used before: the float merge sort must not move any. *)
let old_sorted samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a

let old_metrics_percentile a p =
  let rank = p /. 100. *. float_of_int (Array.length a - 1) in
  let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
  if lo = hi then a.(lo)
  else
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)

let test_sort_matches_old =
  let sample =
    QCheck.Gen.(
      frequency
        [ (3, float_range (-100.) 100.); (2, oneofl [ 0.; -0.; 1.; 1.; 2.5 ]) ])
  in
  QCheck.Test.make ~name:"histogram percentiles match the old sort" ~count:500
    QCheck.(
      make ~print:Print.(list float) Gen.(list_size (int_range 1 200) sample))
    (fun samples ->
      let a = old_sorted samples in
      let r = Metrics.Registry.create () in
      let h = Metrics.Registry.histogram r "h" in
      List.iter (Metrics.Histogram.observe h) samples;
      let same = Float.equal in
      match Metrics.Registry.snapshot r with
      | [ { value = Metrics.Histogram_v v; _ } ] ->
        same v.min a.(0)
        && same v.max a.(Array.length a - 1)
        && same v.p50 (old_metrics_percentile a 50.)
        && same v.p90 (old_metrics_percentile a 90.)
        && same v.p99 (old_metrics_percentile a 99.)
      | _ -> false)

(* The histogram as it was when samples were a float list, newest
   first: the reference the flat buffer must match bit for bit. *)
module List_histogram = struct
  type t = {
    mutable samples : float list;
    mutable n : int;
    mutable sum : float;
    mutable sorted : float array option;
  }

  let create () = { samples = []; n = 0; sum = 0.; sorted = None }

  let observe t x =
    t.samples <- x :: t.samples;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    t.sorted <- None

  let merge a b =
    {
      samples = List.rev_append a.samples b.samples;
      n = a.n + b.n;
      sum = a.sum +. b.sum;
      sorted = None;
    }

  let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
      let a = Array.of_list t.samples in
      Array.stable_sort Float.compare a;
      t.sorted <- Some a;
      a

  let values t = Array.copy (sorted t)

  let percentile t p =
    if t.n = 0 then invalid_arg "Histogram.percentile: empty";
    old_metrics_percentile (sorted t) p
end

type hist_op =
  | Observe of int * float list  (* slot, samples in order *)
  | Merge of int * int * int  (* dst := merge a b *)
  | Fold of int * int list  (* dst := fold_left merge (create ()) srcs *)
  | Percentile of int * float
  | Values of int  (* then scribble over the returned copy *)
  | Snapshot  (* the registry's view of slot 0 *)

let pp_hist_op = function
  | Observe (s, xs) ->
    Printf.sprintf "Observe(%d,[%s])" s
      (String.concat ";" (List.map (Printf.sprintf "%h") xs))
  | Merge (d, a, b) -> Printf.sprintf "Merge(%d:=%d,%d)" d a b
  | Fold (d, srcs) ->
    Printf.sprintf "Fold(%d:=[%s])" d
      (String.concat ";" (List.map string_of_int srcs))
  | Percentile (s, p) -> Printf.sprintf "Percentile(%d,%g)" s p
  | Values s -> Printf.sprintf "Values(%d)" s
  | Snapshot -> "Snapshot"

let hist_slots = 4

(* Samples that compare equal under [Float.compare] but differ in bits
   (0./-0., NaNs with different payloads) make any reordering of ties
   visible. *)
let hist_sample =
  QCheck.Gen.(
    frequency
      [
        (4, float_range (-50.) 50.);
        ( 3,
          oneofl
            [ 0.; -0.; 1.; 1.; Float.nan; Int64.float_of_bits 0x7FF8000000000001L ]
        );
      ])

let hist_op =
  let slot = QCheck.Gen.int_bound (hist_slots - 1) in
  QCheck.Gen.(
    frequency
      [
        (* bursts long enough to cross the buffer's doubling points *)
        (5, map2 (fun s xs -> Observe (s, xs)) slot
              (list_size (oneof [ int_bound 5; int_range 10 300 ]) hist_sample));
        (2, map3 (fun d a b -> Merge (d, a, b)) slot slot slot);
        (1, map2 (fun d srcs -> Fold (d, srcs)) slot (list_size (int_bound 4) slot));
        (3, map2 (fun s p -> Percentile (s, p)) slot
              (oneof [ float_bound_inclusive 100.; oneofl [ 0.; 50.; 99.; 100. ] ]));
        (2, map (fun s -> Values s) slot);
        (1, return Snapshot);
      ])

let test_histogram_matches_list_model =
  QCheck.Test.make ~name:"histogram matches the list model" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat " " (List.map pp_hist_op ops))
        Gen.(list_size (int_range 1 40) hist_op))
    (fun ops ->
      let bits_eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      let arrays_eq a b =
        Array.length a = Array.length b && Array.for_all2 bits_eq a b
      in
      let r = Metrics.Registry.create () in
      (* slot 0 starts as a registry series, the others free-standing *)
      let real =
        Array.init hist_slots (fun i ->
            if i = 0 then Metrics.Registry.histogram r "h"
            else Metrics.Histogram.create ())
      in
      let model = Array.init hist_slots (fun _ -> List_histogram.create ()) in
      let registry_series = ref true in
      let agree i =
        let h = real.(i) and m = model.(i) in
        Metrics.Histogram.count h = m.List_histogram.n
        && bits_eq (Metrics.Histogram.mean h) (List_histogram.mean m)
      in
      (* keep repeated self-merges from doubling without bound *)
      let room n = n <= 20_000 in
      let step = function
        | Observe (s, xs) ->
          List.iter
            (fun x ->
              Metrics.Histogram.observe real.(s) x;
              List_histogram.observe model.(s) x)
            xs;
          agree s
        | Merge (d, a, b) ->
          if room (model.(a).n + model.(b).n) then begin
            real.(d) <- Metrics.Histogram.merge real.(a) real.(b);
            model.(d) <- List_histogram.merge model.(a) model.(b);
            if d = 0 then registry_series := false
          end;
          agree d && agree a && agree b
        | Fold (d, srcs) ->
          if room (List.fold_left (fun acc i -> acc + model.(i).n) 0 srcs)
          then begin
            real.(d) <-
              List.fold_left
                (fun acc i -> Metrics.Histogram.merge acc real.(i))
                (Metrics.Histogram.create ()) srcs;
            model.(d) <-
              List.fold_left
                (fun acc i -> List_histogram.merge acc model.(i))
                (List_histogram.create ()) srcs;
            if d = 0 then registry_series := false
          end;
          agree d
        | Percentile (s, p) -> (
          match List_histogram.percentile model.(s) p with
          | want -> bits_eq want (Metrics.Histogram.percentile real.(s) p)
          | exception Invalid_argument _ -> (
            match Metrics.Histogram.percentile real.(s) p with
            | _ -> false
            | exception Invalid_argument _ -> true))
        | Values s ->
          let got = Metrics.Histogram.values real.(s) in
          let ok = arrays_eq got (List_histogram.values model.(s)) in
          (* the copy is the caller's: writing to it must not show *)
          Array.fill got 0 (Array.length got) 1e300;
          ok
        | Snapshot -> (
          (not !registry_series)
          ||
          let m = model.(0) in
          match Metrics.Registry.snapshot r with
          | [ { value = Metrics.Histogram_v v; _ } ] when m.n = 0 -> v.count = 0
          | [ { value = Metrics.Histogram_v v; _ } ] ->
            let a = List_histogram.sorted m in
            v.count = m.n
            && bits_eq v.mean (List_histogram.mean m)
            && bits_eq v.min a.(0)
            && bits_eq v.max a.(m.n - 1)
            && bits_eq v.p50 (List_histogram.percentile m 50.)
            && bits_eq v.p90 (List_histogram.percentile m 90.)
            && bits_eq v.p99 (List_histogram.percentile m 99.)
          | _ -> false)
      in
      List.for_all step ops
      && List.for_all
           (fun i ->
             agree i
             && arrays_eq
                  (Metrics.Histogram.values real.(i))
                  (List_histogram.values model.(i)))
           (List.init hist_slots Fun.id))

(* Footprint gate: a sample is one unboxed float in a doubling buffer,
   about 2 major words each counting the copies left behind by growth.
   The boxed argument is the only per-sample minor allocation.  A list
   cell, a boxed sample and a boxed running sum cost 7 minor words,
   and the 5 words of cell and sample were promoted.  OCaml 5's [Gc.quick_stat] adds up minor words only at
   a minor collection, so one is forced before each reading. *)
let test_histogram_footprint () =
  let n = 1 lsl 17 in
  let h = Metrics.Histogram.create () in
  let stat () = Gc.minor (); Gc.quick_stat () in
  let before = stat () in
  for i = 1 to n do
    Metrics.Histogram.observe h (float_of_int i)
  done;
  let after = stat () in
  let per_sample w0 w1 = (w1 -. w0) /. float_of_int n in
  let minor = per_sample before.Gc.minor_words after.Gc.minor_words in
  let major = per_sample before.Gc.major_words after.Gc.major_words in
  Alcotest.(check int) "count" n (Metrics.Histogram.count h);
  if minor > 3. then Alcotest.failf "%.2f minor words per sample (> 3)" minor;
  if major > 2.5 then Alcotest.failf "%.2f major words per sample (> 2.5)" major

let test_diff () =
  let r = Metrics.Registry.create () in
  let c = Metrics.Registry.counter r "c" in
  let g = Metrics.Registry.gauge r "g" in
  Metrics.Counter.incr c ~by:5;
  Metrics.Gauge.set g 1.;
  let before = Metrics.Registry.snapshot r in
  Metrics.Counter.incr c ~by:3;
  Metrics.Gauge.set g 9.;
  let c2 = Metrics.Registry.counter r "c2" in
  Metrics.Counter.incr c2 ~by:7;
  let after = Metrics.Registry.snapshot r in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check int) "delta existing" 3 (Metrics.counter_total d "c");
  Alcotest.(check int) "delta new series" 7 (Metrics.counter_total d "c2");
  (* gauges are point-in-time: never in a diff *)
  Alcotest.(check bool) "no gauges" true
    (List.for_all
       (fun (s : Metrics.sample) -> s.Metrics.name <> "g")
       d)

let test_sample_json_roundtrip () =
  let r = Metrics.Registry.create () in
  Metrics.Counter.incr
    (Metrics.Registry.counter r "c" ~labels:[ ("k", "v") ])
    ~by:11;
  Metrics.Gauge.set (Metrics.Registry.gauge r "g") 2.25;
  let h = Metrics.Registry.histogram r "h_ms" in
  List.iter (fun i -> Metrics.Histogram.observe h (float_of_int i)) [ 1; 2; 3 ];
  let snap = Metrics.Registry.snapshot r in
  let lines =
    String.split_on_char '\n' (String.trim (Metrics.snapshot_to_jsonl snap))
  in
  Alcotest.(check int) "one line per series" (List.length snap)
    (List.length lines);
  List.iter2
    (fun line (s : Metrics.sample) ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "bad JSONL line: %s" e
      | Ok j -> (
        match Metrics.sample_of_json j with
        | Error e -> Alcotest.failf "sample_of_json: %s" e
        | Ok s' ->
          Alcotest.(check string) "name" s.Metrics.name s'.Metrics.name;
          (* floats go through %.12g text: compare with tolerance *)
          let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a) in
          let ok =
            match (s.Metrics.value, s'.Metrics.value) with
            | Metrics.Counter_v a, Metrics.Counter_v b -> a = b
            | Metrics.Gauge_v a, Metrics.Gauge_v b -> close a b
            | Metrics.Histogram_v a, Metrics.Histogram_v b ->
              a.count = b.count && close a.mean b.mean
              && close a.p50 b.p50 && close a.p90 b.p90
              && close a.p99 b.p99 && close a.min b.min
              && close a.max b.max
            | _ -> false
          in
          Alcotest.(check bool) "value" true ok))
    lines snap

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_ring_and_jsonl () =
  let path = Filename.temp_file "asvm_trace" ".jsonl" in
  let oc = open_out path in
  let tr = Trace.create ~capacity:4 () in
  Trace.set_jsonl tr (Some oc);
  for i = 0 to 9 do
    Trace.emit (Some tr) ~time:(float_of_int i) ~node:(i mod 3)
      (if i mod 2 = 0 then
         Trace.Msg
           {
             Trace.proto = "asvm";
             cls = "request";
             group = "transfer";
             src = i mod 3;
             dst = (i + 1) mod 3;
             carries_page = false;
             bytes = 32;
           }
       else Trace.Ownership { obj = 1; page = i; owner = i mod 3 })
  done;
  Trace.emit None ~time:0. ~node:0 (Trace.Note { category = "x"; detail = "noop" });
  close_out oc;
  (* the ring keeps only the last [capacity] events *)
  Alcotest.(check int) "emitted" 10 (Trace.emitted tr);
  let retained = Trace.events tr in
  Alcotest.(check int) "ring bounded" 4 (List.length retained);
  Alcotest.(check (float 0.) ) "oldest first" 6. (List.hd retained).Trace.time;
  (* the JSONL sink saw every event; each line round-trips *)
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "all events on disk" 10 (List.length lines);
  List.iteri
    (fun i line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "line %d: %s" i e
      | Ok j -> (
        match Trace.event_of_json j with
        | Error e -> Alcotest.failf "line %d: %s" i e
        | Ok e ->
          Alcotest.(check (float 0.)) "time" (float_of_int i) e.Trace.time))
    lines;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Integration: the paper's message-economy claim from the registry    *)
(* ------------------------------------------------------------------ *)

let transfer_msgs snapshot name =
  let total = Metrics.counter_total snapshot name in
  let wire =
    Metrics.counter_total
      ~where:(fun ls -> List.assoc_opt "contents" ls = Some "wire")
      snapshot name
  in
  (total, wire)

(* Steady-state ASVM ownership transfer: ping-pong writes leave the
   loser with a dynamic hint pointing straight at the owner, so the
   third write is the canonical 3-message transfer of section 3.3. *)
let test_asvm_three_messages () =
  let nodes = 6 in
  let cl = Cluster.create (Config.default ~nodes) in
  let obj =
    Cluster.create_shared_object cl ~size_pages:1
      ~sharers:(List.init nodes Fun.id) ()
  in
  let task node =
    let t = Cluster.create_task cl ~node in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:1
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t2 = task 2 and t3 = task 3 in
  let wr t v =
    let ok = ref false in
    Cluster.write_word cl ~task:t ~addr:0 ~value:v (fun () -> ok := true);
    Cluster.run cl;
    assert !ok
  in
  wr t2 1;
  wr t3 2;
  (* the measured transfer: node 2 takes ownership back from node 3 *)
  let before = Cluster.metrics_snapshot cl in
  wr t2 3;
  let d = Metrics.diff ~before ~after:(Cluster.metrics_snapshot cl) in
  let total, wire = transfer_msgs d "asvm.msgs.ownership_transfer" in
  Alcotest.(check int) "3 messages" 3 total;
  Alcotest.(check int) "1 with contents" 1 wire

(* The XMM dirty-page transfer: request, lock (clean), lock_done with
   the page, the memory_object_data_write to the pager, and the supply
   — 5 messages, 2 of them carrying the page across the wire. *)
let test_xmm_five_messages () =
  let nodes = 4 in
  let cl =
    Cluster.create (Config.with_mm (Config.default ~nodes) Config.Mm_xmm)
  in
  let obj =
    Cluster.create_shared_object cl ~size_pages:1
      ~sharers:(List.init nodes Fun.id) ()
  in
  let task node =
    let t = Cluster.create_task cl ~node in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:1
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t1 = task 1 and t3 = task 3 in
  let wr t v =
    let ok = ref false in
    Cluster.write_word cl ~task:t ~addr:0 ~value:v (fun () -> ok := true);
    Cluster.run cl;
    assert !ok
  in
  (* node 1 dirties the page; node 3's write is the measured transfer *)
  wr t1 1;
  let before = Cluster.metrics_snapshot cl in
  wr t3 2;
  let d = Metrics.diff ~before ~after:(Cluster.metrics_snapshot cl) in
  let total, wire = transfer_msgs d "xmm.msgs.ownership_transfer" in
  Alcotest.(check int) "5 messages" 5 total;
  Alcotest.(check int) "2 with contents" 2 wire

(* The --trace-out / --metrics path end to end: the JSONL file is valid
   and the fault-window counters carry the claim. *)
let test_fault_instrumented () =
  let module Fault_micro = Asvm_workloads.Fault_micro in
  let path = Filename.temp_file "asvm_fault" ".jsonl" in
  let r =
    Fault_micro.measure_instrumented ~nodes:8 ~trace_out:path
      ~mm:Config.Mm_asvm
      (Fault_micro.Write_upgrade { read_copies = 3 })
  in
  Alcotest.(check bool) "positive latency" true (r.Fault_micro.latency_ms > 0.);
  let total, _ =
    transfer_msgs r.Fault_micro.fault_metrics "asvm.msgs.ownership_transfer"
  in
  Alcotest.(check int) "upgrade is 3 messages" 3 total;
  (* engine profiling gauges ride along in the full snapshot *)
  (match Metrics.find r.Fault_micro.run_metrics "engine.events" [] with
  | Some (Metrics.Gauge_v v) ->
    Alcotest.(check bool) "events counted" true (v > 0.)
  | _ -> Alcotest.fail "engine.events gauge missing");
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr n;
       match Json.of_string line with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "invalid JSONL at line %d: %s" !n e
     done
   with End_of_file -> close_in ic);
  Alcotest.(check bool) "trace nonempty" true (!n > 0);
  Sys.remove path

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip ] );
      ( "registry",
        [
          Alcotest.test_case "label merging" `Quick test_label_merging;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          QCheck_alcotest.to_alcotest test_sort_matches_old;
          QCheck_alcotest.to_alcotest test_histogram_matches_list_model;
          Alcotest.test_case "histogram footprint" `Quick test_histogram_footprint;
          Alcotest.test_case "diff" `Quick test_diff;
          Alcotest.test_case "jsonl roundtrip" `Quick test_sample_json_roundtrip;
        ] );
      ( "trace",
        [ Alcotest.test_case "ring and jsonl" `Quick test_trace_ring_and_jsonl ] );
      ( "message economy",
        [
          Alcotest.test_case "asvm 3 messages" `Quick test_asvm_three_messages;
          Alcotest.test_case "xmm 5 messages" `Quick test_xmm_five_messages;
          Alcotest.test_case "instrumented fault" `Quick test_fault_instrumented;
        ] );
    ]
