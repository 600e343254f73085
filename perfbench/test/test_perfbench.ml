(* The benchmark's own computations: order statistics, the serving
   capacity rule, the error against the paper, the digest and the
   result line's JSON round trip. *)

module Calc = Perfbench_core.Calc
module Report = Perfbench_core.Report
module Json = Asvm_obs.Json

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3. (Calc.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Calc.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Calc.median: empty")
    (fun () -> ignore (Calc.median []))

(* reference values from Python's statistics.quantiles(values, n=4) *)
let test_quartiles () =
  let q1, q2, q3 = Calc.quartiles [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  let q1, q2, q3 = Calc.quartiles [ 7.; 1.; 3. ] in
  Alcotest.check close "q1 of 3" 1. q1;
  Alcotest.check close "q2 of 3" 3. q2;
  Alcotest.check close "q3 of 3" 7. q3;
  let q1, _, q3 = Calc.quartiles [ 1.; 2. ] in
  Alcotest.check close "q1 of 2" 0.75 q1;
  Alcotest.check close "q3 of 2" 2.25 q3

let test_percentile () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.check close "p0" 1. (Calc.percentile a 0.);
  Alcotest.check close "p50" 3. (Calc.percentile a 50.);
  Alcotest.check close "p100" 5. (Calc.percentile a 100.);
  Alcotest.check close "p99 interpolates" 4.96 (Calc.percentile a 99.)

let rung ?(p99 = 10.) ?(completions = 100) ?(depths = [ 1; 2; 1; 2; 1; 2 ]) rate =
  { Calc.rate; p99_ms = p99; requests = 100; completions; depths }

let test_backlog () =
  Alcotest.(check bool) "flat" false (Calc.backlog_grows [ 3; 4; 3; 5; 3; 4 ]);
  Alcotest.(check bool) "linear growth" true
    (Calc.backlog_grows (List.init 30 (fun i -> i * 5)));
  (* one burst in the last third is not growth *)
  Alcotest.(check bool) "burst" false
    (Calc.backlog_grows [ 2; 3; 2; 3; 2; 3; 2; 200; 3 ]);
  Alcotest.(check bool) "slack" false (Calc.backlog_grows [ 0; 0; 0; 0; 0; 4 ]);
  Alcotest.(check bool) "too short" false (Calc.backlog_grows [ 0; 100 ])

let test_capacity () =
  let slo_ms = 50. in
  Alcotest.check close "highest passing rung" 200.
    (Calc.capacity ~slo_ms
       [ rung 100.; rung 200.; rung ~p99:60. 400.; rung ~p99:90. 800. ]);
  Alcotest.check close "p99 exactly at the limit passes" 400.
    (Calc.capacity ~slo_ms [ rung 100.; rung ~p99:50. 400. ]);
  Alcotest.check close "lost requests fail the rung" 100.
    (Calc.capacity ~slo_ms [ rung 100.; rung ~completions:99 200. ]);
  Alcotest.check close "growing backlog fails the rung" 100.
    (Calc.capacity ~slo_ms
       [ rung 100.; rung ~depths:(List.init 30 (fun i -> 3 * i)) 200. ]);
  Alcotest.check close "no rung passes" 0.
    (Calc.capacity ~slo_ms [ rung ~p99:51. 100. ])

let test_paper_err () =
  Alcotest.check close "exact" 0. (Calc.paper_err [ (2., 2.); (5., 5.) ]);
  Alcotest.check close "symmetric in ratio" (log 2.)
    (Calc.paper_err [ (2., 1.); (1., 2.) ]);
  Alcotest.check close "mean" (log 4. /. 2.)
    (Calc.paper_err [ (4., 1.); (3., 3.) ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Calc.paper_err: non-positive value") (fun () ->
      ignore (Calc.paper_err [ (0., 1.) ]))

let digest_of feed =
  let d = Calc.Digest_acc.create () in
  feed d;
  Calc.Digest_acc.hex d

let test_digest () =
  let feed x d =
    Calc.Digest_acc.add_string d "em3d/asvm";
    Calc.Digest_acc.add_float d x;
    Calc.Digest_acc.add_int d 26902
  in
  Alcotest.(check string) "stable" (digest_of (feed 23.609)) (digest_of (feed 23.609));
  Alcotest.(check bool) "one ulp shows" false
    (digest_of (feed 23.609) = digest_of (feed (Float.succ 23.609)));
  (* length-prefixed: field boundaries cannot be shifted *)
  Alcotest.(check bool) "framing" false
    (digest_of (fun d -> Calc.Digest_acc.add_string d "ab"; Calc.Digest_acc.add_string d "c")
    = digest_of (fun d -> Calc.Digest_acc.add_string d "a"; Calc.Digest_acc.add_string d "bc"))

let test_report_round_trip () =
  let r =
    {
      Report.correct = true;
      attempted = 1000;
      failed = 0;
      metrics =
        [
          { Report.name = "asvm_host_s"; value = 0.123456789012; unit_ = "s" };
          { Report.name = "ok_frac"; value = 1.; unit_ = "ratio" };
          { Report.name = "xmm_rps_at_slo"; value = 141.421356237; unit_ = "1/sim_s" };
        ];
    }
  in
  let line = Report.to_string r in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  match Json.of_string line with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    Alcotest.(check (list string)) "top-level keys"
      [ "correct"; "attempted"; "failed"; "metrics" ]
      (match j with Json.Obj fs -> List.map fst fs | _ -> []);
    match Report.of_json j with
    | Error e -> Alcotest.fail e
    | Ok r' ->
      Alcotest.(check bool) "correct" r.correct r'.correct;
      Alcotest.(check int) "attempted" r.attempted r'.attempted;
      Alcotest.(check int) "failed" r.failed r'.failed;
      List.iter2
        (fun (m : Report.metric) (m' : Report.metric) ->
          Alcotest.(check string) "name" m.name m'.name;
          Alcotest.(check string) "unit" m.unit_ m'.unit_;
          Alcotest.check (Alcotest.float 1e-11) m.name m.value m'.value)
        r.metrics r'.metrics)

let () =
  Alcotest.run "perfbench"
    [
      ( "order statistics",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "serving capacity",
        [
          Alcotest.test_case "backlog rule" `Quick test_backlog;
          Alcotest.test_case "highest rung meeting the slo" `Quick test_capacity;
        ] );
      ("paper", [ Alcotest.test_case "paper_err" `Quick test_paper_err ]);
      ("digest", [ Alcotest.test_case "stable and sensitive" `Quick test_digest ]);
      ("report", [ Alcotest.test_case "json round trip" `Quick test_report_round_trip ]);
    ]
