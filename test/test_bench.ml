(* The bench command line: every experiment in the table parses, flags
   go anywhere among the names, and a bad name or count is a usage
   error rather than a silent no-op. *)

module E = Asvm_bench.Experiments
open Cmdliner

(* evaluate the command exactly as bench/main.exe does, recording the
   parse instead of running the experiments *)
let parse args =
  let got = ref None in
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let code =
    Cmd.eval ~help:quiet ~err:quiet
      ~argv:(Array.of_list ("bench" :: args))
      (E.command (fun o es ->
           got := Some (o, List.map (fun e -> e.E.name) es)))
  in
  (code, !got)

let names args =
  match parse args with
  | 0, Some (_, ns) -> ns
  | code, _ ->
    Alcotest.failf "%s: exit %d" (String.concat " " args) code

let rejected args =
  let code, got = parse args in
  Alcotest.(check int)
    (String.concat " " args ^ ": usage error")
    Cmd.Exit.cli_error code;
  Alcotest.(check bool) "nothing runs" true (got = None)

let test_every_name_parses () =
  List.iter
    (fun e ->
      Alcotest.(check (list string)) e.E.name [ e.E.name ] (names [ e.E.name ]))
    E.experiments

let test_default_set () =
  Alcotest.(check (list string))
    "paper experiments, in table order"
    [
      "table1"; "figure10"; "figure11"; "table2"; "table3";
      "ablation-forwarding"; "ablation-paging"; "ablation-readerlist";
      "ablation-striping"; "ablation-memory";
    ]
    (names []);
  Alcotest.(check (list string))
    "named: table order, once each" [ "table1"; "table3"; "chaos" ]
    (names [ "chaos"; "table3"; "table1"; "table3" ])

let test_unknown_name () =
  rejected [ "tabel1" ];
  rejected [ "--quick"; "nosuch"; "--jobs"; "2" ];
  rejected [ "table1"; "no-such-experiment" ]

let test_bad_counts () =
  rejected [ "--jobs"; "0"; "table1" ];
  rejected [ "table1"; "--jobs"; "-2" ];
  rejected [ "--jobs"; "two"; "table1" ];
  rejected [ "chaos"; "--seeds"; "0" ]

let test_flags_anywhere () =
  let check args ~quick ~metrics ~jobs ~seeds expected =
    match parse args with
    | 0, Some (o, ns) ->
      let label = String.concat " " args in
      Alcotest.(check (list string)) label expected ns;
      Alcotest.(check bool) (label ^ ": quick") quick o.E.quick;
      Alcotest.(check bool) (label ^ ": metrics") metrics o.E.metrics;
      Alcotest.(check (option int)) (label ^ ": jobs") jobs o.E.jobs;
      Alcotest.(check int) (label ^ ": seeds") seeds o.E.seeds
    | code, _ -> Alcotest.failf "%s: exit %d" (String.concat " " args) code
  in
  check [ "--quick"; "selfbench"; "--jobs"; "2" ] ~quick:true ~metrics:false
    ~jobs:(Some 2) ~seeds:10 [ "selfbench" ];
  check [ "--metrics"; "table1" ] ~quick:false ~metrics:true ~jobs:None
    ~seeds:10 [ "table1" ];
  check [ "table1"; "--metrics" ] ~quick:false ~metrics:true ~jobs:None
    ~seeds:10 [ "table1" ];
  check [ "--quick"; "chaos"; "--seeds"; "3" ] ~quick:true ~metrics:false
    ~jobs:None ~seeds:3 [ "chaos" ];
  check
    [ "--seeds"; "4"; "table3"; "--jobs"; "3"; "table1"; "--quick" ]
    ~quick:true ~metrics:false ~jobs:(Some 3) ~seeds:4 [ "table1"; "table3" ];
  check [ "--jobs=2"; "serve" ] ~quick:false ~metrics:false ~jobs:(Some 2)
    ~seeds:10 [ "serve" ]

let () =
  Alcotest.run "bench"
    [
      ( "command line",
        [
          Alcotest.test_case "every experiment name parses" `Quick
            test_every_name_parses;
          Alcotest.test_case "default set and table order" `Quick
            test_default_set;
          Alcotest.test_case "unknown name is a usage error" `Quick
            test_unknown_name;
          Alcotest.test_case "jobs and seeds below 1 rejected" `Quick
            test_bad_counts;
          Alcotest.test_case "flags in any position" `Quick
            test_flags_anywhere;
        ] );
    ]
