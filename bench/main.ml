(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (section 4) and the DESIGN.md ablations, printing
   simulated results next to the published numbers.  The experiments
   are the table in experiments.ml; --help lists them.

   Run every paper experiment:  dune exec bench/main.exe
   One experiment:              dune exec bench/main.exe -- table1
   Quick mode:                  dune exec bench/main.exe -- --quick table3
   Parallel cells:              dune exec bench/main.exe -- table3 --jobs 4
   Message counts:              dune exec bench/main.exe -- --metrics table1
   Harness speed:               dune exec bench/main.exe -- selfbench
   Page-store bench:            dune exec bench/main.exe -- pagestore
   Chaos soak:                  dune exec bench/main.exe -- chaos --seeds 10
   Serving SLO bench:           dune exec bench/main.exe -- serve *)

module Experiments = Asvm_bench.Experiments

let () =
  exit
    (Cmdliner.Cmd.eval ~catch:false
       (Experiments.command (fun o ->
            List.iter (fun e -> e.Experiments.run o))))
