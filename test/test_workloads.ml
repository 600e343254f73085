(* Tests for the experiment workloads: EM3D validation, copy-chain
   correctness, file I/O sanity and fault microbenchmark monotonicity. *)

module Config = Asvm_cluster.Config
module Em3d = Asvm_workloads.Em3d
module Copy_chain = Asvm_workloads.Copy_chain
module File_io = Asvm_workloads.File_io
module Fault_micro = Asvm_workloads.Fault_micro

let test_em3d_validate_asvm () =
  Alcotest.(check bool)
    "distributed EM3D equals sequential reference (ASVM)" true
    (Em3d.validate ~mm:Config.Mm_asvm ~cells:64 ~nodes:4 ~iterations:3 ~seed:11)

let test_em3d_leaves_invariants_intact () =
  (* after a full benchmark run, the distributed state must audit clean *)
  let r =
    Asvm_workloads.Em3d.run ~mm:Config.Mm_asvm
      ~audit:(fun a ->
        match Asvm_core.Asvm.check_invariants a with
        | [] -> ()
        | v -> Alcotest.fail (String.concat "\n" v))
      { cells = 16_000; nodes = 8; iterations = 3; seed = 5 }
  in
  Alcotest.(check bool) "ran" true (r.Em3d.seconds > 0.)

let test_em3d_validate_xmm () =
  Alcotest.(check bool)
    "distributed EM3D equals sequential reference (XMM)" true
    (Em3d.validate ~mm:Config.Mm_xmm ~cells:64 ~nodes:4 ~iterations:3 ~seed:11)

let test_em3d_validate_single_node () =
  Alcotest.(check bool)
    "single node EM3D" true
    (Em3d.validate ~mm:Config.Mm_asvm ~cells:32 ~nodes:1 ~iterations:2 ~seed:3)

let test_em3d_speedup_shape () =
  (* ASVM: more nodes must reduce the execution time of a fixed problem;
     XMM must be slower than ASVM in parallel runs. The sequential
     baseline runs on a large-memory node, as in the paper. *)
  let cells = 64_000 in
  let run ?memory_pages mm nodes =
    (Em3d.run ~mm ?memory_pages { cells; nodes; iterations = 4; seed = 5 })
      .seconds
  in
  let a1 =
    run ~memory_pages:(Em3d.data_pages ~cells + 64) Config.Mm_asvm 1
  in
  let a4 = run Config.Mm_asvm 4 in
  let a16 = run Config.Mm_asvm 16 in
  Alcotest.(check bool)
    (Printf.sprintf "ASVM speeds up (1:%.2f 4:%.2f 16:%.2f)" a1 a4 a16)
    true
    (a4 < a1 && a16 < a4);
  let x16 = run Config.Mm_xmm 16 in
  Alcotest.(check bool)
    (Printf.sprintf "XMM slower than ASVM at 16 nodes (%.2f vs %.2f)" x16 a16)
    true (x16 > 2. *. a16);
  let x4 = run Config.Mm_xmm 4 in
  Alcotest.(check bool)
    (Printf.sprintf "XMM slows down with nodes (4:%.2f 16:%.2f)" x4 x16)
    true (x16 > x4)

let test_em3d_fits () =
  (* the paper's own feasibility pattern *)
  let mem = Asvm_machvm.Vm_config.default.memory_pages in
  let fits cells nodes = Em3d.fits ~cells ~nodes ~memory_pages_per_node:mem in
  Alcotest.(check bool) "64k/2 fits" true (fits 64_000 2);
  Alcotest.(check bool) "256k/4 does not fit" false (fits 256_000 4);
  Alcotest.(check bool) "256k/8 fits" true (fits 256_000 8);
  Alcotest.(check bool) "1M/16 does not fit" false (fits 1_024_000 16);
  Alcotest.(check bool) "1M/32 fits" true (fits 1_024_000 32)

let test_copy_chain_values () =
  (* measure already asserts every faulted value matches the snapshot *)
  let r = Copy_chain.measure ~mm:Config.Mm_asvm ~chain:4 ~pages:8 () in
  Alcotest.(check int) "all pages faulted" 8 r.Copy_chain.faults;
  let r = Copy_chain.measure ~mm:Config.Mm_xmm ~chain:4 ~pages:8 () in
  Alcotest.(check int) "all pages faulted (xmm)" 8 r.Copy_chain.faults

let test_copy_chain_monotone () =
  let mean mm chain =
    (Copy_chain.measure ~mm ~chain ~pages:8 ()).Copy_chain.mean_fault_ms
  in
  let a2 = mean Config.Mm_asvm 2 and a6 = mean Config.Mm_asvm 6 in
  Alcotest.(check bool) "ASVM grows with chain" true (a6 > a2);
  let x2 = mean Config.Mm_xmm 2 and x6 = mean Config.Mm_xmm 6 in
  Alcotest.(check bool) "XMM grows with chain" true (x6 > x2);
  Alcotest.(check bool)
    (Printf.sprintf "XMM slope much steeper (%.2f vs %.2f per stage)"
       ((x6 -. x2) /. 4.)
       ((a6 -. a2) /. 4.))
    true
    ((x6 -. x2) /. 4. > 3. *. ((a6 -. a2) /. 4.))

let test_file_read_scales () =
  let rate mm nodes =
    (File_io.read_test ~mm ~nodes ~file_mb:1 ()).File_io.per_node_mb_s
  in
  (* ASVM per-node read rate must stay within a small factor as nodes
     grow (distributed owners); XMM must collapse roughly like 1/N *)
  let a4 = rate Config.Mm_asvm 4 and a16 = rate Config.Mm_asvm 16 in
  let x4 = rate Config.Mm_xmm 4 and x16 = rate Config.Mm_xmm 16 in
  Alcotest.(check bool)
    (Printf.sprintf "ASVM read sustains (4:%.2f 16:%.2f)" a4 a16)
    true
    (a16 > a4 /. 2.5);
  Alcotest.(check bool)
    (Printf.sprintf "XMM read collapses (4:%.2f 16:%.2f)" x4 x16)
    true
    (x16 < x4 /. 2.5)

let test_file_write_pager_bound () =
  let r = File_io.write_test ~mm:Config.Mm_asvm ~nodes:4 ~file_mb:1 () in
  (* every page is supplied exactly once by the file pager *)
  Alcotest.(check int) "pager supplied all pages" 128 r.File_io.pager_supplies

(* -------------------- SOR -------------------- *)

let test_sor_validate () =
  Alcotest.(check bool)
    "distributed SOR equals sequential stencil (ASVM)" true
    (Asvm_workloads.Sor.validate ~mm:Config.Mm_asvm ~grid:8 ~nodes:3
       ~iterations:3);
  Alcotest.(check bool)
    "distributed SOR equals sequential stencil (XMM)" true
    (Asvm_workloads.Sor.validate ~mm:Config.Mm_xmm ~grid:8 ~nodes:3
       ~iterations:3)

let test_sor_neighbour_traffic_only () =
  (* nearest-neighbour sharing: the fault count grows linearly with
     nodes (two boundary pages each), not quadratically *)
  let module Sor = Asvm_workloads.Sor in
  let faults nodes =
    (Sor.run ~mm:Config.Mm_asvm
       { Sor.grid = 512; nodes; iterations = 4 })
      .Sor.faults
  in
  let f4 = faults 4 and f8 = faults 8 in
  Alcotest.(check bool)
    (Printf.sprintf "linear boundary traffic (4:%d 8:%d)" f4 f8)
    true
    (f8 < 3 * f4)

let test_sor_scales () =
  let module Sor = Asvm_workloads.Sor in
  let t nodes =
    (Sor.run ~mm:Config.Mm_asvm { Sor.grid = 1024; nodes; iterations = 5 })
      .Sor.seconds
  in
  let t1 = t 1 and t8 = t 8 in
  Alcotest.(check bool)
    (Printf.sprintf "SOR speeds up (1:%.3f 8:%.3f)" t1 t8)
    true (t8 < t1 /. 2.)

let test_fault_micro_monotone () =
  let m readers =
    Fault_micro.measure ~nodes:20 ~mm:Config.Mm_asvm
      (Fault_micro.Write_fault { read_copies = readers })
  in
  let l1 = m 1 and l8 = m 8 and l16 = m 16 in
  Alcotest.(check bool)
    (Printf.sprintf "latency grows with readers (%.2f %.2f %.2f)" l1 l8 l16)
    true
    (l1 < l8 && l8 < l16)

let test_fault_micro_read_constant () =
  (* paper: ASVM read faults cost the same for the first and second
     reader (2.35 both) — both are owner-supplied *)
  let r1 =
    Fault_micro.measure ~nodes:8 ~mm:Config.Mm_asvm
      (Fault_micro.Read_fault { nth_reader = 1 })
  in
  let r2 =
    Fault_micro.measure ~nodes:8 ~mm:Config.Mm_asvm
      (Fault_micro.Read_fault { nth_reader = 2 })
  in
  Alcotest.(check (float 0.3)) "read fault latency constant" r1 r2

(* ----------------------- park-timeout gate ----------------------- *)

(* ASVM's park timeout ([park_timeout_ms]) breaks mutual parking cycles
   under memory pressure.  In a fault-free cell whose data fits memory
   no such cycle can form, so a timeout firing there would hide a
   protocol bug: the counter must read 0. *)
let park_timeouts run =
  let seen = ref None in
  run ~inspect:(fun cl ->
      match Asvm_cluster.Cluster.backend cl with
      | `Asvm a ->
        seen :=
          Some
            (Asvm_simcore.Stats.Counters.get (Asvm_core.Asvm.counters a)
               "forward.park_timeouts")
      | `Xmm _ -> ());
  match !seen with Some n -> n | None -> Alcotest.fail "inspect never ran"

let test_park_timeouts_em3d () =
  let params = { Em3d.cells = 16_000; nodes = 8; iterations = 3; seed = 5 } in
  Alcotest.(check bool)
    "data fits memory" true
    (Em3d.fits ~cells:params.cells ~nodes:params.nodes
       ~memory_pages_per_node:Asvm_machvm.Vm_config.default.memory_pages);
  Alcotest.(check int) "forward.park_timeouts" 0
    (park_timeouts (fun ~inspect ->
         ignore (Em3d.run ~mm:Config.Mm_asvm ~inspect params)))

let test_park_timeouts_file_read () =
  Alcotest.(check int) "forward.park_timeouts" 0
    (park_timeouts (fun ~inspect ->
         ignore
           (File_io.read_test ~mm:Config.Mm_asvm ~nodes:16 ~file_mb:1 ~inspect
              ())))

let test_park_timeouts_fault_micro () =
  Alcotest.(check int) "forward.park_timeouts" 0
    (park_timeouts (fun ~inspect ->
         ignore
           (Fault_micro.measure_instrumented ~mm:Config.Mm_asvm ~inspect
              (Fault_micro.Write_fault { read_copies = 8 }))))

let () =
  Alcotest.run "workloads"
    [
      ( "em3d",
        [
          Alcotest.test_case "validate asvm" `Quick test_em3d_validate_asvm;
          Alcotest.test_case "invariants after run" `Quick
            test_em3d_leaves_invariants_intact;
          Alcotest.test_case "validate xmm" `Quick test_em3d_validate_xmm;
          Alcotest.test_case "validate 1 node" `Quick test_em3d_validate_single_node;
          Alcotest.test_case "speedup shape" `Slow test_em3d_speedup_shape;
          Alcotest.test_case "memory feasibility" `Quick test_em3d_fits;
        ] );
      ( "copy chain",
        [
          Alcotest.test_case "values" `Quick test_copy_chain_values;
          Alcotest.test_case "monotone" `Quick test_copy_chain_monotone;
        ] );
      ( "file io",
        [
          Alcotest.test_case "read scales" `Slow test_file_read_scales;
          Alcotest.test_case "write pager bound" `Quick test_file_write_pager_bound;
        ] );
      ( "sor",
        [
          Alcotest.test_case "validate" `Quick test_sor_validate;
          Alcotest.test_case "neighbour traffic" `Quick
            test_sor_neighbour_traffic_only;
          Alcotest.test_case "speedup" `Quick test_sor_scales;
        ] );
      ( "fault micro",
        [
          Alcotest.test_case "monotone in readers" `Quick test_fault_micro_monotone;
          Alcotest.test_case "read constant" `Quick test_fault_micro_read_constant;
        ] );
      ( "park timeouts",
        [
          Alcotest.test_case "em3d" `Quick test_park_timeouts_em3d;
          Alcotest.test_case "file read" `Quick test_park_timeouts_file_read;
          Alcotest.test_case "table 1 write fault" `Quick
            test_park_timeouts_fault_micro;
        ] );
    ]
