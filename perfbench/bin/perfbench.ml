(* The repository benchmark.

     perfbench --workload em3d|file-read|em3d-oversub|serve-oversub --seed N
               --seconds S --trace 0|1

   Repeats the workload's cells (each once under ASVM and once under
   XMM) for S host seconds in one process and one domain, checks every
   output, prints a table of every metric with its unit, and prints one
   JSON result object as the last line of standard output.  [--trace 0]
   reports the end-to-end metrics from untraced runs; [--trace 1]
   reports the per-layer metrics from a traced run plus the layer
   microbenchmarks, and writes the run's spans to
   [perfbench/out/<workload>-seed<N>-spans.jsonl].  Exits 1 when a
   check fails. *)

module Config = Asvm_cluster.Config
module Em3d = Asvm_workloads.Em3d
module Json = Asvm_obs.Json
module Calc = Perfbench_core.Calc
module Report = Perfbench_core.Report
module W = Workloads

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans, kept in memory and written at the end                        *)
(* ------------------------------------------------------------------ *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

let spans = ref []
let next_span = ref 0
let t_origin = now ()

let add_span ~parent name start stop =
  incr next_span;
  spans := { id = !next_span; parent; name; start; stop } :: !spans;
  !next_span

(* Record [f] as a span; [f] receives its own span id for children. *)
let with_span ~parent name f =
  incr next_span;
  let id = !next_span in
  let start = now () in
  let r = f id in
  spans := { id; parent; name; start; stop = now () } :: !spans;
  r

(* cell -> setup / run / inspect / collect, from the hook timestamps *)
let cell_spans ~parent (c : W.cell) =
  let t = c.timing in
  let start = t.t_call in
  let setup_end = start +. t.setup_s in
  let run_end = setup_end +. t.run_s in
  let inspect_end = run_end +. t.inspect_s in
  let stop = inspect_end +. t.collect_s in
  let id = add_span ~parent ("cell:" ^ c.label) start stop in
  ignore (add_span ~parent:id "setup" start setup_end);
  ignore (add_span ~parent:id "run" setup_end run_end);
  ignore (add_span ~parent:id "inspect" run_end inspect_end);
  ignore (add_span ~parent:id "collect" inspect_end stop)

let write_spans path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Int s.id);
                ("parent", Json.Int s.parent);
                ("name", Json.String s.name);
                ("start_s", Json.Float (s.start -. t_origin));
                ("end_s", Json.Float (s.stop -. t_origin));
              ]));
      output_char oc '\n')
    (List.sort (fun a b -> compare a.id b.id) !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Repetitions                                                         *)
(* ------------------------------------------------------------------ *)

(* Each run draws [sub_seeds] workload seeds from [--seed] and cycles
   through them, so one run's simulated figures are medians over several
   inputs rather than one draw.  Five, not three: pooling five seeds
   narrows the seed-to-seed spread of em3d-oversub's p99 latencies. *)
let sub_seeds = 5
let sub_seed seed j = (seed * 1000) + j

type rep = {
  traced : bool;
  sub : int;  (** index of the sub-seed this repetition ran *)
  cells : W.cell list;
  digest : string;
  speed : float list;
      (** per cell: [Calib.reference_s] over the mean of the calibrations
          timed just before and just after it *)
}

(* Simulated outputs and registry counters only: identical for every
   repetition of one seed, traced or not, on any host. *)
let digest cells =
  let d = Calc.Digest_acc.create () in
  List.iter
    (fun (c : W.cell) ->
      Calc.Digest_acc.add_string d c.label;
      List.iter
        (fun (k, v) ->
          Calc.Digest_acc.add_string d k;
          Calc.Digest_acc.add_float d v)
        c.sim;
      List.iter
        (fun (k, v) ->
          Calc.Digest_acc.add_string d k;
          Calc.Digest_acc.add_int d v)
        c.counts.counters;
      List.iter (Calc.Digest_acc.add_int d)
        [ c.counts.events; c.counts.depth_at_start; c.counts.vm_faults;
          c.counts.evictions; c.counts.pager_supplies; c.counts.disk_reads;
          c.counts.disk_writes; c.counts.snapshots;
          c.counts.cow_materializations ])
    cells;
  Calc.Digest_acc.hex d

let run_rep (w : W.t) ~traced ~seed ~sub ~parent =
  let before = ref [] in
  let cells =
    List.map
      (fun cell ->
        before := Calib.time () :: !before;
        cell ())
      (w.rep ~traced ~seed:(sub_seed seed sub))
  in
  let rec speed = function
    | b :: (a :: _ as rest) -> (Calib.reference_s /. ((b +. a) /. 2.)) :: speed rest
    | _ -> []
  in
  let speed = speed (List.rev (Calib.time () :: !before)) in
  List.iter (cell_spans ~parent) cells;
  { traced; sub; cells; digest = digest cells; speed }

(* Host seconds of the cells of [r] that satisfy [keep], each at the
   calibration's nominal machine speed: a shared host's speed drifts
   between and within runs, and the calibration around each cell
   tracks it. *)
let scaled_sum ?(keep = fun (_ : W.cell) -> true) seconds r =
  List.fold_left2
    (fun acc (c : W.cell) speed -> if keep c then acc +. (seconds c.timing *. speed) else acc)
    0. r.cells r.speed

let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec find () =
            let line = input_line ic in
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
            else find ()
          in
          find ())
    with _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1024. /. 1024.

(* Untraced repetitions cycling through the sub-seeds, for [seconds]
   and until every sub-seed ran and one ran twice (the digest check).
   In trace mode, untraced and traced repetitions of sub-seed 0
   alternate, at least two of each.  Returns the repetitions and the
   memory high-water mark after the first one, before repetition
   count can matter. *)
let repeat (w : W.t) ~seed ~seconds ~trace ~parent =
  let t0 = now () in
  let min_reps = if trace then 4 else sub_seeds + 1 in
  let rss = ref 0. in
  let rec go acc i =
    if now () -. t0 >= seconds && i >= min_reps then List.rev acc
    else
      let traced = trace && i mod 2 = 1 in
      let sub = if trace then 0 else i mod sub_seeds in
      let r =
        with_span ~parent
          (Printf.sprintf "rep:%d:seed%d%s" i (sub_seed seed sub)
             (if traced then ":traced" else ""))
          (fun id -> run_rep w ~traced ~seed ~sub ~parent:id)
      in
      if i = 0 then rss := peak_rss_mb ();
      go (r :: acc) (i + 1)
  in
  let reps = go [] 0 in
  (reps, !rss)

(* the first repetition of each sub-seed that ran *)
let per_sub reps =
  List.filter_map
    (fun j -> Option.map (fun r -> r.cells) (List.find_opt (fun r -> r.sub = j) reps))
    (List.init sub_seeds Fun.id)

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l
let median_over reps f = Calc.median (List.map f reps)

type metric = { m_name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") m_name unit_ value = { m_name; value; unit_; note }

let end_to_end (w : W.t) reps ~rss ~ok_frac =
  let untraced = List.filter (fun r -> not r.traced) reps in
  let groups = per_sub untraced in
  let host mm = scaled_sum ~keep:(fun c -> c.mm = mm) Cells.host_s in
  (* the repetitions' quartiles show how steady the run was *)
  let host_metric name f =
    let values = List.map f untraced in
    let q1, q2, q3 = Calc.quartiles values in
    metric name "s" (Calc.median values)
      ~note:
        (Printf.sprintf "median of %d reps at nominal speed, q1 %.4g q2 %.4g q3 %.4g"
           (List.length values) q1 q2 q3)
  in
  let over_seeds f = Calc.median (List.map f groups) in
  let of_seeds = Printf.sprintf "median of %d seeds" (List.length groups) in
  let per_mm mm =
    let tag = W.mm_tag mm in
    let fig name = over_seeds (fun cells -> W.sim (w.headline mm cells) name) in
    (* percentiles of the samples pooled over the seeds *)
    let pooled =
      Array.concat (List.map (fun cells -> (w.headline mm cells).latencies) groups)
    in
    Array.sort compare pooled;
    let samples =
      Printf.sprintf "%s, %d samples pooled over %d seeds"
        (w.headline mm (List.hd groups)).label (Array.length pooled)
        (List.length groups)
    in
    [
      host_metric (tag ^ "_host_s") (host mm);
      metric (tag ^ "_sim_s") "sim_s" ~note:of_seeds (fig "sim_s");
      metric (tag ^ "_p50_ms") "sim_ms" ~note:samples (Calc.percentile pooled 50.);
      metric (tag ^ "_p99_ms") "sim_ms" ~note:samples (Calc.percentile pooled 99.);
      metric (tag ^ "_rps_at_slo") "1/sim_s"
        ~note:(w.rate_note ^ ", " ^ of_seeds)
        (over_seeds (w.rate mm));
    ]
  in
  let all = per_mm Config.Mm_asvm @ per_mm Config.Mm_xmm in
  let pick name = List.find (fun m -> m.m_name = name) all in
  List.map pick [ "asvm_host_s"; "xmm_host_s" ]
  @ [
      host_metric "setup_s" (scaled_sum (fun t -> t.setup_s));
      metric "peak_rss_mb" "MB" ~note:"after the first repetition" rss;
    ]
  @ List.map pick
      [ "asvm_sim_s"; "xmm_sim_s"; "asvm_p50_ms"; "asvm_p99_ms"; "xmm_p50_ms";
        "xmm_p99_ms"; "asvm_rps_at_slo"; "xmm_rps_at_slo" ]
  @ [
      metric "paper_err" "ratio" ~note:"mean |ln(sim/published)|"
        (Calc.paper_err
           (List.map
              (fun mm -> (over_seeds (w.paper mm), w.published mm))
              W.managers));
      metric "ok_frac" "ratio" ~note:"1 - failed/attempted" ok_frac;
    ]

(* ------------------------------------------------------------------ *)
(* Per-layer figures (traced run)                                      *)
(* ------------------------------------------------------------------ *)

let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let per_layer (w : W.t) reps ~parent =
  let untraced = List.filter (fun r -> not r.traced) reps in
  let traced = List.filter (fun r -> r.traced) reps in
  let cells = (List.hd traced).cells in
  let ci f = sumi (fun (c : W.cell) -> f c.counts) cells in
  let ci_mm mm f = sumi (fun (c : W.cell) -> f c.counts) (W.of_mm mm cells) in
  let events = ci (fun k -> k.events) in
  let depth =
    List.fold_left (fun acc (c : W.cell) -> max acc c.counts.depth_at_start) 0 cells
  in
  let phase f r = sum (fun (c : W.cell) -> f c.timing) r.cells in
  let run_s r = phase (fun t -> t.run_s) r in
  let host r = phase Cells.host_s r in
  let u_run = median_over untraced run_s in
  let u_words = median_over untraced (phase (fun t -> t.run_words)) in
  let span_setup = median_over traced (phase (fun t -> t.setup_s)) in
  let span_run = median_over traced run_s in
  let span_collect = median_over traced (phase (fun t -> t.collect_s)) in
  let overhead = (median_over traced host /. median_over untraced host) -. 1. in
  let l =
    with_span ~parent "layers" (fun id ->
        Layers.run
          ~span:(fun name f -> with_span ~parent:id name (fun _ -> f ()))
          ~depth ~nodes:w.nodes
          ~words:(Config.default ~nodes:1).Config.vm.words_per_page)
  in
  let merged_backlog =
    Array.concat (List.map (fun (c : W.cell) -> c.counts.tx_backlog_ms) cells)
  in
  Array.sort compare merged_backlog;
  let faults mm = ci_mm mm (fun k -> k.vm_faults) in
  let msgs mm = ci_mm mm (fun k -> k.protocol_messages) in
  let sim_max name =
    List.fold_left
      (fun acc (c : W.cell) ->
        match (c.rung, List.assoc_opt name c.sim) with
        | Some r, Some v when r.rate = W.reference_rate c.mm -> Float.max acc v
        | _ -> acc)
      0. cells
  in
  let pageouts =
    ci (fun k -> k.reader_handoffs + k.internode_pageouts + k.pageouts_to_pager)
  in
  (* self cost of each layer per call: nested layers' shares removed *)
  let eng = l.engine_schedule_step.ns and q = l.event_queue_add_pop.ns in
  let self_events (r : Layers.result) = r.events_per_op -. (r.net_per_op *. l.net_send.events_per_op) in
  let net_self = Float.max 0. (l.net_send.ns -. (l.net_send.events_per_op *. eng)) in
  let transport_self (r : Layers.result) =
    Float.max 0. (r.ns -. (r.net_per_op *. l.net_send.ns) -. (self_events r *. eng))
  in
  let share count ns = float_of_int count *. ns *. 1e-9 /. span_run in
  let shares =
    [
      ("engine.est_share", share events (Float.max 0. (eng -. q)));
      ("event_queue.est_share", share events q);
      ("net.est_share", share (ci (fun k -> k.net_messages)) net_self);
      ("sts.est_share", share (ci (fun k -> k.sts_messages)) (transport_self l.sts_send));
      ("norma.est_share", share (ci (fun k -> k.norma_messages)) (transport_self l.norma_send));
      ( "contents.est_share",
        share (ci (fun k -> k.snapshots)) l.contents_snapshot.ns
        +. share (ci (fun k -> k.cow_materializations)) l.contents_set.ns );
      ( "metrics.est_share",
        share (ci (fun k -> k.counter_incrs)) l.metrics_incr.ns
        +. share (ci (fun k -> k.histogram_observes)) l.metrics_observe.ns );
      ("trace.est_share", share (ci (fun k -> k.trace_events)) l.trace_emit_on.ns);
    ]
  in
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0. shares in
  let bench name (r : Layers.result) =
    [ metric (name ^ "_ns") "ns" r.ns; metric (name ^ "_words") "words" r.words ]
  in
  let count name v = metric name "count" (float_of_int v) in
  let ratio name v = metric name "ratio" v in
  [
    count "engine.events" events;
    metric "engine.ns_per_event" "ns" (u_run *. 1e9 /. float_of_int (max 1 events));
    metric "engine.words_per_event" "words" (u_words /. float_of_int (max 1 events));
  ]
  @ bench "engine.schedule_step" l.engine_schedule_step
  @ [ count "event_queue.depth_at_start" depth ]
  @ bench "event_queue.add_pop" l.event_queue_add_pop
  @ bench "station.submit" l.station_submit
  @ [
      count "net.messages" (ci (fun k -> k.net_messages));
      count "net.bytes" (ci (fun k -> k.net_bytes));
      metric "net.tx_backlog_p99_ms" "sim_ms"
        (if Array.length merged_backlog = 0 then 0.
         else Calc.percentile merged_backlog 99.);
    ]
  @ bench "net.send" l.net_send
  @ [
      count "sts.messages" (ci (fun k -> k.sts_messages));
      ratio "sts.page_frac"
        (frac (ci (fun k -> k.sts_page_messages)) (ci (fun k -> k.sts_messages)));
    ]
  @ bench "sts.send" l.sts_send
  @ [ count "norma.messages" (ci (fun k -> k.norma_messages)) ]
  @ bench "norma.send" l.norma_send
  @ [
      ratio "asvm.msgs_per_fault" (frac (msgs Config.Mm_asvm) (faults Config.Mm_asvm));
      ratio "asvm.global_sweep_frac"
        (frac (ci (fun k -> k.global_sweeps)) (ci (fun k -> k.forwarding)));
      count "asvm.park_timeouts" (ci (fun k -> k.park_timeouts));
    ]
  @ bench "hint_cache.put_find" l.hint_cache_put_find
  @ [
      ratio "xmm.msgs_per_fault" (frac (msgs Config.Mm_xmm) (faults Config.Mm_xmm));
      count "vm.faults" (ci (fun k -> k.vm_faults));
      ratio "vm.local_frac" (frac (ci (fun k -> k.vm_local_faults)) (ci (fun k -> k.vm_faults)));
      count "vm.evictions" (ci (fun k -> k.evictions));
      ratio "vm.daemon_evict_frac"
        (frac (ci (fun k -> k.daemon_evictions)) (ci (fun k -> k.evictions)));
      count "contents.snapshots" (ci (fun k -> k.snapshots));
      ratio "contents.cow_frac"
        (frac (ci (fun k -> k.cow_materializations)) (ci (fun k -> k.snapshots)));
    ]
  @ bench "contents.snapshot" l.contents_snapshot
  @ bench "contents.set" l.contents_set
  @ [
      count "pager.supplies" (ci (fun k -> k.pager_supplies));
      count "pager.stores" (ci (fun k -> k.pager_stores));
      count "disk.reads" (ci (fun k -> k.disk_reads));
      count "disk.writes" (ci (fun k -> k.disk_writes));
      ratio "pageout.to_pager_frac" (frac (ci (fun k -> k.pageouts_to_pager)) pageouts);
    ]
  @ bench "metrics.incr" l.metrics_incr
  @ bench "metrics.observe" l.metrics_observe
  @ bench "trace.emit_off" l.trace_emit_off
  @ bench "trace.emit_on" l.trace_emit_on
  @ [
      count "trace.events" (ci (fun k -> k.trace_events));
      ratio "trace.overhead_frac" overhead;
      metric "serve.drain_ms" "sim_ms" (sim_max "drain_ms");
      count "serve.queue_depth_max" (int_of_float (sim_max "queue_depth_max"));
      metric "span.setup_s" "s" span_setup;
      metric "span.run_s" "s" span_run;
      metric "span.collect_s" "s" span_collect;
    ]
  @ List.map (fun (n, s) -> ratio n s) shares
  @ [ ratio "unattributed_share" (1. -. attributed) ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench --workload em3d|file-read|em3d-oversub|serve-oversub --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s -> seconds := s | None -> usage ());
      go rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (W.find !workload, !seed) with
  | Some w, Some seed -> (w, seed, !seconds, !trace = 1)
  | _ -> usage ()

(* the word-level coherence check, one small instance per manager *)
let validations ~seed =
  List.map
    (fun mm ->
      ( "em3d word-level validate, " ^ W.mm_tag mm,
        try Em3d.validate ~mm ~cells:96 ~nodes:4 ~iterations:2 ~seed with _ -> false ))
    W.managers

let () =
  let w, seed, seconds, trace = parse_args () in
  let checks = ref [] and attempted = ref 0 and failed = ref 0 in
  let check name ok =
    checks := (name, ok) :: !checks;
    incr attempted;
    if not ok then incr failed
  in
  let metrics, reps =
    with_span ~parent:0 ("workload:" ^ w.name) (fun root ->
        List.iter (fun (n, ok) -> check n ok)
          (with_span ~parent:root "validate" (fun _ -> validations ~seed));
        let reps, rss = repeat w ~seed ~seconds ~trace ~parent:root in
        List.iter
          (fun r ->
            List.iter
              (fun (c : W.cell) ->
                attempted := !attempted + c.ops;
                if c.errors <> [] then begin
                  failed := !failed + c.ops;
                  List.iter (fun e -> checks := (c.label ^ ": " ^ e, false) :: !checks) c.errors
                end)
              r.cells)
          reps;
        List.iter
          (fun j ->
            match List.filter (fun r -> r.sub = j) reps with
            | [] | [ _ ] -> ()
            | r0 :: rest ->
              check
                (Printf.sprintf "seed %d: digest identical across %d repetitions"
                   (sub_seed seed j) (1 + List.length rest))
                (List.for_all (fun r -> r.digest = r0.digest) rest))
          (List.init sub_seeds Fun.id);
        let groups = per_sub reps in
        let ok_cells =
          List.for_all (fun r -> List.for_all (fun (c : W.cell) -> c.errors = []) r.cells) reps
        in
        if ok_cells then
          List.iteri
            (fun j cells ->
              List.iter
                (fun (n, ok) -> check (Printf.sprintf "seed %d: %s" (sub_seed seed j) n) ok)
                (w.orderings cells))
            groups;
        let metrics =
          if not ok_cells then []
          else if trace then per_layer w reps ~parent:root
          else
            end_to_end w reps ~rss
              ~ok_frac:(1. -. (float_of_int !failed /. float_of_int (max 1 !attempted)))
        in
        (metrics, reps))
  in
  let correct = List.for_all snd !checks in
  let digests =
    String.concat ","
      (List.sort_uniq compare (List.map (fun r -> Printf.sprintf "%d:%s" (sub_seed seed r.sub) r.digest) reps))
  in
  Printf.printf "perfbench %s seed=%d trace=%d reps=%d digests=%s\n" w.name seed
    (if trace then 1 else 0) (List.length reps) digests;
  List.iter
    (fun (n, ok) ->
      Printf.printf "  check %-4s %s\n" (if ok then "ok" else "FAIL") n;
      (* a failed run's standard error names its failed checks *)
      if not ok then Printf.eprintf "perfbench: check FAIL %s\n" n)
    (List.rev !checks);
  List.iter
    (fun m -> Printf.printf "  %-28s %16.6g %-8s %s\n" m.m_name m.value m.unit_ m.note)
    metrics;
  if trace then
    write_spans
      (Printf.sprintf "perfbench/out/%s-seed%d-spans.jsonl" w.name seed);
  print_endline
    (Report.to_string
       {
         Report.correct;
         attempted = max 1 !attempted;
         failed = !failed;
         metrics =
           List.map
             (fun m -> { Report.name = m.m_name; value = m.value; unit_ = m.unit_ })
             metrics;
       });
  if not correct then exit 1
