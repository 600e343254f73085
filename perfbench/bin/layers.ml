(* Layer microbenchmarks: each layer's public entry point timed in
   isolation, in host ns and minor words per call, at the event-queue
   depth and page size the workload produces.  Operations that schedule
   events are timed together with draining those events, and report how
   many events (and network messages) one call caused, so nested layers
   can be subtracted when estimating each layer's self cost. *)

module Engine = Asvm_simcore.Engine
module Event_queue = Asvm_simcore.Event_queue
module Station = Asvm_simcore.Station
module Network = Asvm_mesh.Network
module Topology = Asvm_mesh.Topology
module Sts = Asvm_sts.Sts
module Ipc = Asvm_norma.Ipc
module Contents = Asvm_machvm.Contents
module Hint_cache = Asvm_core.Hint_cache
module Asvm = Asvm_core.Asvm
module Metrics = Asvm_obs.Metrics
module Trace = Asvm_obs.Trace
module Calc = Perfbench_core.Calc

type result = {
  ns : float;  (** host ns per call *)
  words : float;  (** minor words per call *)
  events_per_op : float;
  net_per_op : float;  (** mesh messages per call *)
}

let ops = 100_000
let trials = 5

(* Random draws made before timing, so the loop times only the layer. *)
let draws =
  let st = Random.State.make [| 1996 |] in
  Array.init ops (fun _ -> Random.State.float st 1.)

(* One trial's state: the call to time, and the engine events and mesh
   messages it has caused so far. *)
type subject = { call : int -> unit; events : unit -> int; net : unit -> int }

let pure call = { call; events = (fun () -> 0); net = (fun () -> 0) }

(* Median over [trials] of [ops] calls; [prepare] builds fresh state for
   each trial. *)
let time prepare =
  let one () =
    let s = prepare () in
    Gc.full_major ();
    let e0 = s.events () and n0 = s.net () in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for i = 0 to ops - 1 do
      s.call i
    done;
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    let per x = float_of_int x /. float_of_int ops in
    ( (t1 -. t0) *. 1e9 /. float_of_int ops,
      (w1 -. w0) /. float_of_int ops,
      per (s.events () - e0),
      per (s.net () - n0) )
  in
  let runs = List.init trials (fun _ -> one ()) in
  let _, words, events_per_op, net_per_op = List.hd runs in
  {
    ns = Calc.median (List.map (fun (ns, _, _, _) -> ns) runs);
    words;
    events_per_op;
    net_per_op;
  }

let noop () = ()
let far_future = 1e12

(* An engine already holding [depth] events that never fire during the
   benchmark. *)
let deep_engine depth =
  let e = Engine.create () in
  for i = 1 to depth do
    Engine.schedule e ~delay:(far_future +. float_of_int i) noop
  done;
  e

(* Run the benchmark's own events, leaving the [depth] parked ones. *)
let drain e depth =
  while Engine.pending e > depth do
    ignore (Engine.step e)
  done

let batch = 64

(* Call [op i]; every [batch] calls, drain the events they caused. *)
let batched e depth op i =
  op i;
  if i mod batch = batch - 1 then drain e depth

let event_queue_add_pop ~depth =
  time (fun () ->
      let q = Event_queue.create () in
      for i = 1 to depth do
        Event_queue.add q ~time:(draws.(i mod ops) *. 1000.) ~seq:i noop
      done;
      let slot = Event_queue.slot () in
      let seq = ref depth in
      pure (fun i ->
          incr seq;
          let base = match Event_queue.min_time q with Some t -> t | None -> 0. in
          Event_queue.add q ~time:(base +. (draws.(i) *. 1000.)) ~seq:!seq noop;
          ignore (Event_queue.pop_into q slot)))

(* [call] runs against an engine holding [depth] parked events *)
let on_engine ?net e call =
  {
    call;
    events = (fun () -> Engine.events_executed e);
    net = (match net with Some n -> fun () -> Network.messages n | None -> fun () -> 0);
  }

let engine_schedule_step ~depth =
  time (fun () ->
      let e = deep_engine depth in
      on_engine e (fun i ->
          Engine.schedule e ~delay:draws.(i) noop;
          ignore (Engine.step e)))

let station_submit ~depth =
  time (fun () ->
      let e = deep_engine depth in
      let st = Station.create e in
      on_engine e (batched e depth (fun i -> Station.submit st ~service:draws.(i) noop)))

let network ~depth ~nodes =
  let e = deep_engine depth in
  (e, Network.create e Network.paragon_config (Topology.create ~nodes))

let pair ~nodes i = (i mod nodes, (i + 1) mod nodes)

let net_send ~depth ~nodes =
  time (fun () ->
      let e, net = network ~depth ~nodes in
      on_engine e ~net
        (batched e depth (fun i ->
             let src, dst = pair ~nodes i in
             Network.send net ~src ~dst ~bytes:Sts.default_config.header_bytes
               ~sw_send:Sts.default_config.sw_send_ms
               ~sw_recv:Sts.default_config.sw_recv_ms noop)))

let sts_send ~depth ~nodes =
  time (fun () ->
      let e, net = network ~depth ~nodes in
      let sts = Sts.create net Sts.default_config in
      for node = 0 to nodes - 1 do
        Sts.register sts ~node ignore
      done;
      on_engine e ~net
        (batched e depth (fun i ->
             let src, dst = pair ~nodes i in
             Sts.send sts ~src ~dst i)))

let norma_send ~depth ~nodes =
  time (fun () ->
      let e, net = network ~depth ~nodes in
      let ipc = Ipc.create net Ipc.default_config in
      let ports =
        Array.init nodes (fun node -> Ipc.port ipc ~node ~handler:(fun _ _ -> ()))
      in
      on_engine e ~net
        (batched e depth (fun i ->
             let src, dst = pair ~nodes i in
             Ipc.send ipc ~src ~dst:ports.(dst) i)))

let page ~words =
  let c = Contents.zero ~words in
  Contents.set c 0 1;
  c

let contents_snapshot ~words =
  time (fun () ->
      let c = page ~words in
      pure (fun _ -> ignore (Sys.opaque_identity (Contents.snapshot c))))

(* snapshot, then the first write to it: the deferred copy *)
let contents_snapshot_set ~words =
  time (fun () ->
      let c = page ~words in
      pure (fun i -> Contents.set (Contents.snapshot c) (i mod words) i))

let hint_cache_put_find () =
  let capacity = Asvm.default_config.dynamic_cache_pages in
  time (fun () ->
      let h = Hint_cache.create ~capacity in
      let page i = int_of_float (draws.(i) *. float_of_int (4 * capacity)) in
      pure (fun i ->
          Hint_cache.put h ~page:(page i) i;
          ignore (Sys.opaque_identity (Hint_cache.find h ~page:(page (ops - 1 - i))))))

let metrics_incr () =
  time (fun () ->
      let c = Metrics.Registry.counter (Metrics.Registry.create ()) "bench.c" in
      pure (fun _ -> Metrics.Counter.incr c))

let metrics_observe () =
  time (fun () ->
      let h = Metrics.Registry.histogram (Metrics.Registry.create ()) "bench.h" in
      pure (fun i -> Metrics.Histogram.observe h draws.(i)))

(* the record and boxed time a protocol call site builds per message *)
let trace_emit enabled =
  time (fun () ->
      let tr =
        Sys.opaque_identity
          (if enabled then Some (Trace.create ~capacity:Cells.trace_capacity ())
           else None)
      in
      pure (fun i ->
        Trace.emit tr ~time:draws.(i) ~node:(i land 15)
          (Trace.Msg
             {
               proto = "asvm";
               cls = "request";
               group = "transfer";
               src = i land 15;
               dst = (i + 1) land 15;
               carries_page = false;
               bytes = 32;
             })))

type all = {
  event_queue_add_pop : result;
  engine_schedule_step : result;
  station_submit : result;
  net_send : result;
  sts_send : result;
  norma_send : result;
  contents_snapshot : result;
  contents_set : result;  (** snapshot + first write, minus snapshot *)
  hint_cache_put_find : result;
  metrics_incr : result;
  metrics_observe : result;
  trace_emit_off : result;
  trace_emit_on : result;
}

(* [span name f] lets the caller record a span around each benchmark. *)
let run ~span ~depth ~nodes ~words =
  let snapshot = span "layer:contents.snapshot" (fun () -> contents_snapshot ~words) in
  let snapshot_set =
    span "layer:contents.set" (fun () -> contents_snapshot_set ~words)
  in
  {
    event_queue_add_pop =
      span "layer:event_queue.add_pop" (fun () -> event_queue_add_pop ~depth);
    engine_schedule_step =
      span "layer:engine.schedule_step" (fun () -> engine_schedule_step ~depth);
    station_submit = span "layer:station.submit" (fun () -> station_submit ~depth);
    net_send = span "layer:net.send" (fun () -> net_send ~depth ~nodes);
    sts_send = span "layer:sts.send" (fun () -> sts_send ~depth ~nodes);
    norma_send = span "layer:norma.send" (fun () -> norma_send ~depth ~nodes);
    contents_snapshot = snapshot;
    contents_set =
      {
        snapshot_set with
        ns = snapshot_set.ns -. snapshot.ns;
        words = snapshot_set.words -. snapshot.words;
      };
    hint_cache_put_find = span "layer:hint_cache.put_find" hint_cache_put_find;
    metrics_incr = span "layer:metrics.incr" metrics_incr;
    metrics_observe = span "layer:metrics.observe" metrics_observe;
    trace_emit_off = span "layer:trace.emit_off" (fun () -> trace_emit false);
    trace_emit_on = span "layer:trace.emit_on" (fun () -> trace_emit true);
  }
