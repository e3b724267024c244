open Aring_ring
open Aring_sim
module Daemon = Aring_daemon.Daemon
module Kv = Aring_app.Kv
module Kv_scenario = Aring_app.Kv_scenario
module Op = Aring_app.Op
module Prng = Aring_util.Prng
module Stats = Aring_util.Stats
module Metrics = Aring_obs.Metrics
module Span = Aring_obs.Span
module Scenario = Aring_harness.Scenario

type arrival = Poisson | Periodic

type storm = {
  storm_at_ns : int;
  storm_sessions : int;
  storm_window_ns : int;
}

type churn = {
  mean_lifetime_ns : int;
  reconnect_delay_ns : int;
  storm : storm option;
}

type slow_spec = { slow_per_node : int; drain_per_sec : float }
type geo = { classes : int array; latency_matrix : int array array }
type link = { l_node : int; l_up_bps : int option; l_down_bps : int option }

type spec = {
  label : string;
  n_nodes : int;
  net : Profile.net;
  tier : Profile.tier;
  params : Params.t;
  sessions_per_node : int;
  n_groups : int;
  arrival : arrival;
  ops_per_sec : float;
  load : (int * float) list;
  key_space : int;
  zipf_theta : float;
  value_mix : (int * int) list;
  read_permille : int;
  sync_read_permille : int;
  cas_permille : int;
  del_permille : int;
  mcas_permille : int;
  rings : int;
  churn : churn option;
  slow : slow_spec option;
  geo : geo option;
  links : link list;
  partition : Kv_scenario.partition option;
  warmup_ns : int;
  measure_ns : int;
  drain_ns : int;
  seed : int64;
}

type result = {
  spec : spec;
  sessions_started : int;
  sessions_peak : int;
  reconnects : int;
  ops_offered : int;
  ops_skipped : int;
  writes_offered : int;
  writes_applied : int;
  offered_write_rate : float;
  applied_write_rate : float;
  write_latency_us : Stats.t;
  sync_read_latency_us : Stats.t;
  merge_wait_us : Stats.t;
  per_ring_applied : int array;
  mcas_submitted : int;
  mcas_commits : int;
  mcas_aborts : int;
  mcas_retries : int;
  skip_credits_spent : int;
  queue_depth_peak : int;
  queue_depth_end : int;
  slow_inbox_peak : int;
  slow_inbox_end : int;
  storm_steady_rate : float;
  storm_rate : float;
  storm_degradation : float;
  storm_recovered_ms : float;
  storm_all_reconnected : bool;
  cluster : Cluster.t;
  oracle_violations : int;
  converged : bool;
  end_ns : int;
  metrics : Metrics.t;
}

let ms n = n * 1_000_000

let default_spec =
  {
    label = "load";
    n_nodes = 4;
    net = Profile.gigabit;
    tier = Profile.daemon;
    params = Kv_scenario.snappy_params ();
    sessions_per_node = 500;
    n_groups = 16;
    arrival = Poisson;
    ops_per_sec = 12_000.0;
    load = [];
    key_space = 512;
    zipf_theta = 0.99;
    value_mix = [ (64, 6); (256, 3); (1024, 1) ];
    read_permille = 250;
    sync_read_permille = 50;
    cas_permille = 100;
    del_permille = 70;
    mcas_permille = 0;
    rings = 1;
    churn = None;
    slow = None;
    geo = None;
    links = [];
    partition = None;
    warmup_ns = ms 100;
    measure_ns = ms 300;
    drain_ns = ms 1_000;
    seed = 21L;
  }

(* One open-loop client slot. [gen] guards delayed churn/reconnect
   callbacks against acting on a slot whose session has turned over.
   [daemon] hosts the session: node [node]'s daemon on ring
   [(id / n_nodes) mod rings]. *)
type sess = {
  id : int;
  node : int;
  daemon : Daemon.t;
  group : string;
  mutable handle : Daemon.session option;
  mutable gen : int;
  mutable counter : int;
}

let no_callbacks =
  {
    Daemon.on_message = (fun ~sender:_ ~groups:_ _ _ -> ());
    on_group_view = (fun ~group:_ ~members:_ -> ());
  }

let validate spec =
  if spec.rings < 1 then invalid_arg "Load.run: rings < 1";
  if spec.n_nodes < 2 then invalid_arg "Load.run: n_nodes < 2";
  if spec.sessions_per_node < 1 then
    invalid_arg "Load.run: sessions_per_node < 1";
  if spec.n_groups < 1 then invalid_arg "Load.run: n_groups < 1";
  if spec.key_space < 1 then invalid_arg "Load.run: key_space < 1";
  let mix =
    [
      spec.read_permille;
      spec.sync_read_permille;
      spec.cas_permille;
      spec.del_permille;
      spec.mcas_permille;
    ]
  in
  if List.exists (fun p -> p < 0) mix then
    invalid_arg "Load.run: negative op-mix permille";
  if List.fold_left ( + ) 0 mix > 1000 then
    invalid_arg "Load.run: op mix exceeds 1000 permille";
  if spec.mcas_permille > 0 && spec.rings < 2 then
    invalid_arg "Load.run: mcas needs rings > 1";
  if spec.value_mix = [] then invalid_arg "Load.run: empty value_mix";
  if List.exists (fun (_, w) -> w < 0) spec.value_mix then
    invalid_arg "Load.run: negative value_mix weight";
  if List.fold_left (fun a (_, w) -> a + w) 0 spec.value_mix <= 0 then
    invalid_arg "Load.run: value_mix weights sum to zero";
  if List.exists (fun l -> l.l_node < 0 || l.l_node >= spec.n_nodes) spec.links
  then invalid_arg "Load.run: link node out of range";
  Option.iter
    (fun g ->
      if Array.length g.classes <> spec.n_nodes then
        invalid_arg "Load.run: geo classes must cover n_nodes")
    spec.geo

(* Partitions, links and latency classes name physical nodes; each one
   applies to that node's participant in every ring. *)
let shape_network cluster spec =
  let sim = Cluster.sim cluster and n = spec.n_nodes in
  List.iter
    (fun l ->
      for ring = 0 to spec.rings - 1 do
        Netsim.set_link_rates sim
          ~node:(Cluster.pid cluster ~ring ~node:l.l_node)
          ?up_bps:l.l_up_bps ?down_bps:l.l_down_bps ()
      done)
    spec.links;
  Option.iter
    (fun g ->
      Netsim.set_latency_classes sim
        ~classes:(Array.init (spec.rings * n) (fun p -> g.classes.(p mod n)))
        ~matrix:g.latency_matrix)
    spec.geo;
  Option.iter
    (fun (p : Kv_scenario.partition) ->
      let inside = Array.make n false in
      List.iter (fun i -> if i >= 0 && i < n then inside.(i) <- true) p.island;
      Netsim.set_drop sim (fun ~src ~dst _ ->
          let now = Netsim.now sim in
          now >= p.part_at_ns && now < p.heal_at_ns
          && inside.(src mod n) <> inside.(dst mod n)))
    spec.partition

let run spec =
  validate spec;
  let n = spec.n_nodes and rings = spec.rings in
  let cluster =
    Cluster.create ~params:spec.params ~net:spec.net ~tier:spec.tier
      ~seed:spec.seed ~rings ~nodes:n ()
  in
  let sim = Cluster.sim cluster in
  (* Every daemon, indexed by global pid. *)
  let daemons =
    Array.init (rings * n) (fun p ->
        Cluster.daemon cluster ~ring:(p / n) ~node:(p mod n))
  in
  shape_network cluster spec;
  let metrics = Metrics.create () in
  let span = Span.create ~metrics () in
  Span.attach span;
  let horizon = spec.warmup_ns + spec.measure_ns in
  let deadline = horizon + spec.drain_ns in
  (* ---------------- instruments ---------------- *)
  let m_offered = Metrics.counter metrics "load.ops_offered" in
  let m_skipped = Metrics.counter metrics "load.ops_skipped_disconnected" in
  let m_reconnects = Metrics.counter metrics "load.reconnects" in
  let m_sessions = Metrics.gauge metrics "load.sessions_connected" in
  let m_queue = Metrics.gauge metrics "load.queue_depth" in
  let m_queue_peak = Metrics.gauge metrics "load.queue_depth_peak" in
  let m_slow_inbox = Metrics.gauge metrics "load.slow_inbox_depth" in
  let m_slow_drained = Metrics.counter metrics "load.slow_drained" in
  let m_latency = Metrics.histogram metrics "load.write_latency_us" in
  let write_latency = Stats.create () in
  let sync_latency = Stats.create () in
  let merge_wait = Stats.create () in
  let per_ring_applied = Array.make rings 0 in
  let ops_offered = ref 0 in
  let ops_skipped = ref 0 in
  let writes_offered = ref 0 in
  let writes_applied = ref 0 in
  let in_flight_total = ref 0 in
  let queue_peak = ref 0 in
  let connected = ref 0 in
  let sessions_peak = ref 0 in
  let reconnects = ref 0 in
  (* Node 0's merged items, 1 ms bins, for the storm degradation and
     recovery SLOs. *)
  let bin_ns = ms 1 in
  let applied_bins = Array.make ((deadline / bin_ns) + 2) 0 in
  (* Submit times of tracked in-flight writes, per submitting node, keyed
     by the unique value string the op carries. A write completes when
     it emerges in its submitting node's merged stream. *)
  let in_flight = Array.init n (fun _ -> Hashtbl.create 1024) in
  Cluster.on_merged cluster (fun ~node ~ring (it : Cluster.merged_item) ->
      let now = Netsim.now sim in
      if node = 0 then begin
        if now >= spec.warmup_ns && now < horizon then begin
          incr writes_applied;
          per_ring_applied.(ring) <- per_ring_applied.(ring) + 1;
          Stats.add merge_wait (float_of_int (now - it.mi_applied_at) /. 1e3)
        end;
        let b = now / bin_ns in
        if b >= 0 && b < Array.length applied_bins then
          applied_bins.(b) <- applied_bins.(b) + 1
      end;
      match it.mi_op with
      | Op.Put { value; _ } | Op.Cas { value; _ } -> (
          match Hashtbl.find_opt in_flight.(node) value with
          | Some t0 ->
              Hashtbl.remove in_flight.(node) value;
              decr in_flight_total;
              let us = float_of_int (now - t0) /. 1e3 in
              Stats.add write_latency us;
              Metrics.observe m_latency us
          | None -> ())
      | _ -> ());
  (* ---------------- session population ---------------- *)
  let total_sessions = n * spec.sessions_per_node in
  let sessions =
    Array.init total_sessions (fun i ->
        {
          id = i;
          node = i mod n;
          daemon =
            Cluster.daemon cluster ~ring:(i / n mod rings) ~node:(i mod n);
          group = Printf.sprintf "g%03d" (i mod spec.n_groups);
          handle = None;
          gen = 0;
          counter = 0;
        })
  in
  let prng = Prng.create ~seed:(Int64.logxor spec.seed 0x6C6F6164L) in
  let zipf = Prng.zipf_table ~n:spec.key_space ~theta:spec.zipf_theta in
  let value_total =
    List.fold_left (fun a (_, w) -> a + w) 0 spec.value_mix
  in
  let draw_value_bytes () =
    let r = Prng.int prng value_total in
    let rec pick acc = function
      | [] -> 64
      | (bytes, w) :: rest ->
          if r < acc + w then bytes else pick (acc + w) rest
    in
    pick 0 spec.value_mix
  in
  let pad tag bytes =
    let len = max (String.length tag) bytes in
    let b = Bytes.make len '.' in
    Bytes.blit_string tag 0 b 0 (String.length tag);
    Bytes.to_string b
  in
  let key () = Printf.sprintf "k%05d" (Prng.zipf prng zipf) in
  (* A cross-shard pair: draw until the second key lands on a different
     ring (bounded — heavy skew can defeat it, a same-shard mcas is
     still a valid single-part commit). *)
  let cross_shard_pair () =
    let k1 = key () in
    let s1 = Cluster.shard_of_key cluster k1 in
    let rec other tries =
      let k2 = key () in
      if k2 <> k1 && (Cluster.shard_of_key cluster k2 <> s1 || tries >= 8) then
        k2
      else other (tries + 1)
    in
    (k1, other 0)
  in
  let connect_session ss =
    let h =
      Daemon.connect ss.daemon ~name:(Printf.sprintf "u%05d" ss.id) no_callbacks
    in
    Daemon.join ss.daemon h ss.group;
    ss.handle <- Some h;
    ss.gen <- ss.gen + 1;
    incr connected;
    if !connected > !sessions_peak then sessions_peak := !connected
  in
  let disconnect_session ss =
    match ss.handle with
    | None -> ()
    | Some h ->
        Daemon.disconnect ss.daemon h;
        ss.handle <- None;
        ss.gen <- ss.gen + 1;
        decr connected
  in
  (* One KV op per arrival, independent of any completion. Ops route to
     the key's ring at the session's node. *)
  let do_op ss now =
    let in_window = now >= spec.warmup_ns && now < horizon in
    if in_window then incr ops_offered;
    Metrics.incr m_offered;
    ss.counter <- ss.counter + 1;
    let node = ss.node in
    let key = key () in
    let r = Prng.int prng 1000 in
    let sync_edge = spec.read_permille + spec.sync_read_permille in
    let cas_edge = sync_edge + spec.cas_permille in
    let del_edge = cas_edge + spec.del_permille in
    let mcas_edge = del_edge + spec.mcas_permille in
    let tracked tag =
      let value =
        pad (Printf.sprintf "%s:%d:%d:" tag ss.id ss.counter) (draw_value_bytes ())
      in
      Hashtbl.replace in_flight.(node) value now;
      incr in_flight_total;
      value
    in
    if r < spec.read_permille then ignore (Cluster.read cluster ~node ~key)
    else if r < sync_edge then
      let t0 = now in
      Kv.sync_read
        (Cluster.kv cluster ~ring:(Cluster.shard_of_key cluster key) ~node)
        ~key
        ~on_result:(fun _ ~token:_ ->
          Stats.add sync_latency (float_of_int (Netsim.now sim - t0) /. 1e3))
    else begin
      if in_window then incr writes_offered;
      if r < cas_edge then begin
        let value = tracked "c" in
        let expect, _ = Cluster.read cluster ~node ~key in
        Cluster.cas cluster ~node ~key ~expect ~value
      end
      else if r < del_edge then Cluster.del cluster ~node ~key
      else if r < mcas_edge then begin
        let k1, k2 = cross_shard_pair () in
        let id = Printf.sprintf "m:%d:%d" ss.id ss.counter in
        let v1 = tracked "xa" in
        let v2 = tracked "xb" in
        Cluster.mcas cluster ~node ~id ~checks:[] ~writes:[ (k1, v1); (k2, v2) ]
      end
      else Cluster.put cluster ~node ~key ~value:(tracked "w")
    end
  in
  (* The open-loop arrival process: fire, then reschedule by the
     arrival law — never by completions. Disconnected slots keep their
     clock running (arrivals are skipped, not deferred). *)
  let rec arrive ss () =
    let now = Netsim.now sim in
    if now < horizon then begin
      let rate =
        Scenario.rate_at_schedule ~default:spec.ops_per_sec spec.load now
      in
      if rate <= 0.0 then Netsim.call_at sim ~at:(now + ms 1) (arrive ss)
      else begin
        (if ss.handle <> None then do_op ss now
         else begin
           incr ops_skipped;
           Metrics.incr m_skipped
         end);
        let mean_ns = 1e9 /. (rate /. float_of_int total_sessions) in
        let interval =
          match spec.arrival with
          | Poisson -> Prng.exponential prng ~mean:mean_ns
          | Periodic -> mean_ns
        in
        Netsim.call_at sim
          ~at:(now + max 1_000 (int_of_float interval))
          (arrive ss)
      end
    end
  in
  (* Background churn: exponential lifetimes, fixed reconnect delay. *)
  let rec schedule_lifetime ss ch =
    if ch.mean_lifetime_ns > 0 then begin
      let gen = ss.gen in
      let dt =
        Prng.exponential prng ~mean:(float_of_int ch.mean_lifetime_ns)
      in
      Netsim.call_at sim
        ~at:(Netsim.now sim + max (ms 1) (int_of_float dt))
        (fun () ->
          if ss.gen = gen && ss.handle <> None && Netsim.now sim < horizon
          then begin
            disconnect_session ss;
            Netsim.call_at sim
              ~at:(Netsim.now sim + ch.reconnect_delay_ns)
              (fun () ->
                if ss.handle = None then begin
                  connect_session ss;
                  incr reconnects;
                  Metrics.incr m_reconnects;
                  schedule_lifetime ss ch
                end)
          end)
    end
  in
  (* Staggered connect + arrival start: the whole population is up by
     60% of the warmup. *)
  let connect_spread = max 5_000 (spec.warmup_ns * 3 / 5 / total_sessions) in
  Array.iter
    (fun ss ->
      Netsim.call_at sim
        ~at:(500_000 + (ss.id * connect_spread))
        (fun () ->
          connect_session ss;
          Option.iter (schedule_lifetime ss) spec.churn;
          arrive ss ()))
    sessions;
  (* ---------------- reconnect storm ---------------- *)
  let storm = Option.bind spec.churn (fun c -> c.storm) in
  let storm_set =
    match storm with
    | None -> [||]
    | Some st -> Array.sub sessions 0 (min st.storm_sessions total_sessions)
  in
  let storm_end_ns =
    match storm with
    | None -> 0
    | Some st -> st.storm_at_ns + st.storm_window_ns + ms 1
  in
  let recovered_at = ref (-1) in
  let pre_storm_peak = ref 0 in
  Option.iter
    (fun st ->
      Netsim.call_at sim ~at:st.storm_at_ns (fun () ->
          pre_storm_peak := !queue_peak;
          Array.iter
            (fun ss ->
              if ss.handle <> None then begin
                disconnect_session ss;
                let back =
                  st.storm_at_ns + ms 1 + Prng.int prng (max 1 st.storm_window_ns)
                in
                Netsim.call_at sim ~at:back (fun () ->
                    if ss.handle = None then begin
                      connect_session ss;
                      incr reconnects;
                      Metrics.incr m_reconnects
                    end)
              end)
            storm_set))
    storm;
  (* ---------------- slow receivers ---------------- *)
  let slow_sessions = ref [] in
  let slow_inbox_peak = ref 0 in
  Option.iter
    (fun sl ->
      Array.iteri
        (fun p d ->
          for i = 0 to sl.slow_per_node - 1 do
            Netsim.call_at sim
              ~at:(200_000 + (((p * sl.slow_per_node) + i) * 7_000))
              (fun () ->
                let h =
                  Daemon.connect d
                    ~name:(Printf.sprintf "slow%d" i)
                    {
                      Daemon.on_message =
                        (fun ~sender:_ ~groups:_ _ _ ->
                          Metrics.incr m_slow_drained);
                      on_group_view = (fun ~group:_ ~members:_ -> ());
                    }
                in
                (* Subscribing to the KV group puts the ring's full
                   ordered write stream through this session. *)
                Daemon.join d h Kv.group;
                Daemon.set_slow_receiver d h true;
                slow_sessions := (d, h) :: !slow_sessions;
                let batch =
                  max 1 (int_of_float (sl.drain_per_sec *. 0.004))
                in
                let rec pump_tick () =
                  let now = Netsim.now sim in
                  if now < deadline then begin
                    ignore (Daemon.pump d h ~max:batch);
                    Netsim.call_at sim ~at:(now + ms 4) pump_tick
                  end
                in
                Netsim.call_at sim ~at:(Netsim.now sim + ms 4) pump_tick)
          done)
        daemons)
    spec.slow;
  (* ---------------- periodic sampler ---------------- *)
  let rec sample () =
    let now = Netsim.now sim in
    Metrics.set m_sessions (float_of_int !connected);
    Metrics.set m_queue (float_of_int !in_flight_total);
    if !in_flight_total > !queue_peak then queue_peak := !in_flight_total;
    Metrics.set m_queue_peak (float_of_int !queue_peak);
    let inbox_total =
      List.fold_left
        (fun acc (d, h) -> acc + Daemon.inbox_depth d h)
        0 !slow_sessions
    in
    if inbox_total > !slow_inbox_peak then slow_inbox_peak := inbox_total;
    Metrics.set m_slow_inbox (float_of_int inbox_total);
    (match storm with
    | Some _ when now > storm_end_ns && !recovered_at < 0 ->
        let all_back =
          Array.for_all (fun ss -> ss.handle <> None) storm_set
        in
        let threshold = max 32 (2 * !pre_storm_peak) in
        if all_back && !in_flight_total <= threshold then
          recovered_at := now
    | _ -> ());
    if now < deadline then Netsim.call_at sim ~at:(now + ms 2) sample
  in
  Netsim.call_at sim ~at:(ms 1) sample;
  (* ---------------- drive + drain ---------------- *)
  let pending () =
    let acc = ref 0 in
    for ring = 0 to rings - 1 do
      for node = 0 to n - 1 do
        acc := !acc + Kv.pending_sync_reads (Cluster.kv cluster ~ring ~node)
      done
    done;
    !acc
  in
  let all_mcas_decided () =
    List.for_all
      (fun (id, _, _) ->
        List.for_all
          (fun node ->
            (not (Cluster.alive cluster ~node))
            || Cluster.mcas_decided_at cluster ~node id)
          (List.init n Fun.id))
      (Cluster.mcas_ids cluster)
  in
  let converged () =
    Cluster.kv_converged cluster && Cluster.merge_settled cluster
  in
  let t = ref 0 in
  let stop = ref false in
  Fun.protect ~finally:Span.detach (fun () ->
      while not !stop do
        t := min deadline (!t + ms 25);
        Netsim.run_until sim !t;
        if !t >= deadline then stop := true
        else if
          !t > horizon && converged () && pending () = 0 && all_mcas_decided ()
        then stop := true
      done);
  Cluster.check_convergence cluster;
  Cluster.record_metrics cluster metrics;
  (* ---------------- storm SLOs ---------------- *)
  let rate_over a b =
    if b <= a then 0.0
    else begin
      let lo = a / bin_ns and hi = min (b / bin_ns) (Array.length applied_bins - 1) in
      let count = ref 0 in
      for i = lo to hi do
        count := !count + applied_bins.(i)
      done;
      float_of_int !count /. (float_of_int (b - a) /. 1e9)
    end
  in
  let storm_steady_rate, storm_rate, storm_degradation, storm_recovered_ms,
      storm_all_reconnected =
    match storm with
    | None -> (0.0, 0.0, 0.0, 0.0, true)
    | Some st ->
        let steady = rate_over spec.warmup_ns st.storm_at_ns in
        let during = rate_over st.storm_at_ns storm_end_ns in
        let degradation =
          if steady <= 0.0 then 1.0
          else Float.max 0.0 (Float.min 1.0 (1.0 -. (during /. steady)))
        in
        let recovered_ms =
          if !recovered_at < 0 then -1.0
          else float_of_int (!recovered_at - storm_end_ns) /. 1e6
        in
        ( steady,
          during,
          degradation,
          recovered_ms,
          Array.for_all (fun ss -> ss.handle <> None) storm_set )
  in
  let slow_inbox_end =
    List.fold_left
      (fun acc (d, h) -> acc + Daemon.inbox_depth d h)
      0 !slow_sessions
  in
  (* Summed over node 0's replicas, one per ring. *)
  let sum_node0 f =
    List.fold_left ( + ) 0
      (List.init rings (fun ring ->
           f (Kv.stats (Cluster.kv cluster ~ring ~node:0))))
  in
  let measure_s = float_of_int spec.measure_ns /. 1e9 in
  {
    spec;
    sessions_started = total_sessions;
    sessions_peak = !sessions_peak;
    reconnects = !reconnects;
    ops_offered = !ops_offered;
    ops_skipped = !ops_skipped;
    writes_offered = !writes_offered;
    writes_applied = !writes_applied;
    offered_write_rate = float_of_int !writes_offered /. measure_s;
    applied_write_rate = float_of_int !writes_applied /. measure_s;
    write_latency_us = write_latency;
    sync_read_latency_us = sync_latency;
    merge_wait_us = merge_wait;
    per_ring_applied;
    mcas_submitted = Cluster.mcas_submitted cluster;
    mcas_commits = sum_node0 (fun st -> st.Kv.mcas_commits);
    mcas_aborts = sum_node0 (fun st -> st.Kv.mcas_aborts);
    mcas_retries = Cluster.mcas_retries cluster;
    skip_credits_spent = sum_node0 (fun st -> st.Kv.skips);
    queue_depth_peak = !queue_peak;
    queue_depth_end = !in_flight_total;
    slow_inbox_peak = !slow_inbox_peak;
    slow_inbox_end;
    storm_steady_rate;
    storm_rate;
    storm_degradation;
    storm_recovered_ms;
    storm_all_reconnected;
    cluster;
    oracle_violations = Cluster.oracle_violations cluster;
    converged = converged ();
    end_ns = Netsim.now sim;
    metrics;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s: %d nodes, %d sessions (peak %d), %.0f ops/s offered@,\
    \  offered: %d ops (%d writes, %.0f/s), skipped %d; applied@node0: %d \
     (%.0f/s)@,\
    \  write latency p50=%.0fus p99=%.0fus p99.9=%.0fus; sync reads: %d \
     (p99=%.0fus)@,\
    \  open-loop queue: peak %d, end %d; slow inbox: peak %d, end %d@,\
    \  churn: %d reconnects%s@,\
    \  oracle: %d violation(s), converged=%b"
    r.spec.label r.spec.n_nodes r.sessions_started r.sessions_peak
    r.spec.ops_per_sec r.ops_offered r.writes_offered r.offered_write_rate
    r.ops_skipped r.writes_applied r.applied_write_rate
    (Stats.percentile r.write_latency_us 50.0)
    (Stats.percentile r.write_latency_us 99.0)
    (Stats.p999 r.write_latency_us)
    (Stats.count r.sync_read_latency_us)
    (Stats.percentile r.sync_read_latency_us 99.0)
    r.queue_depth_peak r.queue_depth_end r.slow_inbox_peak r.slow_inbox_end
    r.reconnects
    (match Option.bind r.spec.churn (fun c -> c.storm) with
    | None -> ""
    | Some _ ->
        Printf.sprintf
          "; storm: steady %.0f/s -> %.0f/s (degradation %.0f%%), recovered \
           %.1fms, all back=%b"
          r.storm_steady_rate r.storm_rate
          (100.0 *. r.storm_degradation)
          r.storm_recovered_ms r.storm_all_reconnected)
    r.oracle_violations r.converged;
  if r.spec.rings > 1 then
    Format.fprintf ppf
      "@,  rings: %d; merge wait p50=%.0fus p99=%.0fus; per-ring applied %s; \
       mcas %d (commit %d abort %d retry %d); skip credits %d"
      r.spec.rings
      (Stats.percentile r.merge_wait_us 50.0)
      (Stats.percentile r.merge_wait_us 99.0)
      (String.concat ","
         (Array.to_list (Array.map string_of_int r.per_ring_applied)))
      r.mcas_submitted r.mcas_commits r.mcas_aborts r.mcas_retries
      r.skip_credits_spent;
  (match Span.report_of_metrics r.metrics with
  | [] -> ()
  | stages ->
      Format.fprintf ppf "@,  latency by stage:";
      List.iter
        (fun (s : Span.stage_report) ->
          Format.fprintf ppf
            "@,    %-22s n=%-7d p50=%.1fus p99=%.1fus p99.9=%.1fus"
            s.Span.stage s.Span.count s.Span.p50_us s.Span.p99_us s.Span.p999_us)
        stages);
  Format.fprintf ppf "@]"
