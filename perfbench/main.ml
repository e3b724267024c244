(* One benchmark command for the whole stack.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: kv-sessions, ring-saturate, partition-heal (simulated) and
   udp-loopback (real sockets). With --trace 0 the run prints the
   end-to-end metrics; with --trace 1 it pairs each untraced repetition
   with a traced one of the same input and prints the per-layer metrics.
   Either way the last line of standard output is one JSON object, and a
   wrong output (oracle violation, divergence, unconverged replica)
   makes the run exit 1. See README.md for the metric definitions. *)

open Perfbench
module Stats = Aring_util.Stats

(* Repetitions whose virtual-time results are pooled: fixed per
   workload, so vt.* figures depend on the seed alone. Later repetitions
   (while --seconds lasts) add host-time samples only. *)
let vt_reps = function
  | "kv-sessions" -> 3
  | "ring-saturate" -> 4
  | "partition-heal" -> 4
  | _ -> 3

let workloads = [ "kv-sessions"; "ring-saturate"; "partition-heal"; "udp-loopback" ]

let rep_seed seed k = Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int k)

let percentile l p =
  let s = Stats.create () in
  List.iter (Stats.add s) l;
  if Stats.count s = 0 then 0.0 else Stats.percentile s p

let median l = percentile l 50.0
let fsum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let isum f l = List.fold_left (fun a x -> a + f x) 0 l
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---------------------------------------------------------------- *)
(* Output *)

type metric = { name : string; value : float; unit : string; clock : string; n : int }

let m ?(n = 1) name unit clock value = { name; value; unit; clock; n }

let print_metric x =
  Printf.printf "  %-28s %16.4f %-6s clock=%-4s n=%d\n" x.name x.value x.unit x.clock x.n

let json_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

(* ---------------------------------------------------------------- *)
(* Repetition loop *)

(* Fixed reference work that runs no code under test: hash-table churn
   over small allocated blocks. It is timed in process CPU eight times
   before the first repetition, once before every repetition and eight
   times after the last; the median says how fast the host ran during
   this run. host.cpu_ns_per_write and setup_s are scaled by it to a
   nominal host speed, so host drift between runs cancels while a change
   to the stack's own code does not; the unscaled figures are printed
   too. *)
let refs = ref []

let reference_cpu_s () =
  let c0 = Sys.time () in
  let h = Hashtbl.create 8192 in
  let acc = ref 0 in
  for i = 0 to 150_000 do
    Hashtbl.replace h (i land 8191) (Bytes.make 48 'x', i);
    match Hashtbl.find_opt h ((i * 7919) land 8191) with
    | Some (_, v) -> acc := !acc + v
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  Sys.time () -. c0

(* The reference's CPU time on a quiet run of the host the bounds were
   set on (Intel Xeon, 2 vCPUs, OCaml 5.1.1). *)
let reference_nominal_s = 0.020

let calibrate n = for _ = 1 to n do refs := reference_cpu_s () :: !refs done
let host_scale () = reference_nominal_s /. median !refs

(* Heap peak after the first [min_reps] repetitions: those run the same
   inputs for a seed, so the figure does not depend on how many more
   repetitions fit in --seconds. *)
let heap_peak_mb = ref 0.0

(* Run [rep k] for k = 0, 1, ... until at least [min_reps] are done and
   [seconds] of wall time have passed. *)
let repeat ~min_reps ~seconds rep =
  calibrate 8;
  let t0 = Unix.gettimeofday () in
  let rec go k acc =
    if k = min_reps then
      heap_peak_mb :=
        float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0;
    if k >= min_reps && Unix.gettimeofday () -. t0 >= seconds then begin
      calibrate 8;
      List.rev acc
    end
    else begin
      refs := reference_cpu_s () :: !refs;
      go (k + 1) (rep k :: acc)
    end
  in
  go 0 []

let take n l = List.filteri (fun i _ -> i < n) l

(* ---------------------------------------------------------------- *)
(* End-to-end metrics *)

let cpu_per_write_sim (r : Simwl.rep) = r.cpu_s *. 1e9 /. float_of_int (max 1 r.writes_applied)
let cpu_per_write_udp (r : Udpwl.rep) = r.cpu_s *. 1e9 /. float_of_int (max 1 r.writes_applied)

let sim_e2e spec ~reps =
  let vt = List.map (fun (r : Simwl.rep) -> r.vt) (take (vt_reps spec.Simwl.name) reps) in
  let lat = List.concat_map (fun v -> v.Simwl.write_lat_us) vt in
  let sync = List.concat_map (fun v -> v.Simwl.sync_lat_us) vt in
  let applied = isum (fun v -> v.Simwl.applied_in_window) vt in
  let window_s = fsum (fun v -> float_of_int v.Simwl.window_ns /. 1e9) vt in
  let n_lat = List.length lat and n_reps = List.length reps in
  let setup = median (List.map (fun (r : Simwl.rep) -> r.setup_s) reps) in
  let cpu = median (List.map cpu_per_write_sim reps) in
  let gated =
    [
      m ~n:n_reps "setup_s" "s" "wall" (host_scale () *. setup);
      m ~n:n_lat "vt.write_p50_us" "us" "vt" (percentile lat 50.0);
      m ~n:n_lat "vt.write_p99_us" "us" "vt" (percentile lat 99.0);
      m ~n:applied "vt.applied_writes_per_s" "1/s" "vt" (ratio (float_of_int applied) window_s);
      m ~n:n_reps "host.cpu_ns_per_write" "ns" "host"
        (host_scale () *. cpu);
      m "host.heap_peak_mb" "MB" "host" !heap_peak_mb;
    ]
  in
  let n_vt = List.length vt in
  let extra =
    m ~n:n_reps "setup_s.unscaled" "s" "wall" setup
    :: m ~n:n_reps "host.cpu_ns_per_write.unscaled" "ns" "host" cpu
    :: (if sync = [] then []
     else [ m ~n:(List.length sync) "vt.sync_read_p99_us" "us" "vt" (percentile sync 99.0) ])
    @ [
        m ~n:n_vt "vt.unavailable_ms" "ms" "vt"
          (median (List.map (fun v -> float_of_int v.Simwl.unavailable_ns /. 1e6) vt));
      ]
    @
    if List.exists (fun v -> v.Simwl.catchup_ns >= 0) vt then
      [
        m ~n:n_vt "vt.catchup_ms" "ms" "vt"
          (median (List.map (fun v -> float_of_int v.Simwl.catchup_ns /. 1e6) vt));
      ]
    else []
  in
  (gated, extra)

let udp_e2e ~reps =
  let med f = median (List.map f reps) in
  let n_reps = List.length reps in
  let n_lat = isum (fun (r : Udpwl.rep) -> List.length r.lat_us) reps in
  let gated =
    [
      m ~n:n_reps "setup_s" "s" "wall" (host_scale () *. med (fun (r : Udpwl.rep) -> r.setup_s));
      m ~n:n_lat "wall.write_p50_us" "us" "wall" (med (fun r -> percentile r.Udpwl.lat_us 50.0));
      m ~n:n_lat "wall.write_p99_us" "us" "wall" (med (fun r -> percentile r.Udpwl.lat_us 99.0));
      m ~n:n_reps "wall.applied_writes_per_s" "1/s" "wall" (med (fun r -> r.Udpwl.over_per_s));
      m ~n:n_reps "host.cpu_ns_per_write" "ns" "host" (host_scale () *. med cpu_per_write_udp);
      m "host.heap_peak_mb" "MB" "host" !heap_peak_mb;
    ]
  in
  let extra =
    [
      m ~n:n_reps "setup_s.unscaled" "s" "wall" (med (fun (r : Udpwl.rep) -> r.setup_s));
      m ~n:n_reps "host.cpu_ns_per_write.unscaled" "ns" "host" (med cpu_per_write_udp);
      m ~n:n_reps "wall.unavailable_ms" "ms" "wall" (med (fun r -> r.Udpwl.unavailable_ms));
    ]
  in
  (gated, extra)

(* ---------------------------------------------------------------- *)
(* Per-layer metrics *)

let zero_layers names = List.map (fun (n, u) -> m n u "host" 0.0) names

let sim_names =
  [ ("sim.self_ns_per_packet", "ns"); ("sim.packets_per_write", "count"); ("sim.switch_drop_ratio", "ratio") ]

let recovery_names =
  [
    ("recovery.reform_ms", "ms");
    ("recovery.formation_attempts", "count");
    ("recovery.floods", "count");
    ("recovery.dedup_saved_ratio", "ratio");
  ]

let merge_names =
  [
    ("merge.wait_p99_us", "us");
    ("merge.blocked_peak", "count");
    ("merge.credits_per_item", "count");
    ("merge.ns_per_item", "ns");
  ]

(* The simulator never encodes, so on simulated workloads the wire and
   transport layers are timed by replaying the traced run's captured
   message mix: through a Message.Pool, and from one Udp_runtime to
   another over loopback. *)
let replay_layers captured ~datagrams_per_write =
  let n = float_of_int (Array.length captured) in
  let enc, dec, bytes = Udpwl.wire_cost captured in
  let ns, received, errors = Udpwl.transport_replay captured in
  [
    m "wire.encode_ns_per_msg" "ns" "host" (ratio (float_of_int enc) n);
    m "wire.decode_ns_per_msg" "ns" "host" (ratio (float_of_int dec) n);
    m "wire.alloc_bytes_per_msg" "B" "host" (ratio bytes n);
    m "udp.self_ns_per_packet" "ns" "host" (ratio (float_of_int ns) (float_of_int received));
    m "udp.packets_per_write" "count" "vt" datagrams_per_write;
    m "udp.decode_errors" "count" "host" (float_of_int errors);
  ]

let sim_layers ~pairs =
  let ls = List.map (fun (_, (t : Simwl.rep)) -> Option.get t.layers) pairs in
  let reps = float_of_int (List.length ls) in
  let fi f = float_of_int (isum f ls) in
  let writes = float_of_int (isum (fun (_, (t : Simwl.rep)) -> t.writes_applied) pairs) in
  let packets = fi (fun l -> l.Simwl.l_packets) in
  let msgs = fi (fun l -> l.l_stack_msgs) in
  let floods = fi (fun l -> l.l_floods) and saved = fi (fun l -> l.l_dedup_saved) in
  let items = fi (fun l -> l.l_merge_items) in
  let self = fi (fun l -> l.l_sim_self_ns + l.l_stack_self_ns + l.l_gen_ns + l.l_kv_ns + l.l_cb_ns + l.l_join_ns) in
  [
    m "sim.self_ns_per_packet" "ns" "host" (ratio (fi (fun l -> l.l_sim_self_ns)) packets);
    m "sim.packets_per_write" "count" "vt" (ratio packets writes);
    m "sim.switch_drop_ratio" "ratio" "vt" (ratio (fi (fun l -> l.l_switch_drops)) packets);
    m "stack.self_ns_per_msg" "ns" "host" (ratio (fi (fun l -> l.l_stack_self_ns)) msgs);
    m "stack.alloc_bytes_per_msg" "B" "host" (ratio (fsum (fun l -> l.Simwl.l_stack_bytes) ls) msgs);
    m "daemon.join_ns_per_session" "ns" "host"
      (ratio (fi (fun l -> l.l_join_ns)) (fi (fun l -> l.l_sessions)));
    m "daemon.deliveries_per_write" "count" "vt" (ratio (fi (fun l -> l.l_client_deliveries)) writes);
    m "daemon.envelopes_per_pack" "count" "vt"
      (ratio (fi (fun l -> l.l_envelopes_packed)) (fi (fun l -> l.l_packs)));
    m "ring.rounds_per_s" "1/s" "vt"
      (ratio (fi (fun l -> l.l_tokens_node0)) (fsum (fun l -> float_of_int l.Simwl.l_vt_ns /. 1e9) ls));
    m "ring.retrans_per_write" "count" "vt" (ratio (fi (fun l -> l.l_retrans)) writes);
    m "ring.bytes_sent_per_write" "B" "vt" (ratio (fi (fun l -> l.l_bytes_sent)) writes);
    m "recovery.reform_ms" "ms" "vt" (fi (fun l -> l.l_reform_ns) /. 1e6 /. reps);
    m "recovery.formation_attempts" "count" "vt" (fi (fun l -> l.l_formation_attempts) /. reps);
    m "recovery.floods" "count" "vt" (floods /. reps);
    m "recovery.dedup_saved_ratio" "ratio" "vt" (ratio saved (saved +. floods));
    m "kv.call_ns" "ns" "host" (ratio (fi (fun l -> l.l_kv_ns)) (fi (fun l -> l.l_kv_calls)));
    m "kv.transfer_entries" "count" "vt" (fi (fun l -> l.l_transfer_entries) /. reps);
    m "kv.rejected_writes" "count" "vt" (fi (fun l -> l.l_rejected) /. reps);
    m "merge.wait_p99_us" "us" "vt" (percentile (List.concat_map (fun l -> l.Simwl.l_merge_wait_us) ls) 99.0);
    m "merge.blocked_peak" "count" "vt"
      (float_of_int (List.fold_left (fun a l -> max a l.Simwl.l_merge_blocked_peak) 0 ls));
    m "merge.credits_per_item" "count" "vt" (ratio (fi (fun l -> l.l_merge_credits)) items);
    m "merge.ns_per_item" "ns" "host" (ratio (fi (fun l -> l.l_merge_replay_ns)) items);
  ]
  @ replay_layers (List.hd ls).l_captured
      ~datagrams_per_write:(ratio (fi (fun l -> l.l_datagrams)) writes)
  @ [
      m "bench.gen_late_max_us" "us" "vt" 0.0;
      m "bench.queue_depth_peak" "count" "vt"
        (float_of_int (List.fold_left (fun a (_, (t : Simwl.rep)) -> max a t.queue_peak) 0 pairs));
      m "trace.unattributed_ratio" "ratio" "host"
        (1.0 -. ratio self (fi (fun l -> l.l_measured_ns)));
    ]

let udp_layers ~pairs =
  let ls = List.map (fun (_, (t : Udpwl.rep)) -> Option.get t.layers) pairs in
  let fi f = float_of_int (isum f ls) in
  let writes = float_of_int (isum (fun (_, (t : Udpwl.rep)) -> t.writes_applied) pairs) in
  let packets = fi (fun l -> l.Udpwl.u_packets) in
  let msgs = fi (fun l -> l.u_stack_msgs) in
  let wire = fi (fun l -> l.u_wire_msgs) in
  let self = fi (fun l -> l.u_self_ns + l.u_stack_self_ns + l.u_kv_ns + l.u_gen_ns + l.u_cb_ns) in
  zero_layers sim_names
  @ [
      m "stack.self_ns_per_msg" "ns" "host" (ratio (fi (fun l -> l.u_stack_self_ns)) msgs);
      m "stack.alloc_bytes_per_msg" "B" "host" (ratio (fsum (fun l -> l.Udpwl.u_stack_bytes) ls) msgs);
      m "daemon.join_ns_per_session" "ns" "host" 0.0;
      m "daemon.deliveries_per_write" "count" "wall" (ratio (fi (fun l -> l.u_client_deliveries)) writes);
      m "daemon.envelopes_per_pack" "count" "wall" 0.0;
      m "ring.rounds_per_s" "1/s" "wall"
        (ratio (fi (fun l -> l.u_tokens_node0)) (fi (fun l -> l.u_measured_ns) /. 1e9));
      m "ring.retrans_per_write" "count" "wall" (ratio (fi (fun l -> l.u_retrans)) writes);
      m "ring.bytes_sent_per_write" "B" "wall" (ratio (fi (fun l -> l.u_bytes_sent)) writes);
    ]
  @ zero_layers recovery_names
  @ [
      m "kv.call_ns" "ns" "host" (ratio (fi (fun l -> l.u_kv_ns)) (fi (fun l -> l.u_kv_calls)));
      m "kv.transfer_entries" "count" "wall" 0.0;
      m "kv.rejected_writes" "count" "wall" (fi (fun l -> l.u_rejected) /. float_of_int (List.length ls));
    ]
  @ zero_layers merge_names
  @ [
      m "wire.encode_ns_per_msg" "ns" "host" (ratio (fi (fun l -> l.u_encode_ns)) wire);
      m "wire.decode_ns_per_msg" "ns" "host" (ratio (fi (fun l -> l.u_decode_ns)) wire);
      m "wire.alloc_bytes_per_msg" "B" "host" (ratio (fsum (fun l -> l.Udpwl.u_wire_bytes) ls) wire);
      m "udp.self_ns_per_packet" "ns" "host" (ratio (fi (fun l -> l.u_self_ns)) packets);
      m "udp.packets_per_write" "count" "wall" (ratio packets writes);
      m "udp.decode_errors" "count" "wall" (fi (fun l -> l.u_decode_errors));
      m "bench.gen_late_max_us" "us" "wall"
        (List.fold_left (fun a (_, (t : Udpwl.rep)) -> Float.max a t.late_max_us) 0.0 pairs);
      m "bench.queue_depth_peak" "count" "wall"
        (float_of_int (List.fold_left (fun a (_, (t : Udpwl.rep)) -> max a t.queue_peak) 0 pairs));
      m "trace.unattributed_ratio" "ratio" "host"
        (1.0 -. ratio self (fi (fun l -> l.u_measured_ns)));
    ]

(* ---------------------------------------------------------------- *)
(* Command line *)

let host_facts () =
  Printf.printf "host: nproc=%d ocaml=%s word=%d load-generator-threads=1\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version Sys.word_size


(* Returns (metrics, extra metrics, attempted, failed). *)
let run_workload ~workload ~seed ~seconds ~trace =
  match workload with
  | "udp-loopback" ->
      let rep ~traced k = Udpwl.run_rep ~traced ~seed:(rep_seed seed k) () in
      if not trace then
        let reps = repeat ~min_reps:(vt_reps workload) ~seconds (rep ~traced:false) in
        let gated, extra = udp_e2e ~reps in
        (gated, extra, isum (fun (r : Udpwl.rep) -> r.attempted) reps,
         isum (fun (r : Udpwl.rep) -> r.failed) reps)
      else
        let pairs =
          repeat ~min_reps:1 ~seconds (fun k -> (rep ~traced:false k, rep ~traced:true k))
        in
        let overhead =
          ratio
            (median (List.map (fun (_, t) -> cpu_per_write_udp t) pairs))
            (median (List.map (fun (u, _) -> cpu_per_write_udp u) pairs))
        in
        let all = List.concat_map (fun (u, t) -> [ u; t ]) pairs in
        ( udp_layers ~pairs @ [ m "trace.overhead_ratio" "ratio" "host" overhead ],
          [],
          isum (fun (r : Udpwl.rep) -> r.attempted) all,
          isum (fun (r : Udpwl.rep) -> r.failed) all )
  | name -> (
      match List.find_opt (fun s -> s.Simwl.name = name) Simwl.specs with
      | None ->
          Printf.eprintf "unknown workload %S (one of: %s)\n" name (String.concat ", " workloads);
          exit 2
      | Some spec ->
          let rep ~traced k = Simwl.run_rep ~traced spec ~seed:(rep_seed seed k) in
          if not trace then
            let reps = repeat ~min_reps:(vt_reps name) ~seconds (rep ~traced:false) in
            let gated, extra = sim_e2e spec ~reps in
            (gated, extra, isum (fun (r : Simwl.rep) -> r.attempted) reps,
             isum (fun (r : Simwl.rep) -> r.failed) reps)
          else
            let pairs =
              repeat ~min_reps:1 ~seconds (fun k ->
                  let u = rep ~traced:false k and t = rep ~traced:true k in
                  if u.vt <> t.vt then
                    raise (Simwl.Incorrect (name ^ ": tracing changed virtual-time results"));
                  (u, t))
            in
            let overhead =
              ratio
                (median (List.map (fun (_, t) -> cpu_per_write_sim t) pairs))
                (median (List.map (fun (u, _) -> cpu_per_write_sim u) pairs))
            in
            let all = List.concat_map (fun (u, t) -> [ u; t ]) pairs in
            ( sim_layers ~pairs @ [ m "trace.overhead_ratio" "ratio" "host" overhead ],
              [],
              isum (fun (r : Simwl.rep) -> r.attempted) all,
              isum (fun (r : Simwl.rep) -> r.failed) all ))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N seed of the arrival schedule");
      ("--seconds", Arg.Set_float seconds, "S minimum measured wall time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  Random.self_init ();
  host_facts ();
  Printf.printf "workload=%s seed=%d seconds=%g trace=%d\n%!" !workload !seed !seconds !trace;
  match
    run_workload ~workload:!workload ~seed:(Int64.of_int !seed) ~seconds:!seconds
      ~trace:(!trace = 1)
  with
  | metrics, extra, attempted, failed ->
      List.iter print_metric metrics;
      if extra <> [] then begin
        print_endline "  also measured, not in BENCHMARK.json:";
        List.iter print_metric extra
      end;
      Printf.printf "host: reference_cpu_ms median=%.3f min=%.3f max=%.3f n=%d\n"
        (1e3 *. median !refs) (1e3 *. List.fold_left Float.min 1e9 !refs)
        (1e3 *. List.fold_left Float.max 0.0 !refs) (List.length !refs);
      Printf.printf "failed_ops_ratio=%.6f (%d of %d)\n"
        (ratio (float_of_int failed) (float_of_int attempted)) failed attempted;
      print_endline (json_result ~correct:true ~attempted ~failed metrics)
  | exception Simwl.Incorrect msg ->
      Printf.printf "INCORRECT: %s\n" msg;
      print_endline (json_result ~correct:false ~attempted:1 ~failed:1 []);
      exit 1
