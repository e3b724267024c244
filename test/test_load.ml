(* Workload-harness tests: the open-loop property itself (offered rate
   holds to schedule with and without completion backpressure), arrival
   pacing tolerance, fixed-seed determinism, and churn/storm behavior
   at a size small enough for the unit suite, at one ring and at two. The bench (`-- load`)
   exercises the full 2000-session scale; these tests pin semantics. *)

module Load = Aring_multiring.Load
module Stats = Aring_util.Stats

let check = Alcotest.check
let ms n = n * 1_000_000

(* Small but real: 4 daemons, 120 sessions, short windows. *)
let small_spec =
  {
    Load.default_spec with
    label = "load-test";
    sessions_per_node = 30;
    n_groups = 8;
    ops_per_sec = 3_000.0;
    key_space = 64;
    warmup_ns = ms 40;
    measure_ns = ms 150;
    drain_ns = ms 800;
    seed = 11L;
  }

let expected_ops (spec : Load.spec) =
  spec.Load.ops_per_sec *. (float_of_int spec.Load.measure_ns /. 1e9)

let check_clean (r : Load.result) =
  check Alcotest.int "no oracle violations" 0 r.Load.oracle_violations;
  check Alcotest.bool "converged" true r.Load.converged

(* Poisson arrivals hold the offered rate to within sampling noise. *)
let test_offered_rate_poisson () =
  let r = Load.run small_spec in
  check_clean r;
  check Alcotest.int "all sessions up" 120 r.Load.sessions_peak;
  let expect = expected_ops small_spec in
  let ratio = float_of_int r.Load.ops_offered /. expect in
  if ratio < 0.9 || ratio > 1.1 then
    Alcotest.failf "offered %d ops vs expected %.0f (ratio %.3f)"
      r.Load.ops_offered expect ratio

(* Periodic pacing has no sampling noise, only a per-session window
   quantization: each session contributes floor-or-ceil of
   window/interval arrivals depending on its connect phase. The bound
   is therefore ±1 op per session, plus a small scheduling slack. *)
let test_offered_rate_periodic () =
  let r = Load.run { small_spec with arrival = Load.Periodic } in
  check_clean r;
  let expect = expected_ops small_spec in
  let sessions = 4 * small_spec.Load.sessions_per_node in
  let slack = float_of_int sessions +. (0.02 *. expect) in
  let err = Float.abs (float_of_int r.Load.ops_offered -. expect) in
  if err > slack then
    Alcotest.failf "periodic offered %d ops vs expected %.0f (err %.0f > %.0f)"
      r.Load.ops_offered expect err slack

(* The defining open-loop property: arrivals never wait for
   completions. Split the cluster 2v2 for the whole measurement window
   — no side has a majority, so every write is rejected and nothing is
   applied — and the offered count must still hold to schedule while
   the in-flight queue grows without bound. A closed-loop generator
   would stall at its first unacknowledged write. *)
let test_backpressure_independence () =
  let horizon = small_spec.Load.warmup_ns + small_spec.Load.measure_ns in
  let r =
    Load.run
      {
        small_spec with
        label = "load-partitioned";
        partition =
          Some
            {
              Load.part_at_ns = ms 10;
              heal_at_ns = horizon + ms 50;
              island = [ 2; 3 ];
            };
      }
  in
  (* Offered load is on schedule despite a cluster that applies nothing. *)
  let expect = expected_ops small_spec in
  let ratio = float_of_int r.Load.ops_offered /. expect in
  if ratio < 0.9 || ratio > 1.1 then
    Alcotest.failf "offered %d ops vs expected %.0f under stall (ratio %.3f)"
      r.Load.ops_offered expect ratio;
  (* Nothing applied in the window: no primary component anywhere. *)
  if r.Load.writes_applied * 10 > r.Load.writes_offered then
    Alcotest.failf "expected ~0 applied writes, got %d of %d offered"
      r.Load.writes_applied r.Load.writes_offered;
  (* The open-loop queue kept growing instead of throttling arrivals. *)
  if r.Load.queue_depth_peak < 50 then
    Alcotest.failf "open-loop queue did not grow under stall (peak %d)"
      r.Load.queue_depth_peak;
  if r.Load.queue_depth_peak < 5 * small_spec.Load.sessions_per_node / 2 then
    Alcotest.failf "queue peak %d too small for a stalled open loop"
      r.Load.queue_depth_peak;
  (* After the heal the cluster still merges and converges; the
     rejected writes stay unapplied (view-synchronous semantics), which
     is why the queue residue is reported rather than asserted empty. *)
  check_clean r

(* Same spec, same seed: byte-equal behavior. *)
let test_fixed_seed_determinism () =
  let spec =
    {
      small_spec with
      label = "load-det";
      churn =
        Some
          {
            Load.mean_lifetime_ns = ms 80;
            reconnect_delay_ns = ms 3;
            storm = None;
          };
      slow = Some { Load.slow_per_node = 1; drain_per_sec = 500.0 };
    }
  in
  let a = Load.run spec and b = Load.run spec in
  check Alcotest.int "ops_offered" a.Load.ops_offered b.Load.ops_offered;
  check Alcotest.int "ops_skipped" a.Load.ops_skipped b.Load.ops_skipped;
  check Alcotest.int "writes_applied" a.Load.writes_applied
    b.Load.writes_applied;
  check Alcotest.int "reconnects" a.Load.reconnects b.Load.reconnects;
  check Alcotest.int "latency samples"
    (Stats.count a.Load.write_latency_us)
    (Stats.count b.Load.write_latency_us);
  check Alcotest.int "queue peak" a.Load.queue_depth_peak
    b.Load.queue_depth_peak;
  check Alcotest.int "slow inbox peak" a.Load.slow_inbox_peak
    b.Load.slow_inbox_peak;
  check Alcotest.int "end_ns" a.Load.end_ns b.Load.end_ns

(* A reconnect storm drops exactly the requested sessions and brings
   them all back inside the window; applied throughput survives. *)
let test_reconnect_storm () =
  let r =
    Load.run
      {
        small_spec with
        label = "load-storm-test";
        measure_ns = ms 200;
        churn =
          Some
            {
              Load.mean_lifetime_ns = 0;
              reconnect_delay_ns = ms 5;
              storm =
                Some
                  {
                    Load.storm_at_ns = ms 120;
                    storm_sessions = 40;
                    storm_window_ns = ms 15;
                  };
            };
      }
  in
  check_clean r;
  check Alcotest.int "storm reconnects" 40 r.Load.reconnects;
  check Alcotest.bool "all back" true r.Load.storm_all_reconnected;
  if r.Load.storm_recovered_ms < 0.0 then
    Alcotest.failf "storm never recovered (%.1f ms)" r.Load.storm_recovered_ms;
  if r.Load.storm_degradation >= 1.0 then
    Alcotest.failf "storm killed throughput entirely (degradation %.2f)"
      r.Load.storm_degradation;
  (* Disconnected sessions skip arrivals instead of deferring them. *)
  if r.Load.ops_skipped = 0 then
    Alcotest.fail "expected skipped arrivals during the storm downtime"

(* Background churn keeps turning sessions over without losing
   correctness; some arrivals land in downtime windows. *)
let test_background_churn () =
  let r =
    Load.run
      {
        small_spec with
        label = "load-churn-test";
        churn =
          Some
            {
              Load.mean_lifetime_ns = ms 60;
              reconnect_delay_ns = ms 4;
              storm = None;
            };
      }
  in
  check_clean r;
  if r.Load.reconnects = 0 then
    Alcotest.fail "expected churn reconnects with a 60 ms mean lifetime";
  if r.Load.writes_applied = 0 then
    Alcotest.fail "churn starved the workload entirely"

(* Every dimension at two rings at once: background churn, a reconnect
   storm, slow receivers and a partition window that cuts node 3 off in
   both rings and heals before the horizon. *)
let two_ring_everything =
  {
    small_spec with
    label = "load-2r-everything";
    rings = 2;
    sessions_per_node = 20;
    mcas_permille = 20;
    measure_ns = ms 200;
    churn =
      Some
        {
          Load.mean_lifetime_ns = ms 80;
          reconnect_delay_ns = ms 4;
          storm =
            Some
              {
                Load.storm_at_ns = ms 130;
                storm_sessions = 20;
                storm_window_ns = ms 15;
              };
        };
    slow = Some { Load.slow_per_node = 1; drain_per_sec = 500.0 };
    partition =
      Some { Load.part_at_ns = ms 70; heal_at_ns = ms 110; island = [ 3 ] };
  }

let test_two_rings_every_dimension () =
  let a = Load.run two_ring_everything in
  check_clean a;
  if a.Load.reconnects < 20 then
    Alcotest.failf "expected churn + storm reconnects, got %d" a.Load.reconnects;
  check Alcotest.bool "storm sessions all back" true a.Load.storm_all_reconnected;
  if a.Load.slow_inbox_peak = 0 then
    Alcotest.fail "slow receivers never queued anything";
  check Alcotest.bool "both rings carried load" true
    (Array.for_all (fun c -> c > 0) a.Load.per_ring_applied);
  let b = Load.run two_ring_everything in
  check Alcotest.int "ops_offered" a.Load.ops_offered b.Load.ops_offered;
  check Alcotest.int "ops_skipped" a.Load.ops_skipped b.Load.ops_skipped;
  check Alcotest.int "writes_applied" a.Load.writes_applied
    b.Load.writes_applied;
  check Alcotest.int "reconnects" a.Load.reconnects b.Load.reconnects;
  check Alcotest.int "latency samples"
    (Stats.count a.Load.write_latency_us)
    (Stats.count b.Load.write_latency_us);
  check Alcotest.int "slow inbox peak" a.Load.slow_inbox_peak
    b.Load.slow_inbox_peak;
  check Alcotest.int "mcas commits" a.Load.mcas_commits b.Load.mcas_commits;
  check Alcotest.int "end_ns" a.Load.end_ns b.Load.end_ns

(* One ring, one session per node, the last node cut away and healed
   under load: writes and sync reads complete, the minority rejoins by
   snapshot state transfer and the replicas re-converge. *)
let test_one_ring_partition_transfer () =
  let r =
    Load.run
      {
        small_spec with
        label = "load-1r-partition";
        sessions_per_node = 1;
        n_groups = 1;
        arrival = Load.Periodic;
        measure_ns = ms 200;
        drain_ns = ms 1_500;
        partition =
          Some { Load.part_at_ns = ms 60; heal_at_ns = ms 140; island = [ 3 ] };
      }
  in
  check_clean r;
  check Alcotest.bool "applied writes" true (r.Load.writes_applied > 0);
  check Alcotest.bool "measured write latency" true
    (Stats.count r.Load.write_latency_us > 0);
  check Alcotest.bool "measured sync reads" true
    (Stats.count r.Load.sync_read_latency_us > 0);
  if r.Load.installs < 1 then
    Alcotest.failf "expected a state transfer after the heal, got %d installs"
      r.Load.installs

(* Pinned figures of the single-ring transfer measurement: the one-ring
   Cluster rebuild must be the exact same stack, to the nanosecond. *)
let test_measure_transfer_pinned () =
  let t = Load.measure_transfer ~store_entries:100 in
  check Alcotest.int "entries" 164 t.Load.entries_transferred;
  check Alcotest.int "bytes" 14076 t.Load.bytes_transferred;
  check (Alcotest.float 0.0) "xfer_us" 614.212 t.Load.xfer_us;
  check Alcotest.int "installs" 1 t.Load.total_installs

let test_invalid_specs () =
  let rejects name msg spec =
    Alcotest.check_raises name (Invalid_argument ("Load.run: " ^ msg))
      (fun () -> ignore (Load.run spec))
  in
  rejects "zero sessions" "sessions_per_node < 1"
    { small_spec with sessions_per_node = 0 };
  rejects "empty value mix" "empty value_mix" { small_spec with value_mix = [] };
  rejects "zero rings" "rings < 1" { small_spec with rings = 0 };
  rejects "negative reads" "negative op-mix permille"
    { small_spec with read_permille = -1 };
  rejects "negative dels" "negative op-mix permille"
    { small_spec with rings = 2; del_permille = -5 };
  rejects "negative mcas" "negative op-mix permille"
    { small_spec with rings = 2; mcas_permille = -1 };
  rejects "mix above 1000" "op mix exceeds 1000 permille"
    { small_spec with read_permille = 900; cas_permille = 200 };
  rejects "mix above 1000 with mcas" "op mix exceeds 1000 permille"
    { small_spec with rings = 2; mcas_permille = 600 };
  rejects "mcas at one ring" "mcas needs rings > 1"
    { small_spec with mcas_permille = 10 };
  rejects "link to no node" "link node out of range"
    {
      small_spec with
      rings = 2;
      links = [ { Load.l_node = 4; l_up_bps = Some 1_000_000; l_down_bps = None } ];
    };
  rejects "geo classes short" "geo classes must cover n_nodes"
    {
      small_spec with
      geo = Some { Load.classes = [| 0; 1 |]; latency_matrix = [| [| 0 |] |] };
    };
  rejects "partition island off the cluster" "partition island node out of range"
    {
      small_spec with
      partition =
        Some { Load.part_at_ns = ms 10; heal_at_ns = ms 50; island = [ 4 ] };
    };
  rejects "partition heals before cut" "partition heals at or before its cut"
    {
      small_spec with
      partition =
        Some { Load.part_at_ns = ms 50; heal_at_ns = ms 50; island = [ 3 ] };
    }

let suite =
  [
    Alcotest.test_case "offered rate holds (poisson)" `Quick
      test_offered_rate_poisson;
    Alcotest.test_case "offered rate holds (periodic)" `Quick
      test_offered_rate_periodic;
    Alcotest.test_case "arrivals independent of backpressure" `Quick
      test_backpressure_independence;
    Alcotest.test_case "fixed seed is deterministic" `Quick
      test_fixed_seed_determinism;
    Alcotest.test_case "reconnect storm drains and recovers" `Quick
      test_reconnect_storm;
    Alcotest.test_case "background churn keeps converging" `Quick
      test_background_churn;
    Alcotest.test_case "two rings with churn, storm, slow receivers, partition"
      `Quick test_two_rings_every_dimension;
    Alcotest.test_case "one-ring partition transfers state" `Quick
      test_one_ring_partition_transfer;
    Alcotest.test_case "transfer measurement pinned" `Quick
      test_measure_transfer_pinned;
    Alcotest.test_case "invalid specs rejected" `Quick test_invalid_specs;
  ]
