(** Production workload harness: open-loop client sessions at scale.

    Drives thousands of daemon client sessions against the replicated KV
    stack of a {!Cluster} of [rings] rings (1 = the classic single-ring
    deployment) in simulation. The generator is {e open-loop}: each session
    has its own arrival process (Poisson or periodic) whose firing never
    waits for completions — a stalled cluster makes the in-flight queue
    grow, it does not throttle the offered load. That is the regime
    production systems die in, and the one closed-loop benches cannot
    reach.

    Dimensions beyond the existing benches and the fuzzer:

    - {b Sessions}: [sessions_per_node] real {!Aring_daemon.Daemon}
      sessions per daemon, spread over [n_groups] groups, so membership
      state, union routing and Join/Leave traffic are at production
      scale. Session [i] lives on node [i mod n_nodes] of ring
      [(i / n_nodes) mod rings]; its KV ops route by key shard to the
      owning ring at its node, and [mcas_permille] of them are
      cross-shard multi-key cas (multi-ring only).
    - {b Skew}: Zipf(θ) key popularity over [key_space] keys
      ({!Aring_util.Prng.zipf}), a weighted mix of op types and value
      sizes.
    - {b Churn}: exponential session lifetimes with reconnects, plus a
      {!storm} — a mass disconnect with reconnects spread over a short
      window, the classic reconnect storm.
    - {b Slow receivers}: extra sessions subscribed to the KV group
      that drain through {!Aring_daemon.Daemon.pump} at a bounded rate,
      exercising head-of-line isolation.
    - {b Network asymmetry}: per-node link-rate overrides and a WAN/geo
      latency-class matrix ({!Aring_sim.Netsim.set_latency_classes}).
      Links, classes and partitions name physical nodes and apply to
      that node's participant in every ring.
    - {b Shapes}: diurnal/step/ramp/square offered-rate schedules via
      {!Aring_harness.Scenario} builders.

    Every run carries the KV consistency oracle; results surface the
    SLO inputs the [load] bench gates on: p99/p99.9 write latency,
    offered vs. applied rate, open-loop queue depth, storm degradation
    and post-storm recovery time. *)

open Aring_ring
open Aring_sim
module Stats = Aring_util.Stats
module Metrics = Aring_obs.Metrics

(** Per-session arrival process. [Poisson] draws exponential
    inter-arrival gaps (memoryless, bursty); [Periodic] fires at the
    exact mean interval (deterministic pacing). *)
type arrival = Poisson | Periodic

type storm = {
  storm_at_ns : int;  (** Mass disconnect instant. *)
  storm_sessions : int;  (** How many sessions drop (capped to the population). *)
  storm_window_ns : int;
      (** Reconnects are spread uniformly over this window after the
          disconnect. *)
}

type churn = {
  mean_lifetime_ns : int;
      (** Mean exponential session lifetime; 0 disables background
          churn. *)
  reconnect_delay_ns : int;  (** Downtime before a churned session returns. *)
  storm : storm option;
}

type slow_spec = {
  slow_per_node : int;  (** Slow-receiver sessions per daemon. *)
  drain_per_sec : float;  (** Their bounded drain rate, messages/s each. *)
}

type geo = {
  classes : int array;  (** Node → latency class (length [n_nodes]). *)
  latency_matrix : int array array;  (** Extra one-way ns, class × class. *)
}

type link = { l_node : int; l_up_bps : int option; l_down_bps : int option }

type spec = {
  label : string;
  n_nodes : int;
  net : Profile.net;
  tier : Profile.tier;
  params : Params.t;
  sessions_per_node : int;
  n_groups : int;  (** Sessions join group [i mod n_groups]. *)
  arrival : arrival;
  ops_per_sec : float;  (** Aggregate offered rate across all sessions. *)
  load : (int * float) list;
      (** Piecewise-constant rate schedule (ops/sec), reusing the
          {!Aring_harness.Scenario} step/ramp/square builders. *)
  key_space : int;
  zipf_theta : float;
  value_mix : (int * int) list;  (** [(bytes, weight)] value-size mix. *)
  read_permille : int;
  sync_read_permille : int;
  cas_permille : int;
  del_permille : int;
  mcas_permille : int;
      (** Cross-shard multi-key cas share; needs [rings > 1]. Whatever
          the five permilles leave of 1000 is puts. *)
  rings : int;  (** Ordering rings; 1 = the classic single-ring run. *)
  churn : churn option;
  slow : slow_spec option;
  geo : geo option;
  links : link list;
  partition : Aring_app.Kv_scenario.partition option;
  warmup_ns : int;
  measure_ns : int;
  drain_ns : int;
  seed : int64;
}

type result = {
  spec : spec;
  sessions_started : int;  (** Distinct session slots (excluding slow receivers). *)
  sessions_peak : int;  (** Peak concurrently connected sessions. *)
  reconnects : int;  (** Churn + storm reconnects completed. *)
  ops_offered : int;  (** Arrivals fired inside the measurement window. *)
  ops_skipped : int;  (** Arrivals at disconnected sessions (not offered). *)
  writes_offered : int;
  writes_applied : int;
      (** Items node 0's merged stream emitted inside the window (at one
          ring: ops applied at node 0). *)
  offered_write_rate : float;
  applied_write_rate : float;
  write_latency_us : Stats.t;
      (** Submit → emergence in the submitting node's merged stream, for
          tracked puts, cas and mcas writes. *)
  sync_read_latency_us : Stats.t;
  merge_wait_us : Stats.t;
      (** Ring apply → merged emergence at node 0, in-window items (all
          zero at one ring). *)
  per_ring_applied : int array;  (** [writes_applied] split by ring. *)
  mcas_submitted : int;
  mcas_commits : int;  (** Summed over node 0's per-ring replicas. *)
  mcas_aborts : int;
  mcas_retries : int;
  skip_credits_spent : int;  (** Skip ops delivered at node 0, all rings. *)
  queue_depth_peak : int;  (** Peak open-loop in-flight writes. *)
  queue_depth_end : int;  (** In-flight residue after the drain. *)
  slow_inbox_peak : int;
  slow_inbox_end : int;
  storm_steady_rate : float;  (** Applied writes/s before the storm. *)
  storm_rate : float;  (** Applied writes/s during the storm window. *)
  storm_degradation : float;
      (** [1 - storm_rate/storm_steady_rate], clamped to [0, 1]; 0 when
          no storm ran. *)
  storm_recovered_ms : float;
      (** Storm-window end → all storm sessions reconnected and the
          in-flight queue back under twice its pre-storm peak. Negative
          when it never recovered (or no storm ran: 0). *)
  storm_all_reconnected : bool;  (** True (vacuously) when no storm ran. *)
  cluster : Cluster.t;
      (** The simulated deployment, for post-run inspection (per-ring
          oracles, replicas). *)
  oracle_violations : int;  (** Summed over the per-ring oracles. *)
  converged : bool;
      (** Replicas converged ({!Cluster.kv_converged}) and no item stuck
          in any merge ({!Cluster.merge_settled}). *)
  end_ns : int;
  metrics : Metrics.t;
      (** Carries the run's ["load.*"] series alongside netsim / daemon /
          app counters and the ["span.*"] stage histograms. *)
}

val default_spec : spec
(** 4 nodes, 500 sessions each (2000 total), 16 groups, Poisson
    arrivals at 12k ops/s aggregate, Zipf(0.99) over 512 keys, mixed
    value sizes, 70% writes; no churn, no slow receivers, symmetric
    network. 100 ms warmup, 300 ms measurement. *)

val run : spec -> result
(** Execute the workload on the discrete-event simulator. Deterministic
    for a given spec.

    @raise Invalid_argument on a malformed spec: [rings < 1],
    [n_nodes < 2], a negative op-mix permille, an op mix above 1000
    permille, [mcas_permille > 0] at one ring, an empty or zero-weight
    value mix, a link naming no node, or geo classes not covering
    [n_nodes]. *)

val pp_result : Format.formatter -> result -> unit
