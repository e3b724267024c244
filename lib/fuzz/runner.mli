(** Execute one fault schedule on the simulator and judge it.

    The runner builds one stack from the schedule's config and the
    hosted {!app}: raw ring members ({!Aring_ring.Member}) for
    [App_none] at one ring, an {!Aring_multiring.Cluster} of
    [config.rings] rings for everything else. It attaches the
    trace-driven EVS invariant checker as a live sink, injects the
    schedule's faults (ring-scoped partitions and blackouts, physical
    crashes), drives the workload until the horizon, and runs one
    chunked judge loop until convergence or the drain deadline. The
    judges:

    - {b Safety}: any {!Aring_obs.Checker} violation (total order, delivery
      gaps, aru/safe-line regressions, duplicate token holders), any
      KV-oracle violation and any cross-shard mcas decided both ways
      fails the run at the next chunk boundary.
    - {b Liveness}, in two EVS-compatible stages. After all fault windows
      close (the generator keeps them inside the horizon; crashes are
      permanent), every surviving node must first install, in every
      ring, one common regular configuration containing exactly the
      survivors — partitioned rings must re-merge. Only then does stage
      two open: raw members submit one probe per survivor (EVS allows a
      message sequenced in a pre-merge configuration to be delivered
      only within it, so probing earlier would flag correct behavior),
      and every survivor must deliver every probe; a cluster sends no
      probes and must instead reach replica convergence and merge
      quiescence ({!Aring_multiring.Cluster.kv_converged},
      {!Aring_multiring.Cluster.merge_settled}). Both within the
      remaining drain budget.
    - {b Health}: the watchdog flags a formation livelock or delivery
      stall before the deadline (liveness schedules only).

    Everything — including the early-exit points — is a deterministic
    function of the schedule, so [run] is referentially transparent:
    {!outcome.trace_hash} is byte-stable across replays of equal
    schedules. *)

type app =
  | App_none  (** Raw ring members with a padded byte workload. *)
  | App_kv
      (** Every member hosts a daemon plus a replicated-KV replica
          ({!Aring_app.Kv}); the workload becomes a skewed
          put/del/cas/read mix routed by key shard (the schedule's
          safe-permille drives sync reads; above one ring, a slice is
          cross-shard mcas), and the per-ring end-to-end consistency
          oracles ({!Aring_app.Oracle}) join the judges. *)

type failure =
  | Invariant of Aring_obs.Checker.verdict
      (** Safety violation; the verdict carries the recorded violations. *)
  | No_merge of { states : (int * string) list }
      (** Liveness stage 1: the survivors never installed a common
          all-survivor regular view in every ring within the drain
          budget; [states] is each survivor's membership state name per
          ring at the deadline, keyed by global pid. *)
  | No_convergence of { missing : (int * string) list }
      (** Liveness stage 2: (node, probe) pairs never delivered within
          the drain budget, sorted. *)
  | Kv_violation of { total : int; messages : string list }
      (** The KV consistency oracle recorded violations (stale state or
          reads, op-log gaps, divergence); [messages] is a prefix. *)
  | Kv_unsettled of { nodes : (int * string) list }
      (** The survivors merged but the KV replicas never reached a
          common settled (applied, digest) state with quiescent merges
          within the drain budget; keyed by global pid. *)
  | Mcas_divergence of { id : string; decisions : (int * int * bool) list }
      (** Multi-ring only: one cross-shard mcas was decided commit on
          some (node, ring) observation and abort on another —
          cross-shard atomicity broken. *)
  | Health_stall of { report : Aring_obs.Health.report }
      (** The health watchdog (fourth judge, liveness schedules only)
          flagged a formation livelock or delivery stall before the
          drain deadline; the report carries per-node phase-cycle
          statistics and recent phase trails. The flight recorder still
          holds the run's tail at return — dump it for the post-mortem. *)
  | Run_exception of string
      (** The protocol or simulator raised; the string is the exception. *)

type outcome = {
  schedule : Schedule.t;
  failure : failure option;
  verdict : Aring_obs.Checker.verdict;
  deliveries : int;  (** Application deliveries across all nodes. *)
  views : int;  (** Configuration installations across all nodes. *)
  trace_hash : int64;
      (** FNV-1a over the JSONL rendering of the full trace stream. *)
  end_ns : int;  (** Simulated time at which the run stopped. *)
  health : Aring_obs.Health.report;
      (** End-of-run watchdog report, present on passing runs too: use it
          to assert convergence {e quality} (peak formation attempts,
          recovery-flood dedup savings), not just convergence. *)
}

val run :
  ?bug:Bug.t ->
  ?adaptive:bool ->
  ?app:app ->
  ?extra_sink:Aring_obs.Trace.sink ->
  Schedule.t ->
  outcome
(** Execute the schedule. [bug] (default {!Bug.Clean}) wraps every
    participant before the stack is built — used to prove the fuzzer
    catches seeded protocol defects ({!Bug.Kv_skip_apply} instead plants
    inside ring 0's replica and needs [app = App_kv];
    {!Bug.Recovery_flood} instead builds every member with the
    pre-overhaul recovery exchange). With [adaptive] (default [false]),
    every member runs the AIMD accelerated-window controller
    ({!Aring_control.Controller}), exercising the ordering and
    membership invariants while the per-node window moves; [app]
    (default {!App_none}) selects the hosted application. Runs stay
    deterministic per schedule for any fixed mode combination; the trace
    hash differs between modes (the controller changes send timing, the
    kv app adds its own traffic and trace events). [App_none] above one
    ring builds the cluster but offers no workload.

    @raise Invalid_argument for {!Bug.Recovery_flood} on a cluster-built
    stack ([App_kv], or [config.rings > 1]): only raw members can carry
    it. *)

val passed : outcome -> bool

val app_label : app -> string
val app_of_string : string -> (app, string) result
(** ["none"] or ["kv"]. *)

val failure_label : failure -> string
(** ["invariant"], ["no_merge"], ["no_convergence"], ["kv_violation"],
    ["kv_unsettled"], ["mcas_divergence"], ["health_stall"] or
    ["exception"]. *)

val pp_outcome : Format.formatter -> outcome -> unit
