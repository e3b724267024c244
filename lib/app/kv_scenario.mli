(** Shared membership parameters for simulated KV runs. Every simulated
    KV stack is built by [Aring_multiring.Cluster] and driven by
    [Aring_multiring.Load]; this module keeps only the parameter preset
    they (and the UDP workload of the whole-stack benchmark) default
    to. *)

val snappy_params : unit -> Aring_ring.Params.t
(** Accelerated defaults with fast membership timeouts, sized so that
    partition merges complete well inside a scenario's drain budget.
    Shared by the KV and workload-harness scenarios. *)
