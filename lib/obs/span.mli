(** End-to-end latency spans. Messages are stamped at submission with
    the virtual clock ({!Trace.now}); stage transitions (submit →
    packed → token-ordered → delivered → applied) land in per-stage
    mergeable {!Metrics} histograms, decomposing where end-to-end
    latency goes. Opt-in and global: when no collector is attached
    every hook is a single ref read, and spans never feed the hashed
    trace stream. *)

type t

val create : ?metrics:Metrics.t -> unit -> t
(** Histograms are registered in [metrics] (default: a fresh registry)
    under the [span.*] names below. *)

val metrics : t -> Metrics.t

(** {2 Global collector} *)

val attach : t -> unit
val detach : unit -> unit
val with_span : t -> (unit -> 'a) -> 'a

(** {2 Stage notes} (called by the protocol stack; self-guarded) *)

val submit_stamp : unit -> int
(** Submission timestamp to carry alongside the message; [0] when no
    collector is attached (callers skip later notes on a zero stamp). *)

val note_packed : submit_ns:int -> unit
val note_ordered : sender:int -> seq:int -> submit_ns:int -> unit
val note_delivered : node:int -> sender:int -> seq:int -> unit
val note_applied : node:int -> unit

(** {2 Stage names} *)

val stage_submit_wait : string
val stage_order : string
val stage_deliver : string
val stage_apply : string
val stage_e2e : string
val stage_names : string list

(** {2 Reporting} *)

type stage_report = {
  stage : string;
  count : int;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

val report : t -> stage_report list
val report_of_metrics : Metrics.t -> stage_report list
(** Stage quantiles from any registry holding [span.*] histograms
    (e.g. one merged across nodes); empty stages are omitted. *)

val pp_report : Format.formatter -> stage_report list -> unit
