(** Always-on flight recorder: per-node fixed-capacity rings of compact
    six-word binary records (timestamp, event code, four int arguments),
    kept even when no {!Trace} sink is installed. Steady-state recording
    allocates nothing once a node's ring exists; the recorder never
    feeds the hashed trace stream, so pinned corpus hashes are
    unaffected by it. Dump on demand as JSONL.

    The recorder is also the one event feed for the health watchdog
    ({!Health}): an instrumented site makes a single {!record} call per
    event, and the recorder hands each stored record to its one
    subscriber ({!set_watch}). *)

val set_enabled : bool -> unit
(** Recording is on by default; disabling is for overhead baselines.
    A disabled recorder also feeds nothing to the subscriber, so it
    silences an attached watchdog. *)

type watch =
  node:int -> code:int -> a:int -> b:int -> c:int -> d:int -> now:int -> unit

val set_watch : watch option -> unit
(** Install ([Some f]) or remove ([None]) the single subscriber. After
    {!record} stores a record it calls [f] with the record's fields and
    its timestamp [now]. One slot: installing replaces the previous
    subscriber. {!reset} leaves it in place. *)

val reset : unit -> unit
(** Drop every ring (a fresh run should start from an empty recorder). *)

val set_capacity : int -> unit
(** Records retained per node (default 512). Resets the recorder. *)

val capacity : unit -> int

(** {2 Event codes} *)

val ev_token_recv : int
val ev_token_send : int
val ev_token_retransmit : int
val ev_token_lost : int
val ev_data_send : int
val ev_data_recv : int
val ev_deliver : int
val ev_phase : int
val ev_recheck : int
val ev_recheck_giveup : int
val ev_flood : int
val ev_apply : int

val ev_dedup : int
(** Designated-holder dedup at recovery entry: [a] = exchange-range
    messages held, [b] = queued for flooding (this node designated),
    [c] = sends saved by dedup, [d] = this node's survivor position. *)

val ev_burst : int
(** One paced flood burst: [a] = messages multicast, [b] = still
    queued after the burst. *)

val ev_nack : int
(** A recheck found advertised exchange messages still missing and
    multicast a cumulative nack: [a] = missing seqnos, [b] = compacted
    ranges, [c] = recheck number. *)

val ev_resend : int
(** This node answered a nack as the (re-)elected holder: [a] =
    messages queued for resend, [b] = nack'd seqnos examined. *)

val ev_mcas : int
(** Cross-shard cas life cycle at a replica: [a] = ring id, on park
    [b] = this ring's vote and [d] = involved-ring count; on resolve
    [b] = 2 (abort) / 3 (commit) with [c] = 1. *)

val ev_skip : int
(** A skip-generator fired on an idle ring: [a] = ring id, [b] =
    credits granted. *)

val ev_merge : int
(** Learner merge progress at a node: [a] = ring id popped, [b] =
    merged-stream length, [c] = credits consumed since the last pop. *)

val ev_crash : int
(** The node crashed (recorded by [Netsim.crash]); no arguments. *)

val code_name : int -> string

(** {2 Recording} *)

val record : node:int -> code:int -> a:int -> b:int -> c:int -> d:int -> unit
(** Append one record to [node]'s ring, overwriting the oldest once
    full, then pass it to the subscriber, if any. Zero-allocation after
    the node's first record. No-op when disabled or [node < 0]. *)

(** {2 Readout} *)

type record_view = {
  r_ns : int;
  r_node : int;
  r_code : int;
  r_a : int;
  r_b : int;
  r_c : int;
  r_d : int;
}

val records : unit -> record_view list
(** Every retained record across all nodes, time-ordered. *)

val node_records : int -> record_view list
(** One node's retained records, oldest first. *)

val total : unit -> int
(** Lifetime records written (including overwritten ones). *)

val stored : unit -> int
(** Records currently retained. *)

val dump_jsonl : out_channel -> unit
val dump_jsonl_file : string -> unit
