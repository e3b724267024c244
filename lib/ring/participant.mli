(** The runtime-facing interface of a protocol participant.

    Both runtimes (the discrete-event simulator and the real UDP loop) drive
    participants through this one interface, so a bare operational {!Node}
    and a full membership-capable {!Member} are interchangeable. The driving
    loop is:

    {v
      p.receive msg                  (* on packet arrival; may drop *)
      match p.take_next () with      (* when the CPU is free *)
      | Some msg -> interpret (p.process msg)
      | None -> idle
    v}

    Timers are an extensible variant so each layer (ordering engine,
    membership algorithm) can add its own keys; runtimes treat them as
    opaque tokens to hand back after the requested delay. *)

open Aring_wire

type timer = ..
(** Opaque timer key, extended by each protocol layer. *)

type view = {
  view_id : Types.ring_id;
  members : Types.pid list;  (** In ring order. *)
  transitional : bool;
      (** A transitional configuration delivers the surviving messages of
          the old configuration to the surviving members before the next
          regular configuration is installed (EVS). *)
}
(** A configuration (membership view) delivered to the application. *)

type action =
  | Unicast of Types.pid * Message.t
  | Multicast of Message.t  (** To every other reachable participant. *)
  | Deliver of Message.data  (** Application message, in total order. *)
  | Deliver_config of view
      (** Configuration change notification, ordered with respect to the
          message stream (EVS semantics). *)
  | Arm_timer of timer * int  (** Delay in nanoseconds. *)
  | Rearm_timer of int * timer * int
      (** [Rearm_timer (slot, timer, delay)]: arm [timer] after [delay] ns
          in timer slot [slot] ([0 <= slot < timer_slots]). It supersedes
          every timer this participant armed earlier in the same slot, and
          the participant promises that each superseded timer would have
          fired as a no-op: an empty action list and no state change,
          except work the participant does on every event anyway. A
          runtime may therefore skip them and keep one pending deadline
          per slot, or treat this exactly as [Arm_timer (timer, delay)];
          both give the same behaviour. The one such exception in this
          library is [Daemon] with [~packing:true]: its [fire_timer]
          first flushes the pack buffer, so a skipped superseded timer
          leaves buffered envelopes for the next token's (or live
          timer's) flush. That moves batch boundaries only; each
          sender's envelopes keep their order, and with packing off (the
          default) the flush is empty. {!Node} arms the engine's token
          retransmit timer in slot 0 and its token-loss timer in slot 1:
          every engine re-arm either follows a bump of that timer's
          generation (a token visit) or comes from the firing timer
          itself (a token retransmission), so an older pending arm can
          only fire stale. *)
  | Token_loss_detected
      (** Only emitted by a bare {!Node}; a {!Member} handles token loss
          internally by starting the membership algorithm. *)

type t = {
  pid : Types.pid;
  submit : Types.service -> bytes -> unit;
  receive : Message.t -> [ `Queued | `Dropped ];
  has_work : unit -> bool;
  take_next : unit -> Message.t option;
  process : Message.t -> action list;
  fire_timer : timer -> action list;
  start : unit -> action list;
      (** Actions to perform when the participant comes up. *)
}

val timer_slots : int
(** Number of {!Rearm_timer} slots per participant (2). *)

val pp_view : Format.formatter -> view -> unit
