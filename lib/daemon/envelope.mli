(** Daemon-level payload envelope.

    The Spread-like daemon rides on the ring's total order: every client
    operation that affects shared state (application multicasts, group joins
    and leaves, session re-announcements after a configuration change) is
    encoded as an envelope and multicast as an ordinary ring payload. All
    daemons therefore apply group-state updates in exactly the same order. *)

type t =
  | App of { sender : string; groups : string list; payload : bytes }
      (** Application message to every member of each listed group
          (multi-group multicast: delivered once per recipient, ordered
          consistently across groups). *)
  | Join of { member : string; group : string }
  | Leave of { member : string; group : string }
  | Batch of t list
      (** Several small envelopes packed into one protocol packet — the
          packing feature Spread uses to amortize per-packet costs over
          small messages (paper Section IV-A.3). Never nested. *)

val encode : t -> bytes

val decode : bytes -> t
(** @raise Aring_wire.Codec.Decode_error on malformed input. *)

val member_name : daemon:int -> session:string -> string
(** Canonical member name, Spread-style: ["#session#daemon"]. *)

val encoded_size : t -> int
(** Size of [encode t], computed without encoding (used by the packer to
    respect its threshold).
    @raise Invalid_argument on a nested batch, as {!encode} does. *)

val pp : Format.formatter -> t -> unit
