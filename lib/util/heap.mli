(** Imperative binary min-heap with user-supplied priority function.

    Used for small priority scheduling tasks, such as the UDP runtime's
    timers. All operations are O(log n) except {!val:peek},
    {!val:length}, {!val:is_empty} which are O(1). *)

type 'a t
(** A min-heap of ['a] values. *)

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest first). *)

val length : 'a t -> int
(** [length h] is the number of elements currently in [h]. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> 'a -> unit
(** [push h x] inserts [x] into [h]. *)

val peek : 'a t -> 'a option
(** [peek h] is the minimum element of [h] without removing it. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the minimum element of [h]. *)

val pop_exn : 'a t -> 'a
(** [pop_exn h] removes and returns the minimum element without boxing an
    option. @raise Invalid_argument if [h] is empty. *)

val clear : 'a t -> unit
(** [clear h] removes every element from [h]. *)
