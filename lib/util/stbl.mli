(** String-keyed hash table, specialised so lookups compare keys with
    [String.equal] instead of polymorphic [compare].

    The hash is exactly [Hashtbl.hash], so bucket placement and the resize
    policy match Stdlib's generic [Hashtbl]: for the same sequence of
    operations, [fold] and [iter] visit bindings in the same order. Callers
    whose output depends on that order (re-announcing sessions, pruning
    groups) therefore behave exactly as with the generic table. *)

include Hashtbl.S with type key = string
