(** 64-bit FNV-1a, the hash behind KV store digests, the multi-ring shard
    map and fuzzer trace hashes. *)

val offset : int64
(** The FNV-1a offset basis, the hash of the empty input. *)

val string : int64 -> string -> int64
(** [string h s] folds the bytes of [s] into the running hash [h]. *)
