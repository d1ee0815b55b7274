(** A stable string hash for deterministic seed and jitter derivation. *)

val djb2 : string -> int
(** djb2 ([h * 33 + byte], from 5381), masked with [max_int] at every
    step so the result is non-negative. Each step's low [k] bits depend
    only on the previous low [k] bits, so [djb2 s land (2^k - 1)] equals
    the same hash masked to [k] bits at every step. *)
