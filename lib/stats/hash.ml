(* The one string hash: djb2, kept non-negative at every step. Used
   wherever a seeded derivation must not draw from Random or depend on
   Hashtbl.hash (whose value is an implementation detail of the
   runtime). *)

let djb2 s = String.fold_left (fun h c -> ((h * 33) + Char.code c) land max_int) 5381 s
