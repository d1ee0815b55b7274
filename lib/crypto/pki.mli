(** Simulated public-key infrastructure with unforgeable signatures.

    The paper (Section 8.1) assumes each process can sign messages and
    every process can verify every signature, with forgery impossible for
    computationally bounded adversaries. We realise exactly that property
    {e within the API}: a signature value can only be produced by calling
    {!sign} with the signer's {!key}, both types are abstract, and keys are
    handed out by the harness — honest keys to honest protocol code, faulty
    keys to the adversary. Each {!create} mints a fresh key universe, so
    signatures never replay across executions. *)

type t
(** One execution's PKI. *)

type key
(** Signing capability for a single process. *)

type signature

val create : n:int -> t
(** Fresh PKI for processes [0 .. n-1]. *)

val n : t -> int

val key : t -> int -> key
(** [key t i] is process [i]'s signing key. The harness must give this
    only to process [i]'s protocol code (or to the adversary when [i] is
    faulty). *)

val signer_of_key : key -> int

val sign : key -> string -> signature
(** Sign a canonical payload (see {!Encode}). The signature keeps the
    payload for {!verify} and a fixed-size digest of it for {!encode}. *)

val signer : signature -> int
(** Claimed signer; trustworthy only in combination with {!verify}. *)

val verify : t -> signer:int -> payload:string -> signature -> bool
(** True iff the signature was produced by [sign (key t signer) payload]
    under this very PKI. *)

val encode : signature -> string
(** Constant-size encoding of a signature value — universe, signer and
    the digest of the signed payload — for embedding inside other signed
    payloads (e.g. signature chains), so those grow linearly in the
    number of signatures they carry. Injective up to digest collisions.
    A collision still cannot forge a signature: {!verify} compares the
    full payload, not the digest. Not a constructor: decoding is
    deliberately not provided. *)

val equal : signature -> signature -> bool
val compare : signature -> signature -> int
val pp_signature : signature Fmt.t
