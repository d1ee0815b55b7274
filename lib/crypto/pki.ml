(* Signatures are unforgeable by construction: the [signature] type is
   abstract and its only constructor, [sign], demands the signer's [key].
   The per-PKI [universe] stamp prevents replay across executions. The
   counter is atomic because executions run concurrently on multiple
   domains (lib/exec): with a plain ref, two racing [create]s could mint
   the same universe and signatures would replay across them.

   A signature carries its payload, which [verify] compares in full, and
   a fixed-size digest of it, stamped once by [sign]. [encode] emits the
   digest, so a signature embedded in another payload (a chain link, a
   certificate) costs constant bytes however long the payload it signs. *)

let next_universe = Atomic.make 0

type t = { universe : int; size : int }
type key = { key_universe : int; owner : int }
type signature = {
  sig_universe : int;
  sig_signer : int;
  sig_payload : string;
  sig_digest : string;
}

let create ~n =
  if n <= 0 then invalid_arg "Pki.create: n must be positive";
  { universe = Atomic.fetch_and_add next_universe 1 + 1; size = n }

let n t = t.size

let key t i =
  if i < 0 || i >= t.size then invalid_arg "Pki.key: id out of range";
  { key_universe = t.universe; owner = i }

let signer_of_key k = k.owner

let sign k payload =
  {
    sig_universe = k.key_universe;
    sig_signer = k.owner;
    sig_payload = payload;
    sig_digest = Digest.string payload;
  }

let signer s = s.sig_signer

let verify t ~signer ~payload s =
  s.sig_universe = t.universe && s.sig_signer = signer && String.equal s.sig_payload payload

let encode s =
  Encode.triple (Encode.int s.sig_universe) (Encode.int s.sig_signer) (Encode.str s.sig_digest)

let equal a b =
  a.sig_universe = b.sig_universe && a.sig_signer = b.sig_signer
  && String.equal a.sig_payload b.sig_payload

let compare a b =
  match Int.compare a.sig_universe b.sig_universe with
  | 0 -> (
    match Int.compare a.sig_signer b.sig_signer with
    | 0 -> String.compare a.sig_payload b.sig_payload
    | c -> c)
  | c -> c

let pp_signature ppf s = Fmt.pf ppf "<sig:%d on %d bytes>" s.sig_signer (String.length s.sig_payload)
