(** Wire format shared by every protocol in one stack instance.

    All sub-protocols of Algorithm 1 run inside a single fiber per
    process, so their messages share one variant type. Instance [tag]s
    disambiguate concurrent or successive sub-protocol instances;
    honest processes run in lock-step so tags are computed identically
    everywhere, and each protocol step only parses messages carrying
    its own tag. *)

module Pki = Bap_crypto.Pki
module Advice = Bap_prediction.Advice

val verify : Pki.t -> signer:int -> payload:string -> Pki.signature -> bool
(** {!Pki.verify}, counted: each call adds one to the [wire.pki_verify]
    telemetry counter (a no-op when telemetry is off). Every signature
    check of the protocol stack goes through it. *)

module type S = sig
  type value

  type tag = int

  (** {1 Authenticated gradecast} (building block of the t < n/2 graded
      consensus) *)

  type signed_value = { sv_dealer : int; sv_value : value; sv_sig : Pki.signature }
  (** A dealer's signed proposal. *)

  type gcast_echo = { ge_signed : signed_value; ge_sig : Pki.signature }
  (** An echoer's signature over a dealer proposal it received directly. *)

  type echo_cert = { ec_signed : signed_value; ec_echoes : (int * Pki.signature) list }
  (** [n - t] echo signatures on one dealer proposal. *)

  type gcast_report = {
    gr_dealer : int;
    gr_cert : echo_cert option;
    gr_conflict : (signed_value * signed_value) option;
        (** Two dealer signatures on different values: equivocation proof. *)
  }

  (** {1 Committee machinery} (Algorithms 6 and 7) *)

  type committee_cert = { cc_member : int; cc_sigs : (int * Pki.signature) list }

  type chain =
    | Chain_root of { value : value; cert : committee_cert; link_sig : Pki.signature }
    | Chain_link of { prev : chain; signer : int; cert : committee_cert; link_sig : Pki.signature }

  (** {1 Plain Dolev-Strong chains} (baseline, no committee) *)

  type ds_chain =
    | Ds_root of { sender : int; value : value; link_sig : Pki.signature }
    | Ds_link of { prev : ds_chain; signer : int; link_sig : Pki.signature }

  type t =
    | Advice of Advice.t
    | Gc_init of tag * value  (** Graded consensus round 1 / gradecast value. *)
    | Gc_echo of tag * value  (** Graded consensus round 2. *)
    | Conc of tag * value * int list  (** Conciliation: value and the sender's [L] set. *)
    | King of tag * value  (** Early-stopping phase-king broadcast. *)
    | Gcast_init of tag * signed_value
    | Gcast_echo of tag * gcast_echo list
    | Gcast_report of tag * gcast_report list
    | Committee_vote of tag * Pki.signature
    | Bb_chain of tag * int * chain  (** [int] is the broadcast instance's sender. *)
    | Ds_chain of tag * int * ds_chain  (** Baseline Dolev-Strong broadcast instance. *)
    | Final_value of tag * value * committee_cert

  (** {1 Signature payloads} *)

  val committee_payload : int -> string
  val dealer_payload : dealer:int -> value -> string
  val echo_payload : signed_value -> string
  val chain_root_payload : value -> committee_cert -> string
  val chain_link_payload : chain -> committee_cert -> string

  (** {1 Validation} *)

  val valid_signed_value : Pki.t -> signed_value -> bool

  val valid_echo_cert : Pki.t -> threshold:int -> echo_cert -> bool
  (** Valid iff it carries [threshold] echo signatures by distinct
      processes over a valid dealer signature. *)

  val valid_committee_cert : Pki.t -> quorum:int -> committee_cert -> bool
  (** Valid iff it carries [quorum] signatures by distinct processes on
      [committee_payload cc_member]. *)

  val chain_value : chain -> value

  val chain_sender : chain -> int
  (** The process that started the chain (its root certificate member). *)

  val chain_signers : chain -> int list
  (** Signers from root to tip. *)

  val chain_length : chain -> int

  val valid_chain : Pki.t -> quorum:int -> sender:int -> length:int -> chain -> bool
  (** A valid message chain of exactly [length] links started by
      [sender]: every link is correctly signed by a distinct process that
      carries a valid committee certificate ([quorum] = t + 1). *)

  val ds_root_payload : sender:int -> value -> string
  val ds_link_payload : ds_chain -> string
  val ds_chain_value : ds_chain -> value
  val ds_chain_sender : ds_chain -> int
  val ds_chain_signers : ds_chain -> int list
  val ds_chain_length : ds_chain -> int

  val valid_ds_chain : Pki.t -> sender:int -> length:int -> ds_chain -> bool
  (** Classic Dolev-Strong validity: [length] distinct correct
      signatures, rooted at [sender]. *)

  val size_bits : t -> int
  (** Estimated wire size of a message in bits, for communication-
      complexity accounting: values cost their canonical encoding,
      signatures a constant 256 bits, identifiers and tags 32 bits. *)

  (** {1 Byte-level codec} for the signature-free messages, used by the
      chaos layer's corruption injector (flip bits in the encoded
      bytes, then decode what survives). Signature-carrying messages
      have no codec: signatures are unforgeable capabilities with
      deliberately no decoder (see {!Pki.encode}), which models the
      fact that a corrupted signed message can never verify and is
      therefore equivalent to a drop. *)

  val encode_plain : t -> string option
  (** [Some bytes] for [Advice], [Gc_init], [Gc_echo], [Conc] and
      [King]; [None] for the signature-carrying constructors. *)

  val decode_plain : string -> t option
  (** Total inverse: [decode_plain bytes] is [Some m] iff [bytes] is
      exactly [encode_plain m]'s output for some [m] (up to the value
      domain's own [decode] laxity). Never raises, whatever the input —
      corrupted bytes must fail cleanly, not leak exceptions into
      protocol code. *)

  val pp : t Fmt.t
end

module Make (V : Value.S) : S with type value = V.t
