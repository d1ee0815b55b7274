(* Wire format shared by every protocol in one stack instance.

   All sub-protocols of Algorithm 1 run inside a single fiber per
   process, so their messages share one variant type. Instance [tag]s
   disambiguate concurrent or successive sub-protocol instances; honest
   processes run in lock-step so tags are computed identically
   everywhere, and each protocol step only parses messages carrying its
   own tag. *)

module Pki = Bap_crypto.Pki
module Encode = Bap_crypto.Encode
module Advice = Bap_prediction.Advice

(* Every signature check of the protocol stack goes through here, so the
   [wire.pki_verify] counter gives the verify calls per traced run. *)
let verify pki ~signer ~payload s =
  Bap_telemetry.Telemetry.Metrics.counter "wire.pki_verify" 1;
  Pki.verify pki ~signer ~payload s

module type S = sig
  type value

  type tag = int

  (* -- Authenticated gradecast (building block of the t < n/2 graded
        consensus) -- *)

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

  (* -- Committee machinery (Algorithms 6 and 7) -- *)

  type committee_cert = { cc_member : int; cc_sigs : (int * Pki.signature) list }

  type chain =
    | Chain_root of { value : value; cert : committee_cert; link_sig : Pki.signature }
    | Chain_link of { prev : chain; signer : int; cert : committee_cert; link_sig : Pki.signature }

  (* -- Plain Dolev-Strong chains (baseline, no committee) -- *)

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

  (* Signature payloads. *)

  val committee_payload : int -> string
  val dealer_payload : dealer:int -> value -> string
  val echo_payload : signed_value -> string
  val chain_root_payload : value -> committee_cert -> string
  val chain_link_payload : chain -> committee_cert -> string

  (* Validation. *)

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

  (* Byte-level codec for the signature-free messages, used by the chaos
     layer's corruption injector (flip bits in the encoded bytes, then
     decode what survives). Signature-carrying messages have no codec:
     signatures are unforgeable capabilities with deliberately no decoder
     (see {!Pki.encode}), which models the fact that a corrupted signed
     message can never verify and is therefore equivalent to a drop. *)

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

module Make (V : Value.S) : S with type value = V.t = struct
  type value = V.t
  type tag = int

  type signed_value = { sv_dealer : int; sv_value : value; sv_sig : Pki.signature }
  type gcast_echo = { ge_signed : signed_value; ge_sig : Pki.signature }
  type echo_cert = { ec_signed : signed_value; ec_echoes : (int * Pki.signature) list }

  type gcast_report = {
    gr_dealer : int;
    gr_cert : echo_cert option;
    gr_conflict : (signed_value * signed_value) option;
  }

  type committee_cert = { cc_member : int; cc_sigs : (int * Pki.signature) list }

  type chain =
    | Chain_root of { value : value; cert : committee_cert; link_sig : Pki.signature }
    | Chain_link of { prev : chain; signer : int; cert : committee_cert; link_sig : Pki.signature }

  type ds_chain =
    | Ds_root of { sender : int; value : value; link_sig : Pki.signature }
    | Ds_link of { prev : ds_chain; signer : int; link_sig : Pki.signature }

  type t =
    | Advice of Advice.t
    | Gc_init of tag * value
    | Gc_echo of tag * value
    | Conc of tag * value * int list
    | King of tag * value
    | Gcast_init of tag * signed_value
    | Gcast_echo of tag * gcast_echo list
    | Gcast_report of tag * gcast_report list
    | Committee_vote of tag * Pki.signature
    | Bb_chain of tag * int * chain
    | Ds_chain of tag * int * ds_chain
    | Final_value of tag * value * committee_cert

  let committee_payload member = Encode.tagged "committee" (Encode.int member)

  let dealer_payload ~dealer v =
    Encode.tagged "dealer" (Encode.pair (Encode.int dealer) (V.encode v))

  let echo_payload sv =
    Encode.tagged "echo" (Encode.pair (Encode.int sv.sv_dealer) (V.encode sv.sv_value))

  let encode_committee_cert cert =
    Encode.pair
      (Encode.int cert.cc_member)
      (Encode.list
         (List.map
            (fun (signer, s) -> Encode.pair (Encode.int signer) (Encode.str (Pki.encode s)))
            cert.cc_sigs))

  let chain_root_payload v cert =
    Encode.tagged "chain-root" (Encode.pair (V.encode v) (encode_committee_cert cert))

  let rec encode_chain = function
    | Chain_root { value; cert; link_sig } ->
      Encode.tagged "root"
        (Encode.triple (V.encode value) (encode_committee_cert cert)
           (Encode.str (Pki.encode link_sig)))
    | Chain_link { prev; signer; cert; link_sig } ->
      Encode.tagged "link"
        (Encode.list
           [
             encode_chain prev;
             Encode.int signer;
             encode_committee_cert cert;
             Encode.str (Pki.encode link_sig);
           ])

  let chain_link_payload prev cert =
    Encode.tagged "chain-link" (Encode.pair (encode_chain prev) (encode_committee_cert cert))

  let valid_signed_value pki sv =
    verify pki ~signer:sv.sv_dealer
      ~payload:(dealer_payload ~dealer:sv.sv_dealer sv.sv_value)
      sv.sv_sig

  let distinct_signers sigs =
    let signers = List.map fst sigs in
    List.length (List.sort_uniq Int.compare signers) = List.length signers

  let valid_echo_cert pki ~threshold cert =
    valid_signed_value pki cert.ec_signed
    && List.length cert.ec_echoes >= threshold
    && distinct_signers cert.ec_echoes
    && (let payload = echo_payload cert.ec_signed in
        List.for_all (fun (echoer, s) -> verify pki ~signer:echoer ~payload s) cert.ec_echoes)

  let valid_committee_cert pki ~quorum cert =
    List.length cert.cc_sigs >= quorum
    && distinct_signers cert.cc_sigs
    && (let payload = committee_payload cert.cc_member in
        List.for_all (fun (signer, s) -> verify pki ~signer ~payload s) cert.cc_sigs)

  let rec chain_value = function
    | Chain_root { value; _ } -> value
    | Chain_link { prev; _ } -> chain_value prev

  let rec chain_sender = function
    | Chain_root { cert; _ } -> cert.cc_member
    | Chain_link { prev; _ } -> chain_sender prev

  let rec chain_signers = function
    | Chain_root { cert; _ } -> [ cert.cc_member ]
    | Chain_link { prev; signer; _ } -> chain_signers prev @ [ signer ]

  let rec chain_length = function
    | Chain_root _ -> 1
    | Chain_link { prev; _ } -> 1 + chain_length prev

  let rec valid_links pki ~quorum = function
    | Chain_root { value; cert; link_sig } ->
      valid_committee_cert pki ~quorum cert
      && verify pki ~signer:cert.cc_member ~payload:(chain_root_payload value cert) link_sig
    | Chain_link { prev; signer; cert; link_sig } ->
      cert.cc_member = signer
      && valid_committee_cert pki ~quorum cert
      && verify pki ~signer ~payload:(chain_link_payload prev cert) link_sig
      && valid_links pki ~quorum prev

  let valid_chain pki ~quorum ~sender ~length chain =
    chain_length chain = length
    && chain_sender chain = sender
    && (let signers = chain_signers chain in
        List.length (List.sort_uniq Int.compare signers) = List.length signers)
    && valid_links pki ~quorum chain

  let ds_root_payload ~sender v =
    Encode.tagged "ds-root" (Encode.pair (Encode.int sender) (V.encode v))

  let rec encode_ds_chain = function
    | Ds_root { sender; value; link_sig } ->
      Encode.tagged "ds-root"
        (Encode.triple (Encode.int sender) (V.encode value) (Encode.str (Pki.encode link_sig)))
    | Ds_link { prev; signer; link_sig } ->
      Encode.tagged "ds-link"
        (Encode.triple (encode_ds_chain prev) (Encode.int signer)
           (Encode.str (Pki.encode link_sig)))

  let ds_link_payload prev = Encode.tagged "ds-link" (encode_ds_chain prev)

  let rec ds_chain_value = function
    | Ds_root { value; _ } -> value
    | Ds_link { prev; _ } -> ds_chain_value prev

  let rec ds_chain_sender = function
    | Ds_root { sender; _ } -> sender
    | Ds_link { prev; _ } -> ds_chain_sender prev

  let rec ds_chain_signers = function
    | Ds_root { sender; _ } -> [ sender ]
    | Ds_link { prev; signer; _ } -> ds_chain_signers prev @ [ signer ]

  let rec ds_chain_length = function
    | Ds_root _ -> 1
    | Ds_link { prev; _ } -> 1 + ds_chain_length prev

  let rec valid_ds_links pki = function
    | Ds_root { sender; value; link_sig } ->
      verify pki ~signer:sender ~payload:(ds_root_payload ~sender value) link_sig
    | Ds_link { prev; signer; link_sig } ->
      verify pki ~signer ~payload:(ds_link_payload prev) link_sig
      && valid_ds_links pki prev

  let valid_ds_chain pki ~sender ~length chain =
    ds_chain_length chain = length
    && ds_chain_sender chain = sender
    && (let signers = ds_chain_signers chain in
        List.length (List.sort_uniq Int.compare signers) = List.length signers)
    && valid_ds_links pki chain

  let sig_bits = 256
  let id_bits = 32
  let value_bits v = 8 * String.length (V.encode v)
  let sv_bits (sv : signed_value) = id_bits + value_bits sv.sv_value + sig_bits

  let committee_cert_bits cert =
    id_bits + (List.length cert.cc_sigs * (id_bits + sig_bits))

  let echo_cert_bits cert =
    sv_bits cert.ec_signed + (List.length cert.ec_echoes * (id_bits + sig_bits))

  let rec chain_bits = function
    | Chain_root { value; cert; link_sig = _ } ->
      value_bits value + committee_cert_bits cert + sig_bits
    | Chain_link { prev; signer = _; cert; link_sig = _ } ->
      chain_bits prev + id_bits + committee_cert_bits cert + sig_bits

  let rec ds_chain_bits = function
    | Ds_root { sender = _; value; link_sig = _ } -> id_bits + value_bits value + sig_bits
    | Ds_link { prev; signer = _; link_sig = _ } -> ds_chain_bits prev + id_bits + sig_bits

  let size_bits = function
    | Advice a -> id_bits + Advice.length a
    | Gc_init (_, v) | Gc_echo (_, v) | King (_, v) -> id_bits + value_bits v
    | Conc (_, v, l) -> id_bits + value_bits v + (id_bits * List.length l)
    | Gcast_init (_, sv) -> id_bits + sv_bits sv
    | Gcast_echo (_, echoes) ->
      id_bits + List.fold_left (fun acc e -> acc + sv_bits e.ge_signed + sig_bits) 0 echoes
    | Gcast_report (_, reports) ->
      id_bits
      + List.fold_left
          (fun acc r ->
            acc + id_bits
            + (match r.gr_cert with Some c -> echo_cert_bits c | None -> 0)
            + match r.gr_conflict with Some (a, b) -> sv_bits a + sv_bits b | None -> 0)
          0 reports
    | Committee_vote (_, _) -> id_bits + sig_bits
    | Bb_chain (_, _, chain) -> (2 * id_bits) + chain_bits chain
    | Ds_chain (_, _, chain) -> (2 * id_bits) + ds_chain_bits chain
    | Final_value (_, v, cert) -> id_bits + value_bits v + committee_cert_bits cert

  (* -- plain-message codec -- *)

  let encode_plain = function
    | Advice a -> Some (Encode.str "A" ^ Encode.str (Advice.to_bits a))
    | Gc_init (tag, v) ->
      Some (Encode.str "I" ^ Encode.int tag ^ Encode.str (V.encode v))
    | Gc_echo (tag, v) ->
      Some (Encode.str "E" ^ Encode.int tag ^ Encode.str (V.encode v))
    | King (tag, v) ->
      Some (Encode.str "K" ^ Encode.int tag ^ Encode.str (V.encode v))
    | Conc (tag, v, l) ->
      Some
        (Encode.str "C" ^ Encode.int tag ^ Encode.str (V.encode v)
        ^ String.concat "" (List.map Encode.int l))
    | Gcast_init _ | Gcast_echo _ | Gcast_report _ | Committee_vote _ | Bb_chain _
    | Ds_chain _ | Final_value _ ->
      None

  (* Netstring reader matching {!Encode}'s <len>:<bytes> fields. *)
  let read_field s pos =
    let len = String.length s in
    let rec digits i acc count =
      if i >= len || count > 9 then None
      else
        match s.[i] with
        | '0' .. '9' -> digits (i + 1) ((acc * 10) + (Char.code s.[i] - 48)) (count + 1)
        | ':' when count > 0 -> Some (i + 1, acc)
        | _ -> None
    in
    match digits pos 0 0 with
    | None -> None
    | Some (start, flen) ->
      if flen < 0 || start + flen > len then None
      else Some (String.sub s start flen, start + flen)

  let ( let* ) = Option.bind

  let read_int s pos =
    let* raw, pos = read_field s pos in
    let* i = int_of_string_opt raw in
    Some (i, pos)

  let read_value s pos =
    let* raw, pos = read_field s pos in
    let* v = V.decode raw in
    Some (v, pos)

  let rec read_ints s pos acc =
    if pos = String.length s then Some (List.rev acc)
    else
      let* i, pos = read_int s pos in
      read_ints s pos (i :: acc)

  let decode_plain s =
    let finish pos m = if pos = String.length s then Some m else None in
    let* kind, pos = read_field s 0 in
    match kind with
    | "A" ->
      let* raw, pos = read_field s pos in
      let* a = Advice.of_bits raw in
      finish pos (Advice a)
    | "I" ->
      let* tag, pos = read_int s pos in
      let* v, pos = read_value s pos in
      finish pos (Gc_init (tag, v))
    | "E" ->
      let* tag, pos = read_int s pos in
      let* v, pos = read_value s pos in
      finish pos (Gc_echo (tag, v))
    | "K" ->
      let* tag, pos = read_int s pos in
      let* v, pos = read_value s pos in
      finish pos (King (tag, v))
    | "C" ->
      let* tag, pos = read_int s pos in
      let* v, pos = read_value s pos in
      let* l = read_ints s pos [] in
      Some (Conc (tag, v, l))
    | _ -> None

  let pp ppf = function
    | Advice a -> Fmt.pf ppf "Advice(%a)" Advice.pp a
    | Gc_init (tag, v) -> Fmt.pf ppf "Gc_init(#%d, %a)" tag V.pp v
    | Gc_echo (tag, v) -> Fmt.pf ppf "Gc_echo(#%d, %a)" tag V.pp v
    | Conc (tag, v, l) ->
      Fmt.pf ppf "Conc(#%d, %a, {%a})" tag V.pp v Fmt.(list ~sep:comma int) l
    | King (tag, v) -> Fmt.pf ppf "King(#%d, %a)" tag V.pp v
    | Gcast_init (tag, sv) -> Fmt.pf ppf "Gcast_init(#%d, %d:%a)" tag sv.sv_dealer V.pp sv.sv_value
    | Gcast_echo (tag, svs) -> Fmt.pf ppf "Gcast_echo(#%d, %d dealers)" tag (List.length svs)
    | Gcast_report (tag, rs) -> Fmt.pf ppf "Gcast_report(#%d, %d reports)" tag (List.length rs)
    | Committee_vote (tag, _) -> Fmt.pf ppf "Committee_vote(#%d)" tag
    | Bb_chain (tag, s, c) ->
      Fmt.pf ppf "Bb_chain(#%d, sender %d, len %d, %a)" tag s (chain_length c) V.pp (chain_value c)
    | Ds_chain (tag, s, c) ->
      Fmt.pf ppf "Ds_chain(#%d, sender %d, len %d, %a)" tag s (ds_chain_length c) V.pp
        (ds_chain_value c)
    | Final_value (tag, v, _) -> Fmt.pf ppf "Final_value(#%d, %a)" tag V.pp v
end
