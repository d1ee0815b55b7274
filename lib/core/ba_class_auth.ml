(* Algorithm 7: Authenticated Byzantine Agreement with Classification.

   Phase structure (k + 3 rounds total):
   1. Committee election: every process sends a signed <COMMITTEE, p_j>
      vote to the 2k+1 processes it ranks highest in pi(c_i); a process
      collecting t+1 votes assembles a committee certificate.
   2. n parallel Byzantine Broadcasts with implicit committee (k + 1
      rounds) through which committee members disseminate their values.
   3. Final round: committee members broadcast the plurality of the
      broadcast outputs together with their certificate; everyone
      decides the plurality of the certified announcements.

   Under k >= #misclassified, 2k+1 <= n - t - k and t < n/2, Lemma 24
   gives at most k faulty and at least k+1 honest certified members, so
   the broadcasts agree (Lemma 23) and the honest announcements outnumber
   the faulty ones (Lemmas 25-27). *)

module Advice = Bap_prediction.Advice
module Pki = Bap_crypto.Pki
module Inbox = Bap_sim.Inbox

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) : sig
  val rounds : k:int -> int
  (** Exactly [k + 3]. *)

  val feasible : n:int -> t:int -> k:int -> bool
  (** [2k+1 <= n - t - k] and [t < n/2]. *)

  val max_feasible_k : n:int -> t:int -> int

  val run :
    R.ctx ->
    pki:Pki.t ->
    key:Pki.key ->
    t:int ->
    k:int ->
    base_tag:W.tag ->
    V.t ->
    Advice.t ->
    V.t
  (** Consumes tags [base_tag .. base_tag + 2]. *)
end = struct
  module Bb = Bb_committee.Make (V) (W) (R)

  let rounds ~k = k + 3

  let feasible ~n ~t ~k = (2 * k) + 1 <= n - t - k && 2 * t < n

  let max_feasible_k ~n ~t =
    let rec grow k = if feasible ~n ~t ~k:(k + 1) then grow (k + 1) else k in
    if feasible ~n ~t ~k:0 then grow 0 else -1

  module Ps = Phase_span.Make (R)

  let run ctx ~pki ~key ~t ~k ~base_tag x c =
    Ps.run ctx "bc" @@ fun () ->
    let n = R.n ctx in
    if not (feasible ~n ~t ~k) then begin
      (* Common knowledge: all honest skip together (see Algorithm 5). *)
      R.skip ctx (rounds ~k);
      x
    end
    else begin
      let me = R.id ctx in
      let quorum = t + 1 in
      let vote_tag = base_tag and bb_tag = base_tag + 1 and final_tag = base_tag + 2 in
      (* Round 1: committee votes to the 2k+1 most trusted processes. *)
      let order = Classification.pi c in
      let l_set = List.init ((2 * k) + 1) (fun j -> order.(j)) in
      let votes =
        List.map
          (fun j -> (j, W.Committee_vote (vote_tag, Pki.sign key (W.committee_payload j))))
          l_set
      in
      let inbox = R.send_to ctx votes in
      let signatures =
        Inbox.firsti inbox ~f:(fun sender -> function
          | W.Committee_vote (tg, s)
            when tg = vote_tag
                 && Wire.verify pki ~signer:sender ~payload:(W.committee_payload me) s ->
            Some s
          | _ -> None)
      in
      let supporter_ids = Inbox.senders signatures in
      let cc =
        if List.length supporter_ids >= quorum then
          let chosen = List.filteri (fun idx _ -> idx < quorum) supporter_ids in
          Some
            {
              W.cc_member = me;
              cc_sigs = List.map (fun j -> (j, Option.get (Inbox.votes_get signatures j))) chosen;
            }
        else None
      in
      (* Rounds 2 .. k+2: the n parallel broadcasts. *)
      let bb = Bb.run_parallel ctx ~pki ~key ~t ~k ~tag:bb_tag ~cc x in
      (* Round k+3: certified members announce the plurality. *)
      let my_plurality =
        match Inbox.plurality (Inbox.votes bb) ~compare:V.compare with
        | Some (w, _) -> w
        | None -> x
      in
      let final_out =
        match cc with
        | Some cert -> [ W.Final_value (final_tag, my_plurality, cert) ]
        | None -> []
      in
      let inbox = R.broadcast_list ctx final_out in
      let announcements =
        Inbox.first inbox ~f:(function
          | W.Final_value (tg, w, cert)
            when tg = final_tag && W.valid_committee_cert pki ~quorum cert ->
            Some (cert.W.cc_member, w)
          | _ -> None)
      in
      (* Only count an announcement if the certificate names its sender. *)
      let certified =
        Inbox.votes_mapi announcements ~f:(fun sender entry ->
            match entry with
            | Some (member, w) when member = sender -> Some w
            | Some _ | None -> None)
      in
      match Inbox.plurality certified ~compare:V.compare with
      | Some (w, _) -> w
      | None -> x
    end
end
