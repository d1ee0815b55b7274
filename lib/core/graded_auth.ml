(* Authenticated graded consensus for t < n/2 (the paper's Theorem 8,
   whose construction it takes off the shelf from Momose-Ren). We build
   it from n parallel signed gradecasts, Katz-Koo style, combined so that
   each process sends one message per round: 3 rounds, O(n^2) messages.

   Gradecast (dealer d), combined over all dealers:
   - Round 1: every process, acting as a dealer, broadcasts its signed
     value.
   - Round 2: every process broadcasts, for each dealer proposal it
     received *directly* in round 1, that proposal plus its own echo
     signature on it. (Honest processes therefore echo at most one value
     per dealer.)
   - Round 3: every process broadcasts, per dealer: an echo certificate
     (n - t echo signatures on one proposal) if it assembled one, and a
     conflict proof (two dealer signatures on different values) if it saw
     one.

   Delivery for dealer d at process i (levels 2 / 1 / 0):
   - level 2 on v: i assembled its own certificate for (d, v) at the end
     of round 2 and saw no conflicting dealer signature through round 3;
   - level 1 on v: i holds (own or received) valid certificates for d and
     they all carry the same value v;
   - level 0 (bot): otherwise.

   Why this is a correct gradecast for t < n/2:
   - If i delivers level 2 on v, then no honest process echoed any
     v' <> v for d (an honest echo is broadcast, so i would have seen the
     conflicting dealer signature in round 2). A certificate for (d, v')
     needs n - t >= t + 1 echo signatures, at least one honest - so no
     certificate for any v' exists anywhere. Since i broadcast its own
     certificate in round 3, every honest process holds a certificate for
     (d, v) and no conflicting one: everyone delivers v at level >= 1.
   - If d is honest, unforgeability means no conflicting signature ever
     exists and every honest process assembles the full certificate in
     round 2: everyone delivers d's value at level 2.

   Graded consensus on top: let M_i(w) = #dealers delivered at level 2
   with value w, and m_i(w) = #dealers delivered at level >= 1 with value
   w. Each dealer contributes to at most one value, so at most one w can
   reach m_i(w) >= n - t (2(n-t) > n). Output (w, 1) if M_i(w) >= n - t;
   else (w, 0) if m_i(w) >= n - t; else (input, 0).
   - Strong unanimity: with unanimous honest input v, the >= n - t honest
     dealers all deliver (v, 2) everywhere.
   - Coherence: M_i(w) >= n - t at one process makes m_j(w) >= n - t at
     every honest j (gradecast level 2 forces level >= 1 with the same
     value everywhere), and w is the unique such value. *)

module Pki = Bap_crypto.Pki
module Inbox = Bap_sim.Inbox

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) : sig
  val rounds : int
  (** Always 3. *)

  val gradecast :
    R.ctx -> pki:Pki.t -> key:Pki.key -> t:int -> tag:W.tag -> V.t -> (V.t * int) option array
  (** The underlying n-dealer signed gradecast: slot [d] holds process
      [d]'s delivered [(value, level)] with level 2 or 1, or [None] for
      bot. For t < n/2: an honest dealer is delivered at level 2 by
      everyone, and a level-2 delivery at any honest process forces a
      level >= 1 delivery of the same value at every honest process. *)

  val run : R.ctx -> pki:Pki.t -> key:Pki.key -> t:int -> tag:W.tag -> V.t -> V.t * int
  (** Requires t < n/2 for the guarantees. Consumes one tag. *)
end = struct
  let rounds = 3

  (* A distinct dealer-signed value, with the payload its echoes sign:
     built once per (dealer, value) per run, not once per echo checked. *)
  type proposal = { value : V.t; signed : W.signed_value; echo_payload : string }

  (* Per-dealer bookkeeping during one run. *)
  type dealer_state = {
    mutable proposals : proposal list;  (* distinct values seen, dealer-signed *)
    mutable echoes : (V.t * (int * Pki.signature) list) list;  (* per value: distinct echoers *)
    mutable certs : (V.t * W.echo_cert) list;  (* distinct values with a valid certificate *)
    mutable direct : W.signed_value option;  (* round-1 proposal received from the dealer *)
  }

  let find_proposal st w = List.find_opt (fun p -> V.equal p.value w) st.proposals

  (* Records [sv], whose dealer signature the caller has verified, unless
     its value is already known; [payload] is its echo payload when the
     caller has built it already. *)
  let add_proposal ?payload st (sv : W.signed_value) =
    if Option.is_none (find_proposal st sv.W.sv_value) then
      let echo_payload = match payload with Some p -> p | None -> W.echo_payload sv in
      st.proposals <- { value = sv.W.sv_value; signed = sv; echo_payload } :: st.proposals

  let gradecast ctx ~pki ~key ~t ~tag v =
    let n = R.n ctx in
    let quorum = n - t in
    let states =
      Array.init n (fun _ -> { proposals = []; echoes = []; certs = []; direct = None })
    in
    let note_proposal d (sv : W.signed_value) =
      (* Cheap structural checks before any signature verification: the
         same proposal arrives from up to n senders per round. *)
      if sv.W.sv_dealer = d then begin
        let st = states.(d) in
        if Option.is_none (find_proposal st sv.W.sv_value) && W.valid_signed_value pki sv then
          add_proposal st sv
      end
    in
    let note_echo d echoer (sv : W.signed_value) echo_sig =
      if sv.W.sv_dealer = d then begin
        let st = states.(d) in
        let existing =
          match List.find_opt (fun (w, _) -> V.equal w sv.W.sv_value) st.echoes with
          | Some (_, es) -> es
          | None -> []
        in
        if not (List.mem_assoc echoer existing) then begin
          (* The echo is checked against the payload of its own value:
             the memo is keyed by (dealer, value), so a signature over
             one value never counts toward another. *)
          let payload =
            match find_proposal st sv.W.sv_value with
            | Some p -> Some p.echo_payload
            | None -> if W.valid_signed_value pki sv then Some (W.echo_payload sv) else None
          in
          match payload with
          | Some payload when Wire.verify pki ~signer:echoer ~payload echo_sig ->
            add_proposal ~payload st sv;
            st.echoes <-
              (sv.W.sv_value, (echoer, echo_sig) :: existing)
              :: List.filter (fun (w, _) -> not (V.equal w sv.W.sv_value)) st.echoes
          | _ -> ()
        end
      end
    in
    let note_cert d (cert : W.echo_cert) =
      if cert.W.ec_signed.W.sv_dealer = d then begin
        let st = states.(d) in
        let v' = cert.W.ec_signed.W.sv_value in
        if
          (not (List.exists (fun (w, _) -> V.equal w v') st.certs))
          && W.valid_echo_cert pki ~threshold:quorum cert
        then begin
          add_proposal st cert.W.ec_signed;
          st.certs <- (v', cert) :: st.certs
        end
      end
    in
    (* Round 1: dealer role. *)
    let me = R.id ctx in
    let my_sv =
      {
        W.sv_dealer = me;
        sv_value = v;
        sv_sig = Pki.sign key (W.dealer_payload ~dealer:me v);
      }
    in
    let inbox1 = R.broadcast ctx (W.Gcast_init (tag, my_sv)) in
    Inbox.iteri inbox1 ~f:(fun sender msgs ->
        List.iter
          (function
            | W.Gcast_init (tg, sv)
              when tg = tag && sv.W.sv_dealer = sender && W.valid_signed_value pki sv ->
              let st = states.(sender) in
              add_proposal st sv;
              if Option.is_none st.direct then st.direct <- Some sv
            | _ -> ())
          msgs);
    (* Round 2: echo the directly received proposals. *)
    let my_echoes =
      List.filter_map
        (fun st ->
          match st.direct with
          | None -> None
          | Some sv ->
            let p = Option.get (find_proposal st sv.W.sv_value) in
            Some { W.ge_signed = sv; ge_sig = Pki.sign key p.echo_payload })
        (Array.to_list states)
    in
    let inbox2 = R.broadcast ctx (W.Gcast_echo (tag, my_echoes)) in
    Inbox.iteri inbox2 ~f:(fun sender msgs ->
        List.iter
          (function
            | W.Gcast_echo (tg, echoes) when tg = tag ->
              List.iter
                (fun { W.ge_signed; ge_sig } ->
                  note_echo ge_signed.W.sv_dealer sender ge_signed ge_sig)
                echoes
            | _ -> ())
          msgs);
    (* Assemble own certificates from round-2 echoes. *)
    let own_cert_round2 = Array.make n None in
    Array.iteri
      (fun d st ->
        List.iter
          (fun (w, echoers) ->
            if List.length echoers >= quorum && Option.is_none own_cert_round2.(d) then begin
              let signed =
                match find_proposal st w with Some p -> p.signed | None -> assert false
              in
              let cert = { W.ec_signed = signed; ec_echoes = echoers } in
              own_cert_round2.(d) <- Some cert;
              note_cert d cert
            end)
          st.echoes)
      states;
    let conflict_round2 = Array.map (fun st -> List.length st.proposals >= 2) states in
    (* Round 3: report certificates and conflicts. *)
    let my_reports =
      List.filter_map
        (fun d ->
          let cert = own_cert_round2.(d) in
          let conflict =
            match states.(d).proposals with
            | a :: b :: _ -> Some (a.signed, b.signed)
            | _ -> None
          in
          match (cert, conflict) with
          | None, None -> None
          | _ -> Some { W.gr_dealer = d; gr_cert = cert; gr_conflict = conflict })
        (List.init n (fun d -> d))
    in
    let inbox3 = R.broadcast ctx (W.Gcast_report (tag, my_reports)) in
    Inbox.iter inbox3 ~f:(fun msgs ->
        List.iter
          (function
            | W.Gcast_report (tg, reports) when tg = tag ->
              List.iter
                (fun { W.gr_dealer = d; gr_cert; gr_conflict } ->
                  if d >= 0 && d < n then begin
                    (match gr_cert with Some c -> note_cert d c | None -> ());
                    match gr_conflict with
                    | Some (a, b)
                      when a.W.sv_dealer = d && b.W.sv_dealer = d
                           && (not (V.equal a.W.sv_value b.W.sv_value))
                           && W.valid_signed_value pki a && W.valid_signed_value pki b ->
                      note_proposal d a;
                      note_proposal d b
                    | _ -> ()
                  end)
                reports
            | _ -> ())
          msgs);
    (* Deliver per dealer. *)
    Array.mapi
      (fun d st ->
        let conflict_final = List.length st.proposals >= 2 in
        match (own_cert_round2.(d), conflict_round2.(d) || conflict_final) with
        | Some cert, false -> Some (cert.W.ec_signed.W.sv_value, 2)
        | _ -> (
          match st.certs with
          | [ (w, _) ] -> Some (w, 1)
          | [] | _ :: _ :: _ -> None))
      states

  module Ps = Phase_span.Make (R)

  let run ctx ~pki ~key ~t ~tag v =
    Ps.run ctx "gc" @@ fun () ->
    let n = R.n ctx in
    let quorum = n - t in
    let deliveries = gradecast ctx ~pki ~key ~t ~tag v in
    (* Graded consensus decision. *)
    let level_count ~min_level w =
      Array.fold_left
        (fun acc -> function
          | Some (w', lvl) when lvl >= min_level && V.equal w w' -> acc + 1
          | _ -> acc)
        0 deliveries
    in
    let candidate =
      Array.fold_left
        (fun acc d ->
          match (acc, d) with
          | Some _, _ -> acc
          | None, Some (w, _) when level_count ~min_level:1 w >= quorum -> Some w
          | None, _ -> None)
        None deliveries
    in
    match candidate with
    | Some w -> if level_count ~min_level:2 w >= quorum then (w, 1) else (w, 0)
    | None -> (v, 0)
end
