(* Wire-format validation: committee certificates, message chains and
   Dolev-Strong chains must reject every tampering we can produce. *)

open Helpers
module W = S.W

let make_pki n = Pki.create ~n

let make_cert pki ~quorum ~member =
  {
    W.cc_member = member;
    cc_sigs =
      List.init quorum (fun j -> (j, Pki.sign (Pki.key pki j) (W.committee_payload member)));
  }

let test_committee_cert_valid () =
  let pki = make_pki 8 in
  let cert = make_cert pki ~quorum:3 ~member:5 in
  Alcotest.(check bool) "valid" true (W.valid_committee_cert pki ~quorum:3 cert)

let test_committee_cert_underfull () =
  let pki = make_pki 8 in
  let cert = make_cert pki ~quorum:2 ~member:5 in
  Alcotest.(check bool) "too few sigs" false (W.valid_committee_cert pki ~quorum:3 cert)

let test_committee_cert_duplicate_signers () =
  let pki = make_pki 8 in
  let s = Pki.sign (Pki.key pki 1) (W.committee_payload 5) in
  let cert = { W.cc_member = 5; cc_sigs = [ (1, s); (1, s); (1, s) ] } in
  Alcotest.(check bool) "duplicates rejected" false
    (W.valid_committee_cert pki ~quorum:3 cert)

let test_committee_cert_wrong_member () =
  let pki = make_pki 8 in
  let cert = make_cert pki ~quorum:3 ~member:5 in
  let stolen = { cert with W.cc_member = 6 } in
  Alcotest.(check bool) "sigs bound to member" false
    (W.valid_committee_cert pki ~quorum:3 stolen)

let make_root pki ~quorum ~sender v =
  let cert = make_cert pki ~quorum ~member:sender in
  let link_sig = Pki.sign (Pki.key pki sender) (W.chain_root_payload v cert) in
  W.Chain_root { value = v; cert; link_sig }

let extend pki ~quorum ~signer chain =
  let cert = make_cert pki ~quorum ~member:signer in
  let link_sig = Pki.sign (Pki.key pki signer) (W.chain_link_payload chain cert) in
  W.Chain_link { prev = chain; signer; cert; link_sig }

let test_chain_valid () =
  let pki = make_pki 8 in
  let c = make_root pki ~quorum:3 ~sender:4 77 in
  let c2 = extend pki ~quorum:3 ~signer:5 c in
  Alcotest.(check bool) "root valid" true (W.valid_chain pki ~quorum:3 ~sender:4 ~length:1 c);
  Alcotest.(check bool) "link valid" true (W.valid_chain pki ~quorum:3 ~sender:4 ~length:2 c2);
  Alcotest.(check int) "value" 77 (W.chain_value c2);
  Alcotest.(check (list int)) "signers" [ 4; 5 ] (W.chain_signers c2)

let test_chain_wrong_length () =
  let pki = make_pki 8 in
  let c = make_root pki ~quorum:3 ~sender:4 77 in
  Alcotest.(check bool) "length mismatch" false
    (W.valid_chain pki ~quorum:3 ~sender:4 ~length:2 c)

let test_chain_wrong_sender () =
  let pki = make_pki 8 in
  let c = make_root pki ~quorum:3 ~sender:4 77 in
  Alcotest.(check bool) "sender mismatch" false
    (W.valid_chain pki ~quorum:3 ~sender:5 ~length:1 c)

let test_chain_value_tamper () =
  let pki = make_pki 8 in
  match make_root pki ~quorum:3 ~sender:4 77 with
  | W.Chain_root r ->
    let tampered = W.Chain_root { r with value = 78 } in
    Alcotest.(check bool) "tampered value rejected" false
      (W.valid_chain pki ~quorum:3 ~sender:4 ~length:1 tampered)
  | W.Chain_link _ -> Alcotest.fail "unexpected"

let test_chain_duplicate_signer () =
  let pki = make_pki 8 in
  let c = make_root pki ~quorum:3 ~sender:4 77 in
  let c2 = extend pki ~quorum:3 ~signer:4 c in
  Alcotest.(check bool) "duplicate signer rejected" false
    (W.valid_chain pki ~quorum:3 ~sender:4 ~length:2 c2)

let test_chain_foreign_cert () =
  let pki = make_pki 8 in
  let c = make_root pki ~quorum:3 ~sender:4 77 in
  (* Signer 5 extends but presents 6's certificate. *)
  let cert6 = make_cert pki ~quorum:3 ~member:6 in
  let link_sig = Pki.sign (Pki.key pki 5) (W.chain_link_payload c cert6) in
  let c2 = W.Chain_link { prev = c; signer = 5; cert = cert6; link_sig } in
  Alcotest.(check bool) "cert must match signer" false
    (W.valid_chain pki ~quorum:3 ~sender:4 ~length:2 c2)

(* Signatures embed in later payloads at a constant size, so a committee
   chain's payload grows by the same bytes per link (the paper's Sec 8.1
   cost model), not by a copy of the whole prefix. *)
let test_chain_grows_linearly () =
  let n = 31 and t = 12 and links = 9 in
  let quorum = t + 1 in
  let pki = make_pki n in
  let honest k payload = Pki.sign (Pki.key pki k) payload in
  (* Link k is signed by process k; returns the chain and the payload
     each link 1 .. links-1 signed. *)
  let build ?(sign_link = honest) v =
    let rec go chain k payloads =
      if k = links then (chain, List.rev payloads)
      else
        let cert = make_cert pki ~quorum ~member:k in
        let payload = W.chain_link_payload chain cert in
        let link_sig = sign_link k payload in
        go (W.Chain_link { prev = chain; signer = k; cert; link_sig }) (k + 1) (payload :: payloads)
    in
    go (make_root pki ~quorum ~sender:0 v) 1 []
  in
  let chain, payloads = build 77 in
  let sizes = List.map String.length payloads in
  let rec steps = function a :: (b :: _ as rest) -> (b - a) :: steps rest | _ -> [] in
  let steps = steps sizes in
  Alcotest.(check (list int)) "same bytes per link" (List.map (fun _ -> List.hd steps) steps) steps;
  let last = List.nth sizes (List.length sizes - 1) in
  Alcotest.(check bool) (Printf.sprintf "9-link payload %d B under 8 kB" last) true (last < 8_000);
  Alcotest.(check bool) "9-link chain valid" true
    (W.valid_chain pki ~quorum ~sender:0 ~length:links chain);
  (* Link 4 carries its signer's signature over the same position of a
     chain with another root value; every later link signs over that
     swapped signature, so link 4 alone is at fault. *)
  let _, other = build 78 in
  let swapped, _ =
    build 77 ~sign_link:(fun k payload ->
        if k = 4 then honest k (List.nth other (k - 1)) else honest k payload)
  in
  Alcotest.(check bool) "swapped link signature rejected" false
    (W.valid_chain pki ~quorum ~sender:0 ~length:links swapped)

let make_ds_root pki ~sender v =
  let link_sig = Pki.sign (Pki.key pki sender) (W.ds_root_payload ~sender v) in
  W.Ds_root { sender; value = v; link_sig }

let ds_extend pki ~signer chain =
  let link_sig = Pki.sign (Pki.key pki signer) (W.ds_link_payload chain) in
  W.Ds_link { prev = chain; signer; link_sig }

let test_ds_chain_valid () =
  let pki = make_pki 6 in
  let c = make_ds_root pki ~sender:0 9 in
  let c2 = ds_extend pki ~signer:1 c in
  let c3 = ds_extend pki ~signer:2 c2 in
  Alcotest.(check bool) "length 3 valid" true
    (W.valid_ds_chain pki ~sender:0 ~length:3 c3);
  Alcotest.(check int) "value" 9 (W.ds_chain_value c3);
  Alcotest.(check (list int)) "signers in order" [ 0; 1; 2 ] (W.ds_chain_signers c3)

let test_ds_chain_duplicate () =
  let pki = make_pki 6 in
  let c = make_ds_root pki ~sender:0 9 in
  let c2 = ds_extend pki ~signer:0 c in
  Alcotest.(check bool) "duplicate signer rejected" false
    (W.valid_ds_chain pki ~sender:0 ~length:2 c2)

let test_ds_chain_tamper () =
  let pki = make_pki 6 in
  match make_ds_root pki ~sender:0 9 with
  | W.Ds_root r ->
    let tampered = W.Ds_root { r with value = 10 } in
    Alcotest.(check bool) "tamper rejected" false
      (W.valid_ds_chain pki ~sender:0 ~length:1 tampered)
  | W.Ds_link _ -> Alcotest.fail "unexpected"

let test_echo_cert () =
  let pki = make_pki 6 in
  let sv =
    {
      W.sv_dealer = 2;
      sv_value = 5;
      sv_sig = Pki.sign (Pki.key pki 2) (W.dealer_payload ~dealer:2 5);
    }
  in
  Alcotest.(check bool) "signed value valid" true (W.valid_signed_value pki sv);
  let cert =
    {
      W.ec_signed = sv;
      ec_echoes = List.init 4 (fun j -> (j, Pki.sign (Pki.key pki j) (W.echo_payload sv)));
    }
  in
  Alcotest.(check bool) "echo cert valid" true (W.valid_echo_cert pki ~threshold:4 cert);
  Alcotest.(check bool) "higher threshold fails" false
    (W.valid_echo_cert pki ~threshold:5 cert);
  (* Tampered inner value invalidates the dealer signature. *)
  let bad = { cert with W.ec_signed = { sv with W.sv_value = 6 } } in
  Alcotest.(check bool) "tampered dealer value" false
    (W.valid_echo_cert pki ~threshold:4 bad);
  (* One echoer signs dealer 3's echo payload for the same value: the
     certificate checks every echo against its own dealer's payload. *)
  let other =
    {
      W.sv_dealer = 3;
      sv_value = 5;
      sv_sig = Pki.sign (Pki.key pki 3) (W.dealer_payload ~dealer:3 5);
    }
  in
  let crossed =
    {
      cert with
      W.ec_echoes =
        List.map
          (fun (j, s) -> if j = 1 then (j, Pki.sign (Pki.key pki j) (W.echo_payload other)) else (j, s))
          cert.W.ec_echoes;
    }
  in
  Alcotest.(check bool) "echo over another dealer's payload" false
    (W.valid_echo_cert pki ~threshold:4 crossed)

let suite =
  [
    Alcotest.test_case "committee cert valid" `Quick test_committee_cert_valid;
    Alcotest.test_case "committee cert underfull" `Quick test_committee_cert_underfull;
    Alcotest.test_case "committee cert duplicate signers" `Quick
      test_committee_cert_duplicate_signers;
    Alcotest.test_case "committee cert wrong member" `Quick test_committee_cert_wrong_member;
    Alcotest.test_case "chain valid" `Quick test_chain_valid;
    Alcotest.test_case "chain wrong length" `Quick test_chain_wrong_length;
    Alcotest.test_case "chain wrong sender" `Quick test_chain_wrong_sender;
    Alcotest.test_case "chain value tamper" `Quick test_chain_value_tamper;
    Alcotest.test_case "chain duplicate signer" `Quick test_chain_duplicate_signer;
    Alcotest.test_case "chain foreign certificate" `Quick test_chain_foreign_cert;
    Alcotest.test_case "ds chain valid" `Quick test_ds_chain_valid;
    Alcotest.test_case "ds chain duplicate signer" `Quick test_ds_chain_duplicate;
    Alcotest.test_case "ds chain tamper" `Quick test_ds_chain_tamper;
    Alcotest.test_case "echo certificates" `Quick test_echo_cert;
    Alcotest.test_case "chain payload grows linearly" `Quick test_chain_grows_linearly;
  ]
