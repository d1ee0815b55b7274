(* The signed n-dealer gradecast underlying the authenticated graded
   consensus: per-dealer validity and the level-2 coherence property,
   under dealer equivocation and selective certificate revelation. *)

open Helpers
module W = S.W

let run_gradecast ?adversary ~n ~t ~faulty inputs =
  let pki = Pki.create ~n in
  let adversary =
    match adversary with Some make -> make pki | None -> Adversary.passive
  in
  let outcome =
    run_protocol ~adversary ~n ~faulty (fun ctx ->
        let i = S.R.id ctx in
        S.Graded_auth.gradecast ctx ~pki ~key:(Pki.key pki i) ~t ~tag:2 inputs.(i))
  in
  S.R.honest_decisions outcome

let test_honest_dealers_level2 () =
  let n = 9 and t = 4 in
  let inputs = Array.init n (fun i -> i * 3) in
  let faulty = [| 0; 2 |] in
  let decisions = run_gradecast ~n ~t ~faulty inputs in
  List.iter
    (fun (_, deliveries) ->
      Array.iteri
        (fun d slot ->
          if not (Array.mem d faulty) then
            Alcotest.(check (option (pair int int)))
              (Printf.sprintf "dealer %d at level 2" d)
              (Some (inputs.(d), 2))
              slot)
        deliveries)
    decisions

let test_silent_dealer_is_bot () =
  let n = 9 and t = 4 in
  let inputs = Array.init n (fun i -> i) in
  let decisions =
    run_gradecast ~adversary:(fun _ -> Adversary.silent) ~n ~t ~faulty:[| 3 |] inputs
  in
  List.iter
    (fun (_, deliveries) ->
      Alcotest.(check (option (pair int int))) "silent dealer" None deliveries.(3))
    decisions

(* An equivocating dealer signs different values for different halves. *)
let equivocating_dealer pki : Helpers.S.W.t Bap_sim.Adversary.t =
  Adversary.
    {
      name = "gcast-equivocator";
      make =
        (fun ~n:_ ~faulty ->
          let keys = Hashtbl.create 4 in
          Array.iter (fun j -> Hashtbl.replace keys j (Pki.key pki j)) faulty;
          let filter _view ~src outbox dst =
            List.map
              (function
                | W.Gcast_init (tg, sv) when sv.W.sv_dealer = src ->
                  let v = if dst mod 2 = 0 then 500 else 600 in
                  let key = Hashtbl.find keys src in
                  W.Gcast_init
                    ( tg,
                      {
                        W.sv_dealer = src;
                        sv_value = v;
                        sv_sig = Pki.sign key (W.dealer_payload ~dealer:src v);
                      } )
                | m -> m)
              (outbox dst)
          in
          handlers ~filter ());
    }

(* Dealer 0 equivocates: 500 to process 1, 600 to everyone else.
   Faulty process 4 echoes the 600 proposal in round 2; with [cross_sig]
   its echo signature is over the 500 proposal's payload. Inboxes are
   read in sender order, so every honest process has cached the echo
   payloads of both 500 and 600 when that echo arrives. The faulty
   processes send no other echoes and no reports, so 600 reaches the
   quorum of 3 echoes only if process 4's echo counts. [reported]
   collects the honest processes whose round-3 report carries their own
   certificate for 600. *)
let cross_value_echoer ~cross_sig ~reported pki : Helpers.S.W.t Bap_sim.Adversary.t =
  let signed w =
    {
      W.sv_dealer = 0;
      sv_value = w;
      sv_sig = Pki.sign (Pki.key pki 0) (W.dealer_payload ~dealer:0 w);
    }
  in
  Adversary.
    {
      name = "cross-value-echoer";
      make =
        (fun ~n ~faulty ->
          let filter _view ~src outbox dst =
            List.filter_map
              (function
                | W.Gcast_init (tg, _) when src = 0 ->
                  Some (W.Gcast_init (tg, signed (if dst = 1 then 500 else 600)))
                | W.Gcast_echo (tg, _) when src = 4 ->
                  let over = signed (if cross_sig then 500 else 600) in
                  let ge_sig = Pki.sign (Pki.key pki 4) (W.echo_payload over) in
                  Some (W.Gcast_echo (tg, [ { W.ge_signed = signed 600; ge_sig } ]))
                | W.Gcast_echo _ | W.Gcast_report _ -> None
                | m -> Some m)
              (outbox dst)
          in
          let inject view =
            List.iter
              (fun sender ->
                if not (Array.mem sender faulty) then
                  List.iter
                    (function
                      | W.Gcast_report (_, reports) ->
                        List.iter
                          (fun r ->
                            match r.W.gr_cert with
                            | Some c when r.W.gr_dealer = 0 && c.W.ec_signed.W.sv_value = 600 ->
                              reported := sender :: !reported
                            | _ -> ())
                          reports
                      | _ -> ())
                    (view.honest_out ~sender ~recipient:0))
              (List.init n Fun.id);
            []
          in
          handlers ~filter ~inject ());
    }

let test_echo_cannot_cross_values () =
  let n = 5 and t = 2 in
  let run ~cross_sig =
    let reported = ref [] in
    let decisions =
      run_gradecast
        ~adversary:(cross_value_echoer ~cross_sig ~reported)
        ~n ~t ~faulty:[| 0; 4 |] (Array.init n Fun.id)
    in
    (List.sort_uniq Int.compare !reported, List.map (fun (_, ds) -> ds.(0)) decisions)
  in
  let outcome = Alcotest.(pair (list int) (list (option (pair int int)))) in
  Alcotest.check outcome "an echo signed over 600 completes 600's certificate"
    ([ 1; 2; 3 ], [ Some (600, 1); Some (600, 1); Some (600, 1) ])
    (run ~cross_sig:false);
  Alcotest.check outcome "an echo signed over 500 never counts toward 600"
    ([], [ None; None; None ])
    (run ~cross_sig:true)

let prop_level2_coherence =
  qcheck ~count:40 ~name:"gradecast: level 2 anywhere forces same value everywhere"
    QCheck2.Gen.(
      let* n = int_range 5 13 in
      let t = max 1 ((n - 1) / 2) in
      let* f = int_range 0 t in
      let* seed = int_range 0 1_000_000 in
      let* which = int_range 0 2 in
      return (n, t, f, seed, which))
    (fun (n, t, f, seed, which) ->
      let rng = Rng.create seed in
      let faulty = random_faulty rng ~n ~f in
      let inputs = Array.init n (fun _ -> Rng.int rng 4) in
      let adversary pki =
        match which with
        | 0 -> Adversary.passive
        | 1 -> Adversary.silent
        | _ -> equivocating_dealer pki
      in
      let decisions = run_gradecast ~adversary ~n ~t ~faulty inputs in
      (* For each dealer: if any honest process delivered (v, 2), every
         honest process delivered v at level >= 1. *)
      List.for_all
        (fun d ->
          let level2 =
            List.find_map
              (fun (_, ds) ->
                match ds.(d) with Some (v, 2) -> Some v | _ -> None)
              decisions
          in
          match level2 with
          | None -> true
          | Some v ->
            List.for_all
              (fun (_, ds) ->
                match ds.(d) with Some (w, l) -> w = v && l >= 1 | None -> false)
              decisions)
        (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "honest dealers delivered at level 2" `Quick
      test_honest_dealers_level2;
    Alcotest.test_case "silent dealer delivers bot" `Quick test_silent_dealer_is_bot;
    prop_level2_coherence;
    Alcotest.test_case "echo signature cannot cross values" `Quick
      test_echo_cannot_cross_values;
  ]
