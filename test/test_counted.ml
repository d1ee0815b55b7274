(* Differential tests for the scalable core: the counted round behind
   [Runtime.run] must be byte-identical to the per-pair reference round
   behind [Runtime.reference_run] — same decisions, same rounds, the
   exact same message/bit accounting and the same trace events — across
   all four protocol families, under both the curated adversary pool and
   randomly generated chaos schedules (network-side faults included).
   Plus regression pins for buffer reuse across rounds and injection
   delivery order. *)

open Helpers
module Gen = Bap_prediction.Gen
module Inbox = Bap_sim.Inbox
module Schedule = Bap_chaos.Schedule
module Inj = Bap_chaos.Injector.Make (V) (S.W)
module Ds = Bap_baselines.Dolev_strong.Make (V) (S.W) (S.R)
module Pk = Bap_baselines.Phase_king.Make (V) (S.W) (S.R)

let outcomes_equal (a : 'r S.R.outcome) (b : 'r S.R.outcome) =
  a.S.R.n = b.S.R.n
  && a.S.R.faulty = b.S.R.faulty
  && a.S.R.decisions = b.S.R.decisions
  && a.S.R.decision_round = b.S.R.decision_round
  && a.S.R.rounds = b.S.R.rounds
  && a.S.R.honest_sent = b.S.R.honest_sent
  && a.S.R.honest_per_round = b.S.R.honest_per_round
  && a.S.R.honest_received = b.S.R.honest_received
  && a.S.R.honest_bits = b.S.R.honest_bits
  && a.S.R.adversary_sent = b.S.R.adversary_sent

let unauth_adversaries =
  [|
    (fun _rng -> Adversary.passive);
    (fun _rng -> Adversary.silent);
    (fun _rng -> Adversary.silent_after 3);
    (fun _rng -> Adv.equivocate ~v0:0 ~v1:1);
    (fun _rng -> Adv.value_push ~v:1);
    (fun _rng -> Adv.advice_liar);
    (fun _rng -> Adv.echo_chaos ~v0:0 ~v1:1);
    (fun _rng -> Adv.staggered_crash ~interval:5);
    (fun _rng -> Adv.king_killer);
    (fun _rng -> Adv.flip_flop);
    (fun rng -> Adv.adaptive_splitter ~n_minus_t:(4 + Rng.int rng 8) ~junk:(fun r -> -r));
  |]

let placements = [| Gen.Uniform; Gen.Focused; Gen.Scattered; Gen.All_wrong |]

(* The n range straddles the size below which [Runtime.run] ignores
   [group_key] (19), so both the keyed and the unkeyed counted round
   meet the reference. *)
let diff_gen =
  QCheck2.Gen.(
    let* n = int_range 4 22 in
    let t = (n - 1) / 3 in
    let* f = int_range 0 t in
    let* seed = int_range 0 1_000_000 in
    let* adv = int_range 0 (Array.length unauth_adversaries - 1) in
    let* placement = int_range 0 (Array.length placements - 1) in
    let* budget = int_range 0 (2 * n) in
    return (n, t, f, seed, adv, placement, budget))

(* The reference runs of the two wrapper stacks, built from the parts
   [S.run_unauth] and [S.run_auth] use. *)
let reference_unauth ?trace ?network ~adversary ~t ~faulty ~inputs ~advice () =
  S.R.reference_run ?trace ?network ~msg_size:S.W.size_bits ~n:(Array.length inputs)
    ~faulty ~adversary (fun ctx ->
      let i = S.R.id ctx in
      S.Wrapper.run (S.unauth_config ~t) ctx ~t inputs.(i) advice.(i))

let reference_auth ~adversary ~t ~faulty ~inputs ~advice () =
  let n = Array.length inputs in
  let pki = Pki.create ~n in
  S.R.reference_run ~msg_size:S.W.size_bits ~n ~faulty ~adversary:(adversary pki)
    (fun ctx ->
      let i = S.R.id ctx in
      S.Wrapper.run (S.auth_config ~pki ~key:(Pki.key pki i) ~t) ctx ~t inputs.(i) advice.(i))

let setup (n, _t, f, seed, _adv, placement, budget) =
  let rng = Rng.create seed in
  let faulty = random_faulty rng ~n ~f in
  let advice = Gen.generate ~rng ~n ~faulty ~budget placements.(placement) in
  let inputs = Array.init n (fun _ -> Rng.int rng 3) in
  (rng, faulty, advice, inputs)

let prop_wrapper_unauth =
  qcheck ~count:60 ~name:"wrapper-unauth: counted == concrete" diff_gen
    (fun ((n, t, _, _, adv, _, _) as cfg) ->
      let rng, faulty, advice, inputs = setup cfg in
      (* Built once: strategies like adaptive_splitter draw their
         parameters from the rng, so building twice would hand the two
         engines different adversaries. *)
      let adversary = unauth_adversaries.(adv) rng in
      let counted = S.run_unauth ~adversary ~t ~faulty ~inputs ~advice () in
      let concrete = reference_unauth ~adversary ~t ~faulty ~inputs ~advice () in
      ignore n;
      outcomes_equal counted concrete)

let prop_wrapper_auth =
  qcheck ~count:30 ~name:"wrapper-auth: counted == concrete" diff_gen
    (fun ((n, _, _, _, adv, _, _) as cfg) ->
      let rng, faulty, advice, inputs = setup cfg in
      let t = (n - 1) / 2 in
      let adversary =
        if adv mod 2 = 0 then fun pki -> Adv.prediction_attacker_auth ~pki ~v0:0 ~v1:1
        else fun _pki -> unauth_adversaries.(adv) rng
      in
      let counted, _ = S.run_auth ~adversary ~t ~faulty ~inputs ~advice () in
      let concrete = reference_auth ~adversary ~t ~faulty ~inputs ~advice () in
      outcomes_equal counted concrete)

let run_baseline ~n ~faulty ~adversary body =
  S.R.run ~msg_size:S.W.size_bits ~group_key:S.W.encode_plain ~n ~faulty ~adversary body

let reference_baseline ~n ~faulty ~adversary body =
  S.R.reference_run ~msg_size:S.W.size_bits ~n ~faulty ~adversary body

let prop_dolev_strong =
  qcheck ~count:30 ~name:"dolev-strong: counted == concrete" diff_gen
    (fun ((n, _, _, _, adv, _, _) as cfg) ->
      let rng, faulty, _, inputs = setup cfg in
      let t = (n - 1) / 2 in
      let adversary = unauth_adversaries.(adv) rng in
      let body pki ctx =
        let i = S.R.id ctx in
        Ds.agree ctx ~pki ~key:(Pki.key pki i) ~t ~tag:0 inputs.(i)
      in
      let counted =
        let pki = Pki.create ~n in
        run_baseline ~n ~faulty ~adversary (body pki)
      in
      let concrete =
        let pki = Pki.create ~n in
        reference_baseline ~n ~faulty ~adversary (body pki)
      in
      outcomes_equal counted concrete)

let prop_phase_king =
  qcheck ~count:30 ~name:"phase-king: counted == concrete" diff_gen
    (fun ((n, t, _, _, adv, _, _) as cfg) ->
      let rng, faulty, _, inputs = setup cfg in
      let adversary = unauth_adversaries.(adv) rng in
      let body ctx =
        let gc ctx ~tag v = S.Graded_unauth.run ctx ~t ~tag v in
        Pk.run ctx ~gc ~t ~base_tag:0 inputs.(S.R.id ctx)
      in
      let counted = run_baseline ~n ~faulty ~adversary body in
      let concrete = reference_baseline ~n ~faulty ~adversary body in
      outcomes_equal counted concrete)

let chaos_gen =
  QCheck2.Gen.(
    let* n = int_range 4 22 in
    let t = (n - 1) / 3 in
    let* f = int_range 1 (max 1 t) in
    let* seed = int_range 0 1_000_000 in
    let* count = int_range 1 8 in
    return (n, t, f, seed, count))

(* One chaos configuration: faults, inputs and a schedule whose
   network-side faults (if any) compile to the [network] hook. *)
let chaos_setup (n, _t, f, seed, count) =
  let rng = Rng.create seed in
  let faulty = random_faulty rng ~n ~f in
  let advice = Gen.perfect ~n ~faulty in
  let inputs = Array.init n (fun _ -> Rng.int rng 3) in
  let schedule = Schedule.gen rng ~n ~faulty ~rounds:40 ~count in
  let adversary = Inj.adversary ~mutant:Bap_chaos.Fuzz.mutant schedule in
  (faulty, advice, inputs, adversary, Inj.network schedule)

let prop_chaos_schedules =
  qcheck ~count:40 ~name:"fuzzed chaos schedules: counted == concrete" chaos_gen
    (fun ((_, t, _, _, _) as cfg) ->
      let faulty, advice, inputs, adversary, network = chaos_setup cfg in
      let counted = S.run_unauth ~adversary ?network ~t ~faulty ~inputs ~advice () in
      let concrete = reference_unauth ~adversary ?network ~t ~faulty ~inputs ~advice () in
      outcomes_equal counted concrete)

(* -- buffer reuse and delivery-order regression pins -- *)

module IR = Bap_sim.Runtime.Make (struct
  type t = int
end)

(* Messages are tagged with their round; if a buffer reused across
   rounds ever leaked, a stale tag would show up. *)
let no_leak_body rounds ctx =
  let me = IR.id ctx in
  let ok = ref true in
  for r = 1 to rounds do
    let inbox =
      if (me + r) mod 3 = 0 then IR.broadcast ctx ((r * 1000) + me)
      else IR.silent_round ctx
    in
    Inbox.iter inbox ~f:(List.iter (fun m -> if m / 1000 <> r then ok := false))
  done;
  !ok

let leak_gen =
  QCheck2.Gen.(
    let* n = int_range 2 9 in
    let* f = int_range 0 (max 0 ((n - 1) / 3)) in
    let* seed = int_range 0 1_000_000 in
    let* concrete = bool in
    return (n, f, seed, concrete))

let prop_arena_no_leak =
  qcheck ~count:80 ~name:"arena reuse never leaks a previous round" leak_gen
    (fun (n, f, seed, concrete) ->
      let rng = Rng.create seed in
      let faulty = random_faulty rng ~n ~f in
      let adversary = Bap_sim.Adversary.passive in
      let outcome =
        if concrete then IR.reference_run ~n ~faulty ~adversary (no_leak_body 12)
        else IR.run ~n ~faulty ~adversary (no_leak_body 12)
      in
      List.for_all snd (IR.honest_decisions outcome))

let inject_order_adversary =
  {
    Bap_sim.Adversary.name = "ordered-inject";
    make =
      (fun ~n:_ ~faulty:_ ->
        Bap_sim.Adversary.handlers
          ~inject:(fun view ->
            if view.Bap_sim.Adversary.round = 1 then
              [
                { Bap_sim.Adversary.src = 2; dst = 0; payload = 10 };
                { Bap_sim.Adversary.src = 2; dst = 0; payload = 11 };
                { Bap_sim.Adversary.src = 3; dst = 0; payload = 20 };
                { Bap_sim.Adversary.src = 2; dst = 0; payload = 12 };
              ]
            else [])
          ());
  }

let test_inject_order ~reference () =
  (* The puppets' own broadcasts come first, then the injected messages
     in injection order — pinned so D003-style reordering can't creep
     in. *)
  let body ctx =
    let inbox = IR.broadcast ctx (100 + IR.id ctx) in
    (Inbox.get inbox 2, Inbox.get inbox 3)
  in
  let n = 5 and faulty = [| 2; 3 |] and adversary = inject_order_adversary in
  let outcome =
    if reference then IR.reference_run ~n ~faulty ~adversary body
    else IR.run ~n ~faulty ~adversary body
  in
  let from2, from3 =
    match outcome.IR.decisions.(0) with Some d -> d | None -> Alcotest.fail "no decision"
  in
  Alcotest.(check (list int)) "broadcast then injects, in order" [ 102; 10; 11; 12 ] from2;
  Alcotest.(check (list int)) "second faulty sender" [ 103; 20 ] from3;
  let from2', _ =
    match outcome.IR.decisions.(1) with Some d -> d | None -> Alcotest.fail "no decision"
  in
  Alcotest.(check (list int)) "bystander got only the broadcast" [ 102 ] from2'

let test_counted_shares_inbox () =
  (* Sanity: with pure broadcasts and no adversary the counted engine
     groups everything — agreement-relevant reads still see all n
     senders. *)
  let outcome =
    IR.run ~n:6 ~faulty:[||] ~adversary:Bap_sim.Adversary.passive (fun ctx ->
        let inbox = IR.broadcast ctx 7 in
        let votes = Inbox.first inbox ~f:(fun m -> Some m) in
        (Inbox.count votes ~eq:Int.equal 7, Inbox.senders votes))
  in
  Array.iter
    (function
      | Some (c, senders) ->
        Alcotest.(check int) "all senders counted" 6 c;
        Alcotest.(check (list int)) "ascending senders" [ 0; 1; 2; 3; 4; 5 ] senders
      | None -> Alcotest.fail "no decision")
    outcome.IR.decisions

let prop_chaos_traces =
  qcheck ~count:30 ~name:"chaos schedules: counted trace == reference trace" chaos_gen
    (fun ((_, t, _, _, _) as cfg) ->
      let faulty, advice, inputs, adversary, network = chaos_setup cfg in
      let counted_trace = Bap_sim.Trace.create ~limit:200_000 () in
      let reference_trace = Bap_sim.Trace.create ~limit:200_000 () in
      let counted =
        S.run_unauth ~adversary ?network ~trace:counted_trace ~t ~faulty ~inputs ~advice ()
      in
      let concrete =
        reference_unauth ~adversary ?network ~trace:reference_trace ~t ~faulty ~inputs
          ~advice ()
      in
      outcomes_equal counted concrete
      && Bap_sim.Trace.events counted_trace = Bap_sim.Trace.events reference_trace
      && Bap_sim.Trace.dropped counted_trace = Bap_sim.Trace.dropped reference_trace)

(* Every inbox every process reads (per sender, and as weighted votes
   that read the groups directly), under a network hook that drops,
   duplicates or reverses a pseudo-random subset of edges (self edges
   included) and leaves the rest physically unchanged. Payloads repeat
   across senders, so from n = 19 on the counted round groups them and
   the rewritten edges must leave their groups. *)
let prop_network_inboxes =
  qcheck ~count:60 ~name:"network hook: counted inboxes == reference inboxes"
    QCheck2.Gen.(
      let* n = int_range 2 24 in
      let* f = int_range 0 ((n - 1) / 3) in
      let* seed = int_range 0 1_000_000 in
      return (n, f, seed))
    (fun (n, f, seed) ->
      let faulty = random_faulty (Rng.create seed) ~n ~f in
      let network ~round ~src ~dst msgs =
        match (seed + (round * 7919) + (src * 131) + (dst * 17)) mod 7 with
        | 0 -> []
        | 1 -> msgs @ msgs
        | 2 -> List.rev (0 :: msgs)
        | _ -> msgs
      in
      let body ctx =
        List.init 6 (fun r ->
            let me = IR.id ctx in
            let inbox =
              if (me + r) mod 5 = 0 then IR.send_to ctx [ ((me + 1) mod n, r) ]
              else IR.broadcast_list ctx [ (r * 10) + (me mod 3); r ]
            in
            let votes = Inbox.first inbox ~f:(fun m -> Some m) in
            ( Inbox.to_array inbox,
              Inbox.fold_weighted votes ~init:0 ~f:(fun acc v k -> acc + (v * k)) ))
      in
      let adversary = Bap_sim.Adversary.silent_after 3 in
      let counted =
        IR.run ~network ~group_key:(fun m -> Some (string_of_int m)) ~n ~faulty ~adversary
          body
      in
      let reference = IR.reference_run ~network ~n ~faulty ~adversary body in
      counted.IR.decisions = reference.IR.decisions
      && counted.IR.honest_per_round = reference.IR.honest_per_round
      && counted.IR.honest_received = reference.IR.honest_received
      && counted.IR.adversary_sent = reference.IR.adversary_sent)

let suite =
  [
    prop_wrapper_unauth;
    prop_wrapper_auth;
    prop_dolev_strong;
    prop_phase_king;
    prop_chaos_schedules;
    prop_arena_no_leak;
    Alcotest.test_case "inject order pinned (concrete)" `Quick
      (test_inject_order ~reference:true);
    Alcotest.test_case "inject order pinned (counted)" `Quick
      (test_inject_order ~reference:false);
    Alcotest.test_case "counted shares one inbox" `Quick test_counted_shares_inbox;
    prop_chaos_traces;
    prop_network_inboxes;
  ]
