(* Shared machinery for the experiment sweeps (E1-E8 in DESIGN.md):
   a fixed integer-valued stack, workload construction with a target
   misclassification level, and result-row helpers. *)

module V = Bap_core.Value.Int
module S = Bap_core.Stack.Make (V)
module Adv = Bap_adversary.Strategies.Make (V) (S.W)
module B = Bap_baselines.Baseline_runs.Make (V)
module Gen = Bap_prediction.Gen
module Quality = Bap_prediction.Quality
module Advice = Bap_prediction.Advice
module Classification = Bap_core.Classification
module Rng = Bap_sim.Rng
module Adversary = Bap_sim.Adversary
module Table = Bap_stats.Table
module Summary = Bap_stats.Summary

type workload = {
  n : int;
  t : int;
  faulty : int array;
  inputs : int array;
  advice : Advice.t array;
  b : int;  (** Measured number of incorrect advice bits. *)
}

(* Budget that makes [m] processes misclassified when combined with the
   advice-liar adversary: each target needs majority-threshold minus the
   f colluding faulty votes. *)
let budget_for_misclassified ~n ~f m =
  let per_target = max 1 (Classification.majority_threshold n - f) in
  m * per_target

let make_workload ?placement ?(faulty_mode = `First_kings) ~rng ~n ~t ~f
    ~target_misclassified () =
  let faulty =
    match faulty_mode with
    | `Random -> Array.of_list (Rng.sample_without_replacement rng f n)
    | `First_kings ->
      (* Worst case for the early-stopping component: the faults occupy
         the first f king slots. *)
      Array.init f Fun.id
  in
  let inputs = Array.init n (fun _ -> Rng.int rng 2) in
  let per_target = max 1 (Classification.majority_threshold n - f) in
  let placement = Option.value placement ~default:(Gen.Targeted per_target) in
  let budget = budget_for_misclassified ~n ~f target_misclassified in
  let advice =
    if target_misclassified = 0 then Gen.perfect ~n ~faulty
    else Gen.generate ~rng ~n ~faulty ~budget placement
  in
  let b = (Quality.measure ~n ~faulty advice).Quality.b in
  { n; t; faulty; inputs; advice; b }

(* Run the unauthenticated stack on a workload; returns
   (decided_round, rounds, messages, agreement && validity). *)
let run_unauth ?(adversary = Adversary.silent) w =
  let o =
    S.run_unauth ~t:w.t ~faulty:w.faulty ~inputs:w.inputs ~advice:w.advice ~adversary ()
  in
  ( S.decision_round o,
    o.S.R.rounds,
    o.S.R.honest_sent,
    S.agreement o && S.unanimous_validity ~inputs:w.inputs ~faulty:w.faulty o,
    o )

let run_auth ?adversary w =
  let adversary = match adversary with Some a -> a | None -> fun _ -> Adversary.silent in
  let o, _ =
    S.run_auth ~t:w.t ~faulty:w.faulty ~inputs:w.inputs ~advice:w.advice ~adversary ()
  in
  ( S.decision_round o,
    o.S.R.rounds,
    o.S.R.honest_sent,
    S.agreement o && S.unanimous_validity ~inputs:w.inputs ~faulty:w.faulty o,
    o )

(* Measured misclassification level after the classification round, for
   reporting k_A next to B. *)
let measure_k_a ?(adversary = Adversary.silent) w =
  let outcome =
    S.R.run ~n:w.n ~faulty:w.faulty ~adversary (fun ctx ->
        S.Classify_p.run ctx w.advice.(S.R.id ctx))
  in
  let honest_classifications = S.R.honest_decisions outcome in
  let k_a, _, _ =
    Classification.k_counts ~n:w.n ~faulty:w.faulty ~honest_classifications
  in
  k_a

(* Cell RNG seeds from names: djb2 cut to 30 bits (equal to masking
   every step). Hashtbl.hash would also be deterministic within one
   binary, but its value is an implementation detail of the runtime — a
   compiler bump would silently reseed every sweep that used it. *)
let seed_of_string s = Bap_stats.Hash.djb2 s land 0x3FFFFFFF

let header title =
  Printf.printf "\n== %s ==\n" title

let fi = string_of_int
let ff f = Printf.sprintf "%.2f" f

module Plan = Bap_exec.Plan

(* The common experiment shape: independent cells, one table, rows in
   canonical cell order. Cells must not print (see [Plan]); the header
   and the table are emitted by [render] on the main domain. *)
let table_plan ~quick ~exp_id ~title ~headers cells =
  {
    Plan.exp_id;
    scope = Plan.scope_of_quick quick;
    cells;
    render =
      (fun results ->
        header title;
        Table.print ~headers (Plan.rows results));
  }
