(* One large-n wrapper instance through the scalable core, timed.

   Shared by bap_scale (the CI scale-smoke probe) and bap_gate --write
   (the recorded bench trajectory): both need the same deterministic
   workload so the numbers are comparable across machines and commits.
   The workload is the unauthenticated stack with perfect advice and
   [f] silent faults — the configuration whose counted-path cost is
   dominated by the protocol itself rather than by per-pair adversary
   calls, i.e. the scaling regime the paper's message-complexity claims
   are about. *)

module V = Bap_core.Value.Int
module S = Bap_core.Stack.Make (V)
module Gen = Bap_prediction.Gen
module Rng = Bap_sim.Rng

type result = {
  n : int;
  f : int;
  rounds : int;
  msgs : int;
  bits : int;
  agreement : bool;
  decided : bool;  (* every honest process returned *)
  wall_ms : float;
}

let run ~n ~f () =
  let t = (n - 1) / 3 in
  let f = min f t in
  let rng = Rng.create ((17 * n) + f) in
  let faulty = Array.of_list (Rng.sample_without_replacement rng f n) in
  let advice = Gen.perfect ~n ~faulty in
  let inputs = Array.init n (fun i -> i mod 2) in
  let t0 = Unix.gettimeofday () in
  let o =
    S.run_unauth ~adversary:Bap_sim.Adversary.silent ~t ~faulty ~inputs ~advice ()
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let honest = List.length (S.R.honest_decisions o) in
  {
    n;
    f;
    rounds = o.S.R.rounds;
    msgs = o.S.R.honest_sent;
    bits = o.S.R.honest_bits;
    agreement = S.agreement o;
    decided = honest = n - f;
    wall_ms;
  }

let pp_line r =
  Printf.sprintf
    "bap_scale: n=%d f=%d rounds=%d msgs=%d bits=%d agreement=%b decided=%b wall_ms=%.1f"
    r.n r.f r.rounds r.msgs r.bits r.agreement r.decided r.wall_ms
