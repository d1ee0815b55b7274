(* Workloads wrapper-n2000 and auth-n31: whole wrapper instances (Alg 1)
   run serially, one after another, on the stack the repository ships.

   Instance seeds come from a fixed pool whose (rounds, msgs) outcome is
   pinned below; the benchmark's --seed picks a permutation of the pool,
   so every run draws a different instance order while each instance
   still has an exact fingerprint. An instance seed fixes the faulty set
   (random, silent), the inputs and the placement of the advice errors. *)

module C = Bap_experiments.Common
module S = C.S

type kind = Unauth | Auth

type params = {
  kind : kind;
  n : int;
  t : int;
  f : int;
  m : int;  (** target misclassified processes *)
  pins : (int * int) array;  (** (rounds, honest msgs) per pool index *)
}

let pool_seed i = 0x5eed + (1009 * i)

let wrapper_n2000 =
  {
    kind = Unauth;
    n = 2000;
    t = 666;
    f = 166;
    m = 40;
    pins = Pins.wrapper_n2000;
  }

let auth_n31 = { kind = Auth; n = 31; t = 12; f = 3; m = 2; pins = Pins.auth_n31 }

(* Self-test sizes: same code paths, instances of a few milliseconds. *)
let wrapper_tiny = { kind = Unauth; n = 64; t = 21; f = 5; m = 2; pins = Pins.wrapper_tiny }
let auth_tiny = { kind = Auth; n = 10; t = 3; f = 1; m = 1; pins = Pins.auth_tiny }

let workload p ~seed =
  C.make_workload ~faulty_mode:`Random ~rng:(C.Rng.create seed) ~n:p.n ~t:p.t ~f:p.f
    ~target_misclassified:p.m ()

type verdict = { rounds : int; msgs : int; agreement : bool; decided : bool }

let verdict p (w : C.workload) o =
  {
    rounds = o.S.R.rounds;
    msgs = o.S.R.honest_sent;
    agreement =
      S.agreement o && S.unanimous_validity ~inputs:w.C.inputs ~faulty:w.C.faulty o;
    decided = List.length (S.R.honest_decisions o) = p.n - p.f;
  }

let execute p (w : C.workload) =
  let silent = C.Adversary.silent in
  match p.kind with
  | Unauth ->
    verdict p w
      (S.run_unauth ~adversary:silent ~t:p.t ~faulty:w.C.faulty ~inputs:w.C.inputs
         ~advice:w.C.advice ())
  | Auth ->
    verdict p w
      (fst
         (S.run_auth ~adversary:(fun _ -> silent) ~t:p.t ~faulty:w.C.faulty
            ~inputs:w.C.inputs ~advice:w.C.advice ()))

(* Print the pool's fingerprints in the form Pins expects. *)
let print_pins p ~pool =
  for i = 0 to pool - 1 do
    let v = execute p (workload p ~seed:(pool_seed i)) in
    if not (v.agreement && v.decided) then
      failwith (Printf.sprintf "pool seed %d does not agree" i);
    Printf.printf "    (%d, %d);\n%!" v.rounds v.msgs
  done

(* Serial instances until [budget_s] is spent (at least three). Set-up
   is the input generation of each instance, timed on its own. Both are
   scaled by the run's calibration (Bcore.Cal), taken between instances. *)
let run p ~seed ~budget_s ~corrupt =
  let pool = Array.length p.pins in
  let order = Bcore.permutation ~seed:(Bcore.mix seed 0x77) pool in
  let acc = Tel_an.create () in
  let lat = ref [] and setup = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let cal = Bcore.Cal.start () in
  let stop = Bcore.now_s () +. budget_s in
  while !attempted < 3 || Bcore.now_s () < stop do
    let idx = order.(!attempted mod pool) in
    let w, s = Bcore.span "setup.workload" (fun () -> workload p ~seed:(pool_seed idx)) in
    let v, d = Tel_an.unit_ acc "instance" (fun () -> execute p w) in
    Bcore.Cal.tick cal;
    setup := s :: !setup;
    lat := d :: !lat;
    incr attempted;
    let rounds, msgs = p.pins.(idx) in
    let msgs = if corrupt then msgs + 1 else msgs in
    if not (v.agreement && v.decided && v.rounds = rounds && v.msgs = msgs) then begin
      incr failed;
      if !failed <= 3 then
        Printf.eprintf
          "perfbench: instance seed %d: agreement=%b decided=%b rounds=%d/%d msgs=%d/%d\n%!"
          (pool_seed idx) v.agreement v.decided v.rounds rounds v.msgs msgs
    end
  done;
  let k = Bcore.Cal.factor cal in
  let lat = List.map (fun d -> d *. k) !lat in
  {
    Outcome.attempted = !attempted;
    failed = !failed;
    e2e =
      [
        ("throughput_per_s", float_of_int (List.length lat) /. List.fold_left ( +. ) 0. lat);
        ("latency_p50_ms", Bcore.median lat *. 1e3);
        ("setup_s", Bcore.median !setup *. k);
      ];
    layer = Tel_an.metrics acc;
    primary_s = Bcore.median lat;
  }
