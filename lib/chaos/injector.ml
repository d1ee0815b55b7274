(* The two interpreters of a fault {!Schedule}: Byzantine-side faults
   compile, one combinator each, to a composed [Bap_sim.Adversary.t];
   network-side faults compile to the runtime's [?network] hook. Both
   are pure functions of the schedule value — no hidden randomness — so
   a (seed, schedule) pair replays bit-identically.

   Split of responsibilities: the runtime applies the adversary only to
   the outboxes of *faulty* processes, so [Crash_at]/[Omit_to]/
   [Equivocate]/[Advice_flip] entries naming an honest process are
   silently inert (the model gives the adversary no handle on honest
   code). The network hook, by contrast, touches every edge — that is
   where envelope-probing faults on honest traffic live. *)

module Adversary = Bap_sim.Adversary
module Advice = Bap_prediction.Advice

module Make (V : Bap_core.Value.S) (W : Bap_core.Wire.S with type value = V.t) = struct
  (* -- Byzantine side -- *)

  let crash_at ~proc ~round : W.t Adversary.t =
    {
      Adversary.name = Printf.sprintf "crash(%d@%d)" proc round;
      make =
        (fun ~n:_ ~faulty:_ ->
          let filter view ~src outbox dst =
            if src = proc && view.Adversary.round >= round then [] else outbox dst
          in
          Adversary.handlers ~filter ());
    }

  let omit_to ~proc ~dst:victim ~first ~last : W.t Adversary.t =
    {
      Adversary.name = Printf.sprintf "omit(%d->%d@%d-%d)" proc victim first last;
      make =
        (fun ~n:_ ~faulty:_ ->
          let filter view ~src outbox dst =
            let r = view.Adversary.round in
            if src = proc && dst = victim && first <= r && r <= last then []
            else outbox dst
          in
          Adversary.handlers ~filter ());
    }

  let equivocate ~mutant ~proc ~first ~last ~salt : W.t Adversary.t =
    {
      Adversary.name = Printf.sprintf "equivocate(%d@%d-%d)" proc first last;
      make =
        (fun ~n:_ ~faulty:_ ->
          let filter view ~src outbox dst =
            let r = view.Adversary.round in
            if src = proc && first <= r && r <= last && dst mod 2 = 1 then
              List.map
                (function
                  | W.Gc_init (tg, v) -> W.Gc_init (tg, mutant salt v)
                  | W.Gc_echo (tg, v) -> W.Gc_echo (tg, mutant salt v)
                  | W.King (tg, v) -> W.King (tg, mutant salt v)
                  | W.Conc (tg, v, l) -> W.Conc (tg, mutant salt v, l)
                  | m -> m)
                (outbox dst)
            else outbox dst
          in
          Adversary.handlers ~filter ());
    }

  let advice_flip ~proc ~bit : W.t Adversary.t =
    {
      Adversary.name = Printf.sprintf "advice-flip(%d:%d)" proc bit;
      make =
        (fun ~n:_ ~faulty:_ ->
          let filter _view ~src outbox dst =
            if src = proc then
              List.map
                (function
                  | W.Advice a when Advice.length a > 0 ->
                    W.Advice (Advice.flip a (bit mod Advice.length a))
                  | m -> m)
                (outbox dst)
            else outbox dst
          in
          Adversary.handlers ~filter ());
    }

  (* [mutant salt v] must differ from [v] for the equivocation to bite;
     the engine supplies a domain-appropriate one. *)
  let adversary ~mutant schedule : W.t Adversary.t =
    schedule
    |> List.filter_map (function
         | Schedule.Crash_at { proc; round } -> Some (crash_at ~proc ~round)
         | Schedule.Omit_to { proc; dst; first; last } ->
           Some (omit_to ~proc ~dst ~first ~last)
         | Schedule.Equivocate { proc; first; last; salt } ->
           Some (equivocate ~mutant ~proc ~first ~last ~salt)
         | Schedule.Advice_flip { proc; bit } -> Some (advice_flip ~proc ~bit)
         | Schedule.Drop _ | Schedule.Duplicate _ | Schedule.Reorder _
         | Schedule.Corrupt _ ->
           None)
    |> Adversary.compose

  (* -- Network side -- *)

  let flip_bit bytes bit =
    let len = String.length bytes in
    if len = 0 then bytes
    else begin
      let bit = bit mod (8 * len) in
      let b = Bytes.of_string bytes in
      Bytes.set b (bit / 8)
        (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
      Bytes.to_string b
    end

  (* Corruption goes through the byte codec: encode, flip one bit,
     decode. A message that no longer parses is dropped — the model's
     clean failure for a garbled packet — and signature-carrying
     messages always drop because a corrupted signed message can never
     verify (signatures have no decoder by design). *)
  let corrupt_msg ~bit m =
    match W.encode_plain m with
    | None -> None
    | Some bytes -> W.decode_plain (flip_bit bytes bit)

  let hook schedule ~round ~src ~dst msgs =
    (* Self-delivery is process-local state, not network traffic. *)
    if src = dst || msgs = [] then msgs
    else
      List.fold_left
        (fun msgs fault ->
          match fault with
          | Schedule.Drop f when f.src = src && f.dst = dst && f.round = round -> []
          | Schedule.Duplicate f when f.src = src && f.dst = dst && f.round = round ->
            msgs @ msgs
          | Schedule.Reorder f when f.src = src && f.dst = dst && f.round = round ->
            List.rev msgs
          | Schedule.Corrupt f when f.src = src && f.dst = dst && f.round = round ->
            List.filter_map (corrupt_msg ~bit:f.bit) msgs
          | _ -> msgs)
        msgs schedule

  let network schedule =
    let edge_fault = function
      | Schedule.Drop _ | Duplicate _ | Reorder _ | Corrupt _ -> true
      | Crash_at _ | Omit_to _ | Equivocate _ | Advice_flip _ -> false
    in
    if List.exists edge_fault schedule then Some (hook schedule) else None
end
