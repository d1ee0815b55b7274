(* The benchmark's measuring kit: a monotonic nanosecond clock, order
   statistics, deterministic seed mixing, process memory readings, and
   the benchmark's own spans around the calls it makes into the layers'
   public functions. The program under test gets no new tracing. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, float_of_int (now_ns () - t0) *. 1e-9)

(* ---------- order statistics ---------- *)

(* Linear interpolation between closest ranks (numpy's default), so a
   quantile over a handful of samples is still a measured value. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> invalid_arg "Bcore.quantile: no samples"
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    let w = pos -. float_of_int lo in
    (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)

let median xs = quantile xs 0.5

(* ---------- seeds ---------- *)

(* A SplitMix64-style finaliser on 63-bit ints: every derived stream (spec
   seeds, pool permutations, payload values) is a pure function of the
   benchmark's --seed and a per-use salt. *)
let mix a b =
  let z = ref ((a * 0x1E3779B97F4A7C15) + b + 0x632BE59BD9B4E5) in
  z := (!z lxor (!z lsr 30)) * 0x3F58476D1CE4E5B9;
  z := (!z lxor (!z lsr 27)) * 0x14D049BB133111EB;
  (!z lxor (!z lsr 31)) land 0x3FFFFFFF

(* A seed-derived permutation of [0 .. k-1] (Fisher-Yates). *)
let permutation ~seed k =
  let a = Array.init k Fun.id in
  for i = k - 1 downto 1 do
    let j = mix seed i mod (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ---------- process memory ---------- *)

(* VmHWM of this process, in MiB: the peak resident set since start. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

(* ---------- output directory ---------- *)

(* Everything the benchmark writes (span dumps, serve journals) lives
   under this directory of the checkout; the root .gitignore names it. *)
let out_dir = "_perfbench"

let out_path name =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Filename.concat out_dir name

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* ---------- the benchmark's own spans ---------- *)

module Tel = Bap_telemetry.Telemetry

(* [span name f] runs [f] inside one of the benchmark's own spans and
   returns its result with its duration in seconds. The span is an
   ordinary Telemetry span of category "perfbench", so it is recorded
   (with its parent, by nesting, and its wall stamps) only while a
   traced run has a sink installed; otherwise it is just a clock read
   on each side. *)
let span name f = Tel.span ~cat:"perfbench" ~name (fun () -> time f)

(* Run [f i] in batches until [budget_s] has passed and at least three
   batches were kept. The batch size doubles until one batch lasts a
   millisecond (smaller batches are not kept), so clock reads stay a
   negligible part of what is timed. Returns the median per-call time in
   microseconds. [f] must defeat dead-code elimination itself
   (Sys.opaque_identity). *)
let per_call_us ~budget_s f =
  let samples = ref [] and kept = ref 0 and batch = ref 1 in
  let stop = now_s () +. budget_s in
  let i = ref 0 in
  while !kept < 3 || now_s () < stop do
    let b = !batch in
    let (), d =
      time (fun () ->
          for _ = 1 to b do
            f !i;
            incr i
          done)
    in
    if d < 1e-3 then batch := 2 * b
    else begin
      incr kept;
      samples := (d /. float_of_int b *. 1e6) :: !samples
    end
  done;
  median !samples

(* ---------- calibration ---------- *)

(* Shared hosts drift in speed: on the 2-vCPU Firecracker microVM this
   benchmark was tuned on, a fixed loop ran 440-610 ms from one second
   to the next and whole runs of the same code differed by up to 1.5x
   within minutes. So every end-to-end time is judged against a
   calibration taken in the same run. A fixed kernel of the benchmark's
   own (short-lived list and string allocation and sorting - the shape
   of the program's hot paths, but no code of the repository) is timed
   at every boundary between measured regions, and all of a run's times
   are scaled by [reference_s / median of those timings]. The results
   read as times on a host where the kernel takes [reference_s]; a
   change to the program moves them exactly as it moves raw time. The
   kernel allocates only in the minor heap, so the size of the
   workload's major heap does not change its cost. *)

let reference_s = 0.045

let kernel () =
  let acc = ref 0 in
  for round = 1 to 2_000 do
    let l = List.sort compare (List.init 200 (fun i -> mix round i)) in
    acc := !acc + List.fold_left (fun a x -> a lxor x) 0 l;
    acc := !acc + String.length (string_of_int !acc)
  done;
  ignore (Sys.opaque_identity !acc)

module Cal = struct
  type t = { mutable samples : float list }

  let tick t = t.samples <- snd (time kernel) :: t.samples

  let start () =
    let t = { samples = [] } in
    tick t;
    t

  (* Multiply a run's times by this (divide its rates by it). *)
  let factor t =
    let m = median t.samples in
    Printf.eprintf "perfbench: calibration kernel median %.3f ms over %d samples\n%!" (m *. 1e3)
      (List.length t.samples);
    reference_s /. m
end
