module Table = Bap_stats.Table
module Summary = Bap_stats.Summary
module Hash = Bap_stats.Hash

let test_table_alignment () =
  let rendered =
    Table.render ~headers:[ "a"; "bee" ] [ [ "xx"; "y" ]; [ "1"; "22222" ] ]
  in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  (* Every line has the same width. *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_pads_short_rows () =
  let rendered = Table.render ~headers:[ "a"; "b"; "c" ] [ [ "only" ] ] in
  Alcotest.(check bool) "renders" true (String.length rendered > 0)

let test_summary () =
  let s = Summary.of_ints [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "count" 4 s.Summary.count;
  Alcotest.(check int) "min" 1 s.Summary.min;
  Alcotest.(check int) "max" 4 s.Summary.max;
  Alcotest.(check int) "total" 10 s.Summary.total;
  Alcotest.(check (float 0.001)) "mean" 2.5 s.Summary.mean

let test_summary_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_ints: empty") (fun () ->
      ignore (Summary.of_ints []))

let test_mean_string () =
  Alcotest.(check string) "one decimal" "2.5" (Summary.mean_string [ 1; 2; 3; 4 ])

let test_summary_merge () =
  (* Merging per-job partial aggregates must equal aggregating the
     concatenated samples, whatever the split. *)
  let xs = [ 5; 1; 9; 2 ] and ys = [ 7; 3 ] in
  let merged = Summary.merge (Summary.of_ints xs) (Summary.of_ints ys) in
  let whole = Summary.of_ints (xs @ ys) in
  Alcotest.(check int) "count" whole.Summary.count merged.Summary.count;
  Alcotest.(check int) "min" whole.Summary.min merged.Summary.min;
  Alcotest.(check int) "max" whole.Summary.max merged.Summary.max;
  Alcotest.(check int) "total" whole.Summary.total merged.Summary.total;
  Alcotest.(check (float 1e-9)) "mean" whole.Summary.mean merged.Summary.mean;
  let parts = List.map (fun x -> Summary.of_ints [ x ]) (xs @ ys) in
  let folded = Summary.merge_all parts in
  Alcotest.(check (float 1e-9)) "merge_all mean" whole.Summary.mean folded.Summary.mean;
  Alcotest.(check int) "merge_all total" whole.Summary.total folded.Summary.total;
  Alcotest.check_raises "merge_all empty"
    (Invalid_argument "Summary.merge_all: empty") (fun () ->
      ignore (Summary.merge_all []))

let test_value_modules () =
  let module VI = Bap_core.Value.Int in
  let module VB = Bap_core.Value.Bool in
  let module VS = Bap_core.Value.String in
  Alcotest.(check bool) "int equal" true (VI.equal 3 3);
  Alcotest.(check bool) "int encode injective" false (VI.encode 1 = VI.encode 11);
  Alcotest.(check bool) "bool encode" true (VB.encode true <> VB.encode false);
  Alcotest.(check int) "string compare" 0 (VS.compare "x" "x")

(* djb2's pinned values, and the 30-bit cell seed: cutting the hash to
   30 bits equals masking every step, the fold bap_tables' cell seeds
   were defined by. *)
let test_djb2 () =
  Alcotest.(check int) "empty" 5381 (Hash.djb2 "");
  Alcotest.(check int) "a" ((5381 * 33) + 97) (Hash.djb2 "a");
  Alcotest.(check int) "wide" 1_759_571_940_035_842_499 (Hash.djb2 "7|doom|cell-3");
  Alcotest.(check int) "30-bit seed" 445_960_643
    (Bap_experiments.Common.seed_of_string "7|doom|cell-3")

let prop_seed_of_string_masks_every_step =
  Helpers.qcheck ~count:500 ~name:"seed_of_string = djb2 masked every step"
    QCheck2.Gen.string
    (fun s ->
      let per_step =
        String.fold_left (fun h c -> ((h * 33) + Char.code c) land 0x3FFFFFFF) 5381 s
      in
      Bap_experiments.Common.seed_of_string s = per_step
      && Hash.djb2 s >= 0)

let suite =
  [
    Alcotest.test_case "table alignment" `Quick test_table_alignment;
    Alcotest.test_case "table pads short rows" `Quick test_table_pads_short_rows;
    Alcotest.test_case "summary" `Quick test_summary;
    Alcotest.test_case "summary rejects empty" `Quick test_summary_empty;
    Alcotest.test_case "mean string" `Quick test_mean_string;
    Alcotest.test_case "summary merge" `Quick test_summary_merge;
    Alcotest.test_case "value domains" `Quick test_value_modules;
    Alcotest.test_case "djb2 pinned values" `Quick test_djb2;
    prop_seed_of_string_masks_every_step;
  ]
