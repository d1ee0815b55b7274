(* Minimal JSON: a recursive-descent parser for the subset this project
   emits (no json dependency in the image) plus the escaping helper the
   emitters share. The one JSON module: the gate, the lint baseline,
   the telemetry sinks and bap_trace all agree on one wire format. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse of string

(* Deeper nesting than any emitter writes is rejected up front: the
   recursive descent would otherwise spend time (and stack) in
   proportion to adversarial input such as a megabyte of '['. *)
let max_depth = 512

(* UTF-8 of a code point below 0x10000. *)
let add_utf8 b cp =
  let byte x = Buffer.add_char b (Char.chr x) in
  if cp < 0x80 then byte cp
  else if cp < 0x800 then (
    byte (0xc0 lor (cp lsr 6));
    byte (0x80 lor (cp land 0x3f)))
  else (
    byte (0xe0 lor (cp lsr 12));
    byte (0x80 lor ((cp lsr 6) land 0x3f));
    byte (0x80 lor (cp land 0x3f)))

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  (* A \u escape, cursor on the 'u'. Surrogates (code points past the
     BMP) are not supported: no emitter writes them. *)
  let unicode_escape () =
    advance ();
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit = function
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let cp = ref 0 in
    for _ = 1 to 4 do
      cp := (!cp lsl 4) lor digit s.[!pos];
      advance ()
    done;
    if !cp >= 0xd800 && !cp <= 0xdfff then fail "unsupported surrogate escape";
    !cp
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'u' -> add_utf8 b (unicode_escape ())
        | Some 'n' -> Buffer.add_char b '\n'; advance ()
        | Some 't' -> Buffer.add_char b '\t'; advance ()
        | Some 'r' -> Buffer.add_char b '\r'; advance ()
        | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c; advance ()
        | _ -> fail "unsupported escape");
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when is_num c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value depth =
    skip_ws ();
    match peek () with
    | Some ('{' | '[') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (
        advance ();
        Obj [])
      else
        let rec fields acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (
        advance ();
        List [])
      else
        let rec items acc =
          let v = value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
    | None -> fail "unexpected end of input"
  in
  let v = value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_int = function Some (Num f) -> Some (int_of_float f) | _ -> None
let to_float = function Some (Num f) -> Some f | _ -> None
let to_bool = function Some (Bool b) -> Some b | _ -> None
let to_string = function Some (Str s) -> Some s | _ -> None
let to_list = function Some (List l) -> Some l | _ -> None

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b
