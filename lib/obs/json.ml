(** Minimal JSON support for the observability layer.

    The simulator's machine-readable surfaces (the [--stats-json] snapshot,
    the JSONL event trace, the bench baseline) only need flat-ish JSON with
    objects, arrays, strings, ints and floats. This module provides exactly
    that — a value type, a printer and a recursive-descent parser — so the
    emitted files can be validated in-tree (tests and the runtest smoke
    rule) without an external JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(** Two-space-indented rendering for files meant to be read by humans too
    (the [--stats-json] snapshot). Arrays of scalars stay on one line. *)
let to_string_pretty v =
  let buf = Buffer.create 1024 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let is_scalar = function
    | Null | Bool _ | Int _ | Float _ | String _ -> true
    | List _ | Obj _ -> false
  in
  let rec go ind v =
    match v with
    | List xs when List.for_all is_scalar xs -> write buf v
    | List [] | Obj [] -> write buf v
    | List xs ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (ind + 2);
          go (ind + 2) x)
        xs;
      Buffer.add_char buf '\n';
      pad ind;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (ind + 2);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          go (ind + 2) x)
        kvs;
      Buffer.add_char buf '\n';
      pad ind;
      Buffer.add_char buf '}'
    | _ -> write buf v
  in
  go 0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
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
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        match e with
        | '"' | '\\' | '/' -> Buffer.add_char buf e; go ()
        | 'n' -> Buffer.add_char buf '\n'; go ()
        | 'r' -> Buffer.add_char buf '\r'; go ()
        | 't' -> Buffer.add_char buf '\t'; go ()
        | 'b' -> Buffer.add_char buf '\b'; go ()
        | 'f' -> Buffer.add_char buf '\012'; go ()
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let code =
            try int_of_string ("0x" ^ hex)
            with _ -> fail "bad \\u escape"
          in
          (* non-BMP/multibyte fidelity is not needed for our own files *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
          go ()
        | _ -> fail "bad escape")
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> String (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_str = function String s -> Some s | _ -> None
