(* A small JSON reader for BENCHMARK.json and the result lines of child
   runs, producing the repository's [Trace.Json.t]. *)

open Trace.Json

exception Error of string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let err msg = raise (Error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let rec skip () =
    if !pos < n && (match text.[!pos] with ' ' | '\n' | '\r' | '\t' -> true | _ -> false)
    then begin
      incr pos;
      skip ()
    end
  in
  let expect c = if peek () = c then incr pos else err (Printf.sprintf "expected %c" c) in
  let literal word value =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else err "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        let c = peek () in
        incr pos;
        (match c with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !pos + 4 > n then err "bad escape";
           (match int_of_string_opt ("0x" ^ String.sub text !pos 4) with
            | Some code when Uchar.is_valid code -> Buffer.add_utf_8_uchar b (Uchar.of_int code)
            | _ -> err "bad escape");
           pos := !pos + 4
         | c -> Buffer.add_char b c);
        go ()
      | '\000' when !pos >= n -> err "unterminated string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && (match text.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
    do
      incr pos
    done;
    let s = String.sub text start (!pos - start) in
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with Some f -> Float f | None -> err "bad number")
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec members acc =
          skip ();
          let k = string () in
          skip ();
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; members ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> err "expected , or }"
        in
        members []
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then (incr pos; List [])
      else
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; List (List.rev (v :: acc))
          | _ -> err "expected , or ]"
        in
        items []
    | '"' -> String (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then err "trailing characters";
  v

let member key = function
  | Obj kvs -> (match List.assoc_opt key kvs with Some v -> v | None -> raise (Error ("missing " ^ key)))
  | _ -> raise (Error ("not an object looking up " ^ key))

let to_list = function List l -> l | _ -> raise (Error "expected a list")
let to_string = function String s -> s | _ -> raise (Error "expected a string")

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> raise (Error "expected a number")

let to_bool = function Bool b -> b | _ -> raise (Error "expected a boolean")
