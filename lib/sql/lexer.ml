type token =
  | IDENT of string
  | HOST of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | STAR
  | SEMI
  | OP_EQ
  | OP_NE
  | OP_LT
  | OP_LE
  | OP_GT
  | OP_GE
  | EOF

exception Lex_error of string * int

let token_to_string = function
  | IDENT s -> s
  | HOST s -> ":" ^ s
  | INT i -> string_of_int i
  | FLOAT f -> Printf.sprintf "%g" f
  | STRING s -> "'" ^ s ^ "'"
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | STAR -> "*"
  | SEMI -> ";"
  | OP_EQ -> "="
  | OP_NE -> "<>"
  | OP_LT -> "<"
  | OP_LE -> "<="
  | OP_GT -> ">"
  | OP_GE -> ">="
  | EOF -> "<eof>"

let pp_token ppf t = Format.pp_print_string ppf (token_to_string t)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'
let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let rec ident_end i = if i < n && is_ident_char input.[i] then ident_end (i + 1) else i in
  let rec digits_end i = if i < n && is_digit input.[i] then digits_end (i + 1) else i in
  let rec go i =
    if i >= n then ()
    else
      let c = input.[i] in
      if is_space c then go (i + 1)
      else if c = '-' && i + 1 < n && input.[i + 1] = '-' then
        (* SQL line comment *)
        let rec skip j = if j < n && input.[j] <> '\n' then skip (j + 1) else j in
        go (skip (i + 2))
      else if is_ident_start c then begin
        let j = ident_end i in
        emit (IDENT (String.uppercase_ascii (String.sub input i (j - i))));
        go j
      end
      else if is_digit c then begin
        let j = digits_end i in
        (* digits[.digits][(e|E)[+-]digits]: a fraction or an exponent
           makes it a float *)
        let at p ch = p < n && input.[p] = ch in
        let digit_at p = p < n && is_digit input.[p] in
        let k = if at j '.' && digit_at (j + 1) then digits_end (j + 1) else j in
        let m = if at (k + 1) '+' || at (k + 1) '-' then k + 2 else k + 1 in
        let k = if (at k 'e' || at k 'E') && digit_at m then digits_end m else k in
        if k > j then begin
          emit (FLOAT (float_of_string (String.sub input i (k - i))));
          go k
        end
        else begin
          (match int_of_string_opt (String.sub input i (j - i)) with
           | Some v -> emit (INT v)
           | None -> raise (Lex_error ("integer literal out of range", i)));
          go j
        end
      end
      else
        match c with
        | ':' ->
          if i + 1 < n && is_ident_start input.[i + 1] then begin
            let j = ident_end (i + 1) in
            emit (HOST (String.uppercase_ascii (String.sub input (i + 1) (j - i - 1))));
            go j
          end
          else raise (Lex_error ("expected host variable name after ':'", i))
        | '\'' ->
          (* string literal; '' escapes a quote *)
          let buf = Buffer.create 16 in
          let rec scan j =
            if j >= n then raise (Lex_error ("unterminated string literal", i))
            else if input.[j] = '\'' then
              if j + 1 < n && input.[j + 1] = '\'' then begin
                Buffer.add_char buf '\'';
                scan (j + 2)
              end
              else j + 1
            else begin
              Buffer.add_char buf input.[j];
              scan (j + 1)
            end
          in
          let j = scan (i + 1) in
          emit (STRING (Buffer.contents buf));
          go j
        | '(' -> emit LPAREN; go (i + 1)
        | ')' -> emit RPAREN; go (i + 1)
        | ',' -> emit COMMA; go (i + 1)
        | '.' -> emit DOT; go (i + 1)
        | '*' -> emit STAR; go (i + 1)
        | ';' -> emit SEMI; go (i + 1)
        | '=' -> emit OP_EQ; go (i + 1)
        | '<' ->
          if i + 1 < n && input.[i + 1] = '=' then begin emit OP_LE; go (i + 2) end
          else if i + 1 < n && input.[i + 1] = '>' then begin emit OP_NE; go (i + 2) end
          else begin emit OP_LT; go (i + 1) end
        | '>' ->
          if i + 1 < n && input.[i + 1] = '=' then begin emit OP_GE; go (i + 2) end
          else begin emit OP_GT; go (i + 1) end
        | '!' ->
          if i + 1 < n && input.[i + 1] = '=' then begin emit OP_NE; go (i + 2) end
          else raise (Lex_error ("unexpected '!'", i))
        | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, i))
  in
  go 0;
  List.rev (EOF :: !tokens)
