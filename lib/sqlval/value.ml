type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

let is_null = function Null -> true | Int _ | Float _ | String _ | Bool _ -> false

let type_name = function
  | Null -> "null"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | Bool _ -> "bool"

let type_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | String _ -> 4

(* Numeric comparison crosses Int/Float, as SQL does, and exactly: going
   through [Float.of_int] would round Int 2^53+1 to Float 2^53 and make
   the order intransitive. Int values lie in [-2^62, 2^62), where
   [Int.of_float] truncates exactly; NaN sorts below every number, as
   under [Float.compare]. *)
let compare_int_float x y =
  if Float.is_nan y || y < -0x1p62 then 1
  else if y >= 0x1p62 then -1
  else
    let t = Int.of_float y in
    if x <> t then Int.compare x t else Float.compare (Float.trunc y) y

let compare_total a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | String x, String y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> - compare_int_float y x
  | (Null | Int _ | Float _ | String _ | Bool _), _ ->
    Int.compare (type_rank a) (type_rank b)

let equal_null a b = compare_total a b = 0
let equal = equal_null

(* 3VL comparison: Unknown if either side is null; values of incompatible
   types are simply unequal (and not ordered). *)
let rel3 holds a b =
  match a, b with
  | Null, _ | _, Null -> Truth.Unknown
  | _ -> Truth.of_bool (holds (compare_total a b))

let eq3 a b = rel3 (fun c -> c = 0) a b
let ne3 a b = rel3 (fun c -> c <> 0) a b
let lt3 a b = rel3 (fun c -> c < 0) a b
let le3 a b = rel3 (fun c -> c <= 0) a b
let gt3 a b = rel3 (fun c -> c > 0) a b
let ge3 a b = rel3 (fun c -> c >= 0) a b

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f when Float.is_integer f && Float.abs f < 1e15 ->
    (* the ".0" keeps it a float when read back *)
    Printf.sprintf "%.1f" f
  | Float f ->
    (* the shortest %g precision from 6 up that reads back as [f]: plain
       %g prints 1234567.5 and 1234568.5 alike *)
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    let s = go 6 in
    (* a large integral float can come out as bare digits
       (1234567890123456 at %.16g), which would read back as an Int *)
    if String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s then
      s ^ ".0"
    else s
  | String s -> Printf.sprintf "'%s'" (String.concat "''" (String.split_on_char '\'' s))
  | Bool b -> if b then "TRUE" else "FALSE"

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* One parser for every CLI / corpus surface that reads a value from a
   bare atom (uniqsql --set NAME=VALUE, the difftest corpus): NULL, TRUE
   and FALSE case-insensitively, then integer, float, quoted SQL string
   (with '' undoubling), and finally a bare string. Inverse of
   [to_string] except that bare strings parse without quotes. *)
let of_sql_atom a =
  match String.uppercase_ascii a with
  | "NULL" -> Null
  | "TRUE" -> Bool true
  | "FALSE" -> Bool false
  | _ ->
    if String.length a >= 2 && a.[0] = '\'' && a.[String.length a - 1] = '\''
    then begin
      let body = String.sub a 1 (String.length a - 2) in
      let b = Buffer.create (String.length body) in
      let i = ref 0 in
      while !i < String.length body do
        Buffer.add_char b body.[!i];
        if body.[!i] = '\'' then incr i;
        incr i
      done;
      String (Buffer.contents b)
    end
    else
      match int_of_string_opt a with
      | Some n -> Int n
      | None ->
        (match float_of_string_opt a with
         | Some f -> Float f
         | None -> String a)
