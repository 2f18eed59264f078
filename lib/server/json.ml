type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

(* 2^53: every integer up to here is an exact float. *)
let max_exact = 9007199254740992.

(* Protocol frames nest at most 5 deep. The bound keeps a hostile line
   of brackets from recursing once per byte. *)
let max_depth = 64

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect ch =
    match peek () with
    | Some c when c = ch -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" ch)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some 'n' ->
          Buffer.add_char b '\n';
          advance ();
          go ()
        | Some 't' ->
          Buffer.add_char b '\t';
          advance ();
          go ()
        | Some 'r' ->
          Buffer.add_char b '\r';
          advance ();
          go ()
        | Some 'b' ->
          Buffer.add_char b '\b';
          advance ();
          go ()
        | Some 'f' ->
          Buffer.add_char b '\012';
          advance ();
          go ()
        | Some 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let hex = String.sub s (!pos + 1) 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 0x80 ->
            (* ASCII escapes decode; anything beyond stays verbatim —
               the protocol is ASCII end to end. *)
            Buffer.add_char b (Char.chr code)
          | _ -> Buffer.add_string b ("\\u" ^ hex));
          pos := !pos + 5;
          go ()
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
        | None -> fail "unterminated escape")
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    (* [float_of_string] is laxer than JSON: it also takes "01", "1.",
       ".5", "+1" and hex floats. Enforce the grammar's shape first. *)
    let ok =
      let l = String.length text in
      let i = if l > 0 && text.[0] = '-' then 1 else 0 in
      let digits j =
        let j' = ref j in
        while !j' < l && text.[!j'] >= '0' && text.[!j'] <= '9' do incr j' done;
        !j'
      in
      let j = digits i in
      j > i
      && (text.[i] <> '0' || j = i + 1)
      && (j = l
         ||
         let j =
           if text.[j] = '.' then (
             let j' = digits (j + 1) in
             if j' = j + 1 then -1 else j')
           else j
         in
         j = l
         || j > 0
            && (text.[j] = 'e' || text.[j] = 'E')
            &&
            let j = j + 1 in
            let j =
              if j < l && (text.[j] = '+' || text.[j] = '-') then j + 1 else j
            in
            digits j = l && l > j)
    in
    if not ok then fail ("bad number " ^ text)
    else
      match float_of_string_opt text with
      | Some f -> Num f
      | None -> fail ("bad number " ^ text)
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some ('{' | '[') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec go () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            go ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec go () =
          let v = parse_value (depth + 1) in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            go ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        go ();
        Arr (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* Integers are most of what the daemon prints (one per label), so they
   skip [Printf] and [string_of_int]: the digits go into the buffer one
   by one, most significant first (at most 16 deep below 2^53). *)
let rec add_digits b i =
  if i >= 10 then add_digits b (i / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))

let add_int b i =
  if i < 0 then begin
    Buffer.add_char b '-';
    add_digits b (-i)
  end
  else add_digits b i

(* Below 2^53 every integral float is an exact [int], and its digits are
   the ones "%.0f" would print, except for the sign of [-0.]. *)
let add_num b f =
  if Float.is_integer f && Float.abs f <= max_exact then
    if f = 0. && Float.sign_bit f then Buffer.add_string b "-0"
    else add_int b (int_of_float f)
  else Buffer.add_string b (Printf.sprintf "%.12g" f)

let add_int_array b a =
  Buffer.add_char b '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add_int b x)
    a;
  Buffer.add_char b ']'

let to_buffer b v =
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> add_num b f
    | Str s -> Ppnpart_obs.Trace_export.add_json_string b s
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        items;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Ppnpart_obs.Trace_export.add_json_string b k;
          Buffer.add_char b ':';
          go v)
        fields;
      Buffer.add_char b '}'
  in
  go v

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let int i = Num (float_of_int i)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= max_exact ->
    Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_arr = function Arr items -> Some items | _ -> None
