(* Reachability check: every module under lib/ must be reachable from a
   shipped entry point, bin/*.ml or bench/*.ml.

   Usage: reach.exe FILE...
   where FILE runs over lib/*/*.ml, lib/*/*.mli, bin/*.ml and bench/*.ml.
   A lib module is reached when a reached file names it outside comments
   and string literals: as [M.x] or [open M] with M in scope (a module of
   the file's own library, or of a library the file opens), or by its
   full path [Ppnpart_lib.M]. A reached module's .ml and .mli are scanned
   in turn. Prints every unreached module that is not allowlisted, and
   every allowlisted module that is reached or gone, and exits 1 if there
   is any. *)

(* Modules no entry point reaches that stay on purpose. *)
let allowlist =
  [
    ( "Interp",
      "doc/language.md documents it as the user's validator for .pn \
       programs" );
    ( "Dataflow_check",
      "doc/language.md documents it as the user's validator for .pn \
       programs" );
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [s] with comments and string and character literals blanked out, so
   only code is left to scan. Comments nest, and a string inside a
   comment is lexed as a string, as the OCaml lexer does. *)
let code_only s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let blank i j = Bytes.fill b i (j - i) ' ' in
  (* Index just past the string literal whose opening quote is at [i]. *)
  let rec end_of_string i =
    if i >= n then n
    else if s.[i] = '\\' then end_of_string (i + 2)
    else if s.[i] = '"' then i + 1
    else end_of_string (i + 1)
  in
  (* Index just past a quoted string [{id|...|id}] opening at [i]. *)
  let end_of_quoted i =
    let j = ref (i + 1) in
    while !j < n && (s.[!j] = '_' || (s.[!j] >= 'a' && s.[!j] <= 'z')) do
      incr j
    done;
    if !j < n && s.[!j] = '|' then begin
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let lc = String.length close in
      let k = ref (!j + 1) in
      while !k + lc <= n && String.sub s !k lc <> close do
        incr k
      done;
      Some (min n (!k + lc))
    end
    else None
  in
  (* Length of the character literal starting at [i], if one does. *)
  let char_literal i =
    if i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' then Some 3
    else if i + 3 < n && s.[i + 1] = '\\' && s.[i + 3] = '\'' then Some 4
    else if i + 5 < n && s.[i + 1] = '\\' && s.[i + 5] = '\'' then Some 6
    else None
  in
  let rec code i =
    if i < n then
      match s.[i] with
      | '(' when i + 1 < n && s.[i + 1] = '*' -> comment (i + 2) 1 i
      | '"' ->
        let j = end_of_string (i + 1) in
        blank i j;
        code j
      | '{' -> (
        match end_of_quoted i with
        | Some j ->
          blank i j;
          code j
        | None -> code (i + 1))
      | '\'' -> (
        match char_literal i with
        | Some l ->
          blank i (i + l);
          code (i + l)
        | None -> code (i + 1))
      | _ -> code (i + 1)
  and comment i depth start =
    if i >= n then blank start n
    else if s.[i] = '(' && i + 1 < n && s.[i + 1] = '*' then
      comment (i + 2) (depth + 1) start
    else if s.[i] = '*' && i + 1 < n && s.[i + 1] = ')' then
      if depth = 1 then begin
        blank start (i + 2);
        code (i + 2)
      end
      else comment (i + 2) (depth - 1) start
    else if s.[i] = '"' then comment (end_of_string (i + 1)) depth start
    else comment (i + 1) depth start
  in
  code 0;
  Bytes.to_string b

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_capitalized w = w <> "" && w.[0] >= 'A' && w.[0] <= 'Z'

(* Every module path [code] names. Each dotted identifier chain
   ([a.B.C.d]) contributes the capitalized runs that start it or follow a
   lowercase component and are followed by a dot ([B.C] here); the chain
   after [open] contributes its capitalized run whole. *)
let paths code =
  let n = String.length code in
  let acc = ref [] in
  let opening = ref false in
  let i = ref 0 in
  while !i < n do
    if is_ident_char code.[!i] then begin
      (* Read the chain [w1.w2...wk], noting a trailing dot. *)
      let rec chain j comps =
        let e = ref j in
        while !e < n && is_ident_char code.[!e] do
          incr e
        done;
        let comps = String.sub code j (!e - j) :: comps in
        if !e < n && code.[!e] = '.' then
          if !e + 1 < n && is_ident_char code.[!e + 1] then chain (!e + 1) comps
          else (Array.of_list (List.rev comps), true, !e + 1)
        else (Array.of_list (List.rev comps), false, !e)
      in
      let comps, trailing_dot, e = chain !i [] in
      let k = Array.length comps in
      Array.iteri
        (fun j w ->
          let head = j = 0 || not (is_capitalized comps.(j - 1)) in
          let dotted = j < k - 1 || trailing_dot in
          if is_capitalized w && head && (dotted || !opening) then begin
            let l = ref j in
            while !l < k && is_capitalized comps.(!l) do
              incr l
            done;
            acc := Array.to_list (Array.sub comps j (!l - j)) :: !acc
          end)
        comps;
      opening := comps = [| "open" |];
      i := e
    end
    else begin
      (match code.[!i] with
      | ' ' | '\n' | '\t' | '\r' | '!' -> ()
      | _ -> opening := false);
      incr i
    end
  done;
  !acc

let module_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let dir_of path = Filename.basename (Filename.dirname path) in
  let in_lib path = dir_of (Filename.dirname path) = "lib" in
  (* Every library follows the naming rule lib/<dir>/ = ppnpart_<dir>; a
     library that broke it would show all its modules as unreached. *)
  let library_of path = String.capitalize_ascii ("ppnpart_" ^ dir_of path) in
  let sources = List.filter in_lib files in
  let module_id p = (library_of p, module_of_file p) in
  (* (library, module) for every lib module. *)
  let modules = List.sort_uniq compare (List.map module_id sources) in
  let libraries = List.sort_uniq compare (List.map fst modules) in
  (* The lib modules a file names: [Lib.M] always, a bare [M] when it is
     a module of the file's own library or of a library it opens. *)
  let references path =
    let ps = paths (code_only (read_file path)) in
    let scope =
      (if in_lib path then [ library_of path ] else [])
      @ List.filter_map
          (function [ l ] when List.mem l libraries -> Some l | _ -> None)
          ps
    in
    List.concat_map
      (function
        | l :: m :: _ when List.mem l libraries -> [ (l, m) ]
        | m :: _ -> List.map (fun l -> (l, m)) scope
        | [] -> [])
      ps
  in
  let reached = Hashtbl.create 64 in
  let rec visit path =
    List.iter
      (fun lm ->
        if List.mem lm modules && not (Hashtbl.mem reached lm) then begin
          Hashtbl.add reached lm ();
          List.iter visit (List.filter (fun p -> module_id p = lm) sources)
        end)
      (references path)
  in
  List.iter
    (fun p -> if dir_of p = "bin" || dir_of p = "bench" then visit p)
    files;
  let unreached =
    List.filter
      (fun ((_, m) as lm) ->
        not (Hashtbl.mem reached lm || List.mem_assoc m allowlist))
      modules
  in
  (* An allowlist entry whose module is gone or now reached must go. *)
  let stale =
    List.filter
      (fun (m, _) ->
        not
          (List.exists
             (fun ((_, m') as lm) -> m' = m && not (Hashtbl.mem reached lm))
             modules))
      allowlist
  in
  List.iter
    (fun (l, m) ->
      Printf.printf "unreached: %s.%s (no path from bin/ or bench/)\n" l m)
    unreached;
  List.iter
    (fun (m, _) -> Printf.printf "allowlisted but reached or absent: %s\n" m)
    stale;
  if unreached <> [] || stale <> [] then exit 1
