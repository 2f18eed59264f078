let log_src =
  Logs.Src.create "ppnpart.partition" ~doc:"Multi-level partitioning stack"

type constraints = { k : int; bmax : int; rmax : int }

let constraints ~k ~bmax ~rmax =
  if k < 1 then invalid_arg "Types.constraints: k < 1";
  if bmax < 0 then invalid_arg "Types.constraints: bmax < 0";
  if rmax < 0 then invalid_arg "Types.constraints: rmax < 0";
  { k; bmax; rmax }

let unconstrained ~k = constraints ~k ~bmax:max_int ~rmax:max_int

let check_partition ~n ~k part =
  if Array.length part <> n then
    invalid_arg "Types.check_partition: wrong length";
  for u = 0 to n - 1 do
    let p = part.(u) in
    if p < 0 || p >= k then
      invalid_arg "Types.check_partition: part label out of range"
  done

let parts_used part =
  let seen = Hashtbl.create 8 in
  Array.iter (fun p -> Hashtbl.replace seen p ()) part;
  Hashtbl.length seen

let pp_constraints ppf c =
  let pp_bound ppf b =
    if b = max_int then Format.fprintf ppf "inf" else Format.fprintf ppf "%d" b
  in
  Format.fprintf ppf "k=%d bmax=%a rmax=%a" c.k pp_bound c.bmax pp_bound
    c.rmax
