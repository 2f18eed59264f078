open Ppnpart_graph
open Ppnpart_partition

exception
  Violation of {
    site : string;
    field : string;
    expected : string;
    actual : string;
  }

let () =
  Printexc.register_printer (function
    | Violation { site; field; expected; actual } ->
      Some
        (Printf.sprintf
           "Check.Violation at %s: %s diverged (recomputed %s, incremental \
            %s)"
           site field expected actual)
    | _ -> None)

let fail ~site ~field ~expected ~actual =
  raise (Violation { site; field; expected; actual })

let diff_int ~site ~field ~expected ~actual =
  if expected <> actual then
    fail ~site ~field ~expected:(string_of_int expected)
      ~actual:(string_of_int actual)

let check_labels ~site g (c : Types.constraints) part =
  let n = Wgraph.n_nodes g in
  let k = c.Types.k in
  if Array.length part <> n then
    fail ~site ~field:"part.length" ~expected:(string_of_int n)
      ~actual:(string_of_int (Array.length part));
  Array.iteri
    (fun u p ->
      if p < 0 || p >= k then
        fail ~site
          ~field:(Printf.sprintf "part.(%d)" u)
          ~expected:(Printf.sprintf "label in [0,%d)" k)
          ~actual:(string_of_int p))
    part

let partition ?(site = "partition") g (c : Types.constraints) part =
  Ppnpart_obs.Counters.incr ("check." ^ site);
  check_labels ~site g c part

let part_state ?(site = "part_state") (st : Part_state.t) =
  Ppnpart_obs.Counters.incr ("check." ^ site);
  let g = st.Part_state.g in
  let c = st.Part_state.c in
  let part = st.Part_state.part in
  let k = c.Types.k in
  check_labels ~site g c part;
  (* Dependency order: the matrix feeds the bandwidth excess, the loads
     feed the resource excess — diffing upstream first makes [field]
     point at the root divergence, not a consequence of it. *)
  let bw = Metrics.bandwidth_matrix g ~k part in
  for p = 0 to k - 1 do
    for q = 0 to k - 1 do
      if bw.(p).(q) <> st.Part_state.bw.(p).(q) then
        fail ~site
          ~field:(Printf.sprintf "bw.(%d).(%d)" p q)
          ~expected:(string_of_int bw.(p).(q))
          ~actual:(string_of_int st.Part_state.bw.(p).(q))
    done
  done;
  let load = Metrics.part_resources g ~k part in
  for p = 0 to k - 1 do
    diff_int ~site
      ~field:(Printf.sprintf "load.(%d)" p)
      ~expected:load.(p) ~actual:st.Part_state.load.(p)
  done;
  let members = Array.make k 0 in
  Array.iter (fun p -> members.(p) <- members.(p) + 1) part;
  for p = 0 to k - 1 do
    diff_int ~site
      ~field:(Printf.sprintf "members.(%d)" p)
      ~expected:members.(p) ~actual:st.Part_state.members.(p)
  done;
  diff_int ~site ~field:"cut" ~expected:(Metrics.cut g part)
    ~actual:st.Part_state.cut;
  diff_int ~site ~field:"bw_excess"
    ~expected:(Metrics.bandwidth_excess g c part)
    ~actual:st.Part_state.bw_excess;
  diff_int ~site ~field:"res_excess"
    ~expected:(Metrics.resource_excess g c part)
    ~actual:st.Part_state.res_excess;
  let n = Wgraph.n_nodes g in
  let rmax = c.Types.rmax in
  (* Connectivity rows and external degrees: recompute each node's row
     by a neighbour sweep and diff against the incremental cache. *)
  let row = Array.make k 0 in
  let n_active = ref 0 in
  let max_wdeg = ref 1 in
  for u = 0 to n - 1 do
    Array.fill row 0 k 0;
    let wdeg = ref 0 in
    Wgraph.iter_neighbors g u (fun v w ->
        row.(part.(v)) <- row.(part.(v)) + w;
        wdeg := !wdeg + w);
    if !wdeg > !max_wdeg then max_wdeg := !wdeg;
    for q = 0 to k - 1 do
      diff_int ~site
        ~field:(Printf.sprintf "conn.(%d).(%d)" u q)
        ~expected:row.(q)
        ~actual:st.Part_state.conn.((u * k) + q)
    done;
    diff_int ~site
      ~field:(Printf.sprintf "ed.(%d)" u)
      ~expected:(!wdeg - row.(part.(u)))
      ~actual:st.Part_state.ed.(u);
    (* Active-set invariant: present iff boundary or over-Rmax part. *)
    let should = st.Part_state.ed.(u) > 0 || load.(part.(u)) > rmax in
    let pos = st.Part_state.apos.(u) in
    if should <> (pos >= 0) then
      fail ~site
        ~field:(Printf.sprintf "active.(%d)" u)
        ~expected:(string_of_bool should)
        ~actual:(string_of_bool (pos >= 0));
    if pos >= 0 then begin
      if pos >= st.Part_state.n_active then
        fail ~site
          ~field:(Printf.sprintf "apos.(%d)" u)
          ~expected:(Printf.sprintf "< n_active (%d)" st.Part_state.n_active)
          ~actual:(string_of_int pos);
      diff_int ~site
        ~field:(Printf.sprintf "active.(apos.(%d))" u)
        ~expected:u
        ~actual:st.Part_state.active.(pos);
      incr n_active
    end
  done;
  diff_int ~site ~field:"n_active" ~expected:!n_active
    ~actual:st.Part_state.n_active;
  (* The FM gain scale: the cached maximum weighted degree. *)
  diff_int ~site ~field:"max_wdeg" ~expected:!max_wdeg
    ~actual:st.Part_state.max_wdeg;
  (* Part member chains: every part's chain holds exactly its members,
     all correctly labelled, and the chains cover every node. *)
  let total = ref 0 in
  for p = 0 to k - 1 do
    let count = ref 0 in
    let x = ref st.Part_state.pl_head.(p) in
    while !x >= 0 do
      if !count > n then
        fail ~site
          ~field:(Printf.sprintf "chain.(%d)" p)
          ~expected:(Printf.sprintf "<= %d members" n)
          ~actual:"cycle";
      if part.(!x) <> p then
        fail ~site
          ~field:(Printf.sprintf "chain.(%d) member %d" p !x)
          ~expected:(string_of_int p)
          ~actual:(string_of_int part.(!x));
      incr count;
      incr total;
      x := st.Part_state.pl_next.(!x)
    done;
    diff_int ~site
      ~field:(Printf.sprintf "chain.(%d).length" p)
      ~expected:members.(p) ~actual:!count
  done;
  diff_int ~site ~field:"chain.total" ~expected:n ~actual:!total

let projection ?(site = "projection") ~map ~coarse ~fine () =
  Ppnpart_obs.Counters.incr ("check." ^ site);
  if Array.length map <> Array.length fine then
    fail ~site ~field:"map.length"
      ~expected:(string_of_int (Array.length fine))
      ~actual:(string_of_int (Array.length map));
  Array.iteri
    (fun u cu ->
      if cu < 0 || cu >= Array.length coarse then
        fail ~site
          ~field:(Printf.sprintf "map.(%d)" u)
          ~expected:(Printf.sprintf "coarse node in [0,%d)" (Array.length coarse))
          ~actual:(string_of_int cu)
      else
        diff_int ~site
          ~field:(Printf.sprintf "fine.(%d)" u)
          ~expected:coarse.(cu) ~actual:fine.(u))
    map

let env_enabled () =
  match Sys.getenv_opt "PPNPART_CHECK" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let enabled () = Atomic.get Debug_hooks.enabled

let install () =
  Debug_hooks.set (fun ~site st -> part_state ~site st);
  Atomic.set Debug_hooks.enabled true

let uninstall () = Atomic.set Debug_hooks.enabled false

let with_checks f =
  let was = enabled () in
  install ();
  Fun.protect ~finally:(fun () -> Atomic.set Debug_hooks.enabled was) f
