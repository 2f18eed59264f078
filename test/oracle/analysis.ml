open Ppnpart_ppn
open Ppnpart_fpga

let toposort_exn ppn =
  match Ppn.topological_order ppn with
  | Some order -> order
  | None -> invalid_arg "Analysis: cyclic process network"

(* Channels that actually constrain timing: carrying tokens, not self. *)
let timing_channels ppn =
  List.filter
    (fun (c : Channel.t) ->
      c.Channel.src <> c.Channel.dst && c.Channel.tokens > 0)
    (Ppn.channels ppn)

let depth ppn =
  let n = Ppn.n_processes ppn in
  if n = 0 then 0
  else begin
    let order = toposort_exn ppn in
    let channels = timing_channels ppn in
    let preds = Array.make n [] in
    List.iter
      (fun (c : Channel.t) ->
        preds.(c.Channel.dst) <- c.Channel.src :: preds.(c.Channel.dst))
      channels;
    let d = Array.make n 1 in
    Array.iter
      (fun p ->
        List.iter (fun q -> if d.(q) + 1 > d.(p) then d.(p) <- d.(q) + 1)
          preds.(p))
      order;
    Array.fold_left max 0 d
  end

let completion_bound ppn =
  let n = Ppn.n_processes ppn in
  if n = 0 then 0
  else begin
    let order = toposort_exn ppn in
    let channels = timing_channels ppn in
    let preds = Array.make n [] in
    List.iter
      (fun (c : Channel.t) ->
        preds.(c.Channel.dst) <- c.Channel.src :: preds.(c.Channel.dst))
      channels;
    let finish = Array.make n 0 in
    Array.iter
      (fun p ->
        let own = (Ppn.process ppn p).Process.iterations in
        let chain =
          List.fold_left (fun acc q -> max acc (finish.(q) + 1)) 0 preds.(p)
        in
        finish.(p) <- max own chain)
      order;
    Array.fold_left max 0 finish
  end

let link_bound platform ppn ~assignment =
  let mapping = Mapping.of_partition platform ppn assignment in
  let traffic = Mapping.link_traffic mapping in
  let n = platform.Platform.n_fpgas in
  let bound = ref 0 in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if traffic.(a).(b) > 0 then begin
        let cycles =
          (traffic.(a).(b) + platform.Platform.bmax - 1)
          / platform.Platform.bmax
        in
        if cycles > !bound then bound := cycles
      end
    done
  done;
  !bound

let makespan_lower_bound platform ppn ~assignment =
  max (completion_bound ppn) (link_bound platform ppn ~assignment)

let efficiency platform ppn ~assignment (r : Sim.result) =
  if r.Sim.cycles = 0 then 1.0
  else
    float_of_int (makespan_lower_bound platform ppn ~assignment)
    /. float_of_int r.Sim.cycles
