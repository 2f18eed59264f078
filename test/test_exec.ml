(* Tests for the domain pool (Ppnpart_exec.Pool) and for the determinism
   of GP's speculative parallel V-cycles: the partition returned by
   [Gp.partition] must be bit-identical at every pool width. *)

open Ppnpart_graph
open Ppnpart_partition
open Ppnpart_core
module Pool = Ppnpart_exec.Pool
module PG = Ppnpart_workloads.Paper_graphs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let quick = Sys.getenv_opt "PPNPART_QUICK" <> None

(* --- Pool --- *)

let test_pool_preserves_order () =
  let expect = Array.init 37 (fun i -> i * i) in
  let tasks = Array.init 37 (fun i () -> i * i) in
  let at width = Pool.with_width width (fun () -> Pool.run tasks) in
  check_bool "width 1" true (at 1 = expect);
  check_bool "width 4" true (at 4 = expect);
  check_bool "sequential" true (Pool.run ~parallel:false tasks = expect);
  check_bool "width > tasks" true (at 64 = expect)

let test_pool_empty_and_single () =
  Pool.with_width 4 @@ fun () ->
  check_int "empty" 0 (Array.length (Pool.run [||]));
  check_bool "single" true (Pool.run [| (fun () -> 42) |] = [| 42 |])

exception Boom of int

let test_pool_propagates_first_exception () =
  let tasks =
    Array.init 8 (fun i () -> if i >= 5 then raise (Boom i) else i)
  in
  match Pool.with_width 4 (fun () -> Pool.run tasks) with
  | _ -> Alcotest.fail "expected an exception"
  | exception Boom i -> check_int "first failing index re-raised" 5 i

let recommended = Domain.recommended_domain_count ()

let test_pool_width_rule () =
  check_int "main domain: the recommended count" recommended (Pool.width ());
  check_int "pinned" 1 (Pool.with_width 1 (fun () -> Pool.width ()));
  check_int "pinned, capped by the hardware" (min 4 recommended)
    (Pool.with_width 4 (fun () -> Pool.width ()));
  check_int "unpinned again" recommended (Pool.width ());
  let inner = Pool.run (Array.init 4 (fun _ () -> Pool.width ())) in
  check_bool "inside a pool task: 1" true (Array.for_all (( = ) 1) inner);
  let inner = Pool.run ~parallel:false [| (fun () -> Pool.width ()) |] in
  check_int "inside a sequential pool task: 1" 1 inner.(0);
  check_int "restored after the tasks" recommended (Pool.width ());
  let d = Domain.spawn (fun () -> Pool.width ()) in
  check_int "another domain: 1" 1 (Domain.join d);
  check_bool "width < 1 refused" true
    (match Pool.with_width 0 (fun () -> ()) with
     | () -> false
     | exception Invalid_argument _ -> true)

(* Run [f] as the job of a one-worker [Worker_pool] — the daemon's
   execution substrate — and return its outcome. *)
let in_worker_pool f =
  let module WP = Ppnpart_exec.Worker_pool in
  let wp = WP.create ~workers:1 ~queue_limit:1 ~state:(fun _ -> ()) in
  let m = Mutex.create () and cv = Condition.create () in
  let out = ref None in
  let finish r =
    Mutex.protect m (fun () ->
        out := Some r;
        Condition.signal cv)
  in
  (match WP.submit wp ~client:0 ~run:f ~finish with
  | `Accepted -> ()
  | `Overloaded | `Stopped -> Alcotest.fail "job refused");
  Mutex.lock m;
  while !out = None do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  WP.stop wp;
  match !out with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> assert false

let test_pool_width_in_worker_pool () =
  check_int "worker pool job" 1 (in_worker_pool Pool.width);
  check_int "pool task in a worker pool job" 1
    (in_worker_pool (fun () -> (Pool.run [| Pool.width |]).(0)))

let test_pool_nested () =
  (* Pool use from inside a pooled task (as GP's cycles' inner phases)
     must not deadlock or reorder. *)
  let tasks =
    Array.init 6 (fun i () ->
        Array.fold_left ( + ) 0
          (Pool.run (Array.init 5 (fun x () -> x + 1 + i))))
  in
  let expect = Array.init 6 (fun i -> 15 + (5 * i)) in
  check_bool "nested" true
    (Pool.with_width 3 (fun () -> Pool.run tasks) = expect)

(* --- Gp determinism across pool widths --- *)

let config = { Config.default with Config.coarsen_target = 30; max_cycles = 20 }

let same_result ?(max_cycles = 20) g c =
  let run width =
    Pool.with_width width (fun () ->
        Gp.partition ~config:{ config with Config.max_cycles } g c)
  in
  let a = run 1 in
  let b = run 4 in
  check_bool "partition bit-identical" true (a.Gp.part = b.Gp.part);
  check_int "cycles_used equal" a.Gp.cycles_used b.Gp.cycles_used;
  check_bool "history equal" true (a.Gp.history = b.Gp.history);
  check_int "goodness equal" 0
    (Metrics.compare_goodness a.Gp.goodness b.Gp.goodness)

let test_jobs_invariant_paper_experiments () =
  List.iter
    (fun (e : PG.experiment) -> same_result e.PG.graph e.PG.constraints)
    PG.all

let test_jobs_invariant_forced_cycles () =
  (* bmax = 0 on a connected graph is infeasible, so every run burns the
     whole V-cycle budget: the waves really execute and their fold order
     must still match the sequential schedule. *)
  let rng = Random.State.make [| 7 |] in
  let g =
    Ppnpart_workloads.Rand_graph.layered ~vw_range:(1, 9) ~ew_range:(1, 9)
      rng ~layers:12 ~width:8
  in
  let c =
    Types.constraints ~k:3 ~bmax:0 ~rmax:(Wgraph.total_node_weight g)
  in
  same_result ~max_cycles:(if quick then 6 else 20) g c

let test_jobs_invariant_planted () =
  (* A planted-feasible instance large enough to exercise the parallel
     matching race and seed fan-out thresholds. *)
  let n = if quick then 80 else 300 in
  let rng = Random.State.make [| 11 |] in
  let g, c = Ppnpart_workloads.Rand_graph.random_partitionable rng ~n ~k:4 in
  same_result g c

let test_default_width () =
  (* The width the pool picks for itself must still return the exact
     width-1 result. *)
  let e = PG.experiment1 in
  let a =
    Pool.with_width 1 (fun () ->
        Gp.partition ~config e.PG.graph e.PG.constraints)
  in
  let b = Gp.partition ~config e.PG.graph e.PG.constraints in
  check_bool "default width matches width 1" true (a.Gp.part = b.Gp.part)

let test_gp_in_worker_pool () =
  (* The daemon partitions on a Worker_pool domain, where the pool runs
     sequentially: same labels as the main domain. A graph above the
     V-cycle wave threshold with a tight bmax exercises every parallel
     site on the main domain. *)
  let rng = Random.State.make [| 5 |] in
  let g =
    Ppnpart_workloads.Rand_graph.layered ~vw_range:(1, 9) ~ew_range:(1, 9)
      rng ~layers:42 ~width:100
  in
  let c =
    Types.constraints ~k:4 ~bmax:40 ~rmax:(Wgraph.total_node_weight g / 3)
  in
  let config = { Config.default with Config.max_cycles = 3 } in
  let main = Gp.partition ~config g c in
  check_bool "V-cycle waves ran" true (main.Gp.cycles_used > 0);
  let r = in_worker_pool (fun () -> Gp.partition ~config g c) in
  check_bool "labels equal" true (r.Gp.part = main.Gp.part);
  check_bool "history equal" true (r.Gp.history = main.Gp.history)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "preserves order" `Quick
            test_pool_preserves_order;
          Alcotest.test_case "empty and single" `Quick
            test_pool_empty_and_single;
          Alcotest.test_case "propagates first exception" `Quick
            test_pool_propagates_first_exception;
          Alcotest.test_case "width rule" `Quick test_pool_width_rule;
          Alcotest.test_case "width in a worker pool job" `Quick
            test_pool_width_in_worker_pool;
          Alcotest.test_case "nested" `Quick test_pool_nested;
        ] );
      ( "gp_jobs_determinism",
        [
          Alcotest.test_case "paper experiments" `Quick
            test_jobs_invariant_paper_experiments;
          Alcotest.test_case "forced V-cycles" `Quick
            test_jobs_invariant_forced_cycles;
          Alcotest.test_case "planted instance" `Quick
            test_jobs_invariant_planted;
          Alcotest.test_case "default width" `Quick test_default_width;
          Alcotest.test_case "worker pool job matches main domain" `Quick
            test_gp_in_worker_pool;
        ] );
    ]
