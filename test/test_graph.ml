(* Tests for the graph substrate: Edge_list, Wgraph, Graph_io. *)

open Ppnpart_graph
module Metis_oracle = Ppnpart_test_oracle.Metis_oracle
module Csr_rows = Ppnpart_test_oracle.Csr_rows
module Build_oracle = Ppnpart_test_oracle.Build_oracle

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* A small fixed graph used across tests:
   0-1 (w 3), 0-2 (w 1), 1-2 (w 2), 2-3 (w 5); vwgt = [|2; 4; 1; 7|]. *)
let sample () =
  Wgraph.of_edges ~vwgt:[| 2; 4; 1; 7 |] 4
    [ (0, 1, 3); (0, 2, 1); (1, 2, 2); (2, 3, 5) ]

(* --- Edge_list --- *)

(* The edges [Wgraph.build] makes of [el]: each unordered pair once as
   [(u, v, w)] with [u < v], sorted. *)
let built_edges el = Wgraph.edges (Wgraph.build el)

let test_el_dedup_merges_weights () =
  let el = Edge_list.create 3 in
  Edge_list.add el 0 1 2;
  Edge_list.add el 1 0 3;
  Edge_list.add el 0 1 1;
  let edges = built_edges el in
  check_int "one edge" 1 (List.length edges);
  Alcotest.check
    (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
    "merged" (0, 1, 6) (List.hd edges)

let test_el_drops_self_loops () =
  let el = Edge_list.create 2 in
  Edge_list.add el 0 0 9;
  Edge_list.add el 0 1 1;
  Edge_list.add el 1 1 4;
  let edges = built_edges el in
  check_int "self loops gone" 1 (List.length edges)

let test_el_bounds () =
  let el = Edge_list.create 2 in
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Edge_list.add: node v out of range") (fun () ->
      Edge_list.add el 0 2 1);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Edge_list.add: negative weight") (fun () ->
      Edge_list.add el 0 1 (-1))

let test_el_sorted_output () =
  let el = Edge_list.create 4 in
  Edge_list.add el 3 2 1;
  Edge_list.add el 1 0 1;
  Edge_list.add el 2 0 1;
  let edges = built_edges el in
  check_bool "sorted" true (edges = [ (0, 1, 1); (0, 2, 1); (2, 3, 1) ])

(* --- Wgraph construction and accessors --- *)

let test_build_counts () =
  let g = sample () in
  check_int "nodes" 4 (Wgraph.n_nodes g);
  check_int "edges" 4 (Wgraph.n_edges g);
  check_int "total vwgt" 14 (Wgraph.total_node_weight g);
  check_int "total ewgt" 11 (Wgraph.total_edge_weight g)

let test_degrees () =
  let g = sample () in
  check_int "deg 0" 2 (Wgraph.degree g 0);
  check_int "deg 2" 3 (Wgraph.degree g 2);
  check_int "deg 3" 1 (Wgraph.degree g 3);
  check_int "wdeg 2" 8 (Wgraph.weighted_degree g 2)

let test_edge_weight_lookup () =
  let g = sample () in
  check_int "0-1" 3 (Wgraph.edge_weight g 0 1);
  check_int "1-0 symmetric" 3 (Wgraph.edge_weight g 1 0);
  check_int "absent" 0 (Wgraph.edge_weight g 0 3);
  check_bool "mem" true (Wgraph.mem_edge g 2 3);
  check_bool "not mem" false (Wgraph.mem_edge g 1 3)

let test_default_vwgt () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1) ] in
  check_int "unit weights" 3 (Wgraph.total_node_weight g)

let test_vwgt_validation () =
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Wgraph.build: vwgt length mismatch") (fun () ->
      ignore (Wgraph.of_edges ~vwgt:[| 1 |] 2 [ (0, 1, 1) ]))

let test_iter_edges_each_once () =
  let g = sample () in
  let count = ref 0 in
  Wgraph.iter_edges g (fun u v _ ->
      incr count;
      check_bool "u < v" true (u < v));
  check_int "edges visited once" 4 !count

let test_validate_ok () =
  Wgraph.validate (sample ())

(* The sample graph with node 0's slice written descending: still
   symmetric in ids and weights, but binary-search lookups on it miss. *)
let test_validate_rejects_unsorted_slice () =
  let g =
    Wgraph.unsafe_of_csr ~vwgt:[| 2; 4; 1; 7 |] ~n:4 ~xadj:[| 0; 2; 4; 7; 8 |]
      ~adjncy:[| 2; 1; 0; 2; 0; 1; 3; 2 |] ~adjwgt:[| 1; 3; 3; 2; 1; 2; 5; 5 |]
      ()
  in
  Alcotest.check_raises "descending slice"
    (Invalid_argument
       "Wgraph.validate: adjacency slice of node 0 not strictly ascending")
    (fun () -> Wgraph.validate g)

let test_components () =
  let g = Wgraph.of_edges 5 [ (0, 1, 1); (2, 3, 1) ] in
  let comp, n = Wgraph.components g in
  check_int "3 components" 3 n;
  check_int "0 and 1 together" comp.(0) comp.(1);
  check_bool "separate" true (comp.(0) <> comp.(2));
  check_bool "connected sample" true (Wgraph.is_connected (sample ()))

let test_bfs_order () =
  let g = Wgraph.of_edges 4 [ (0, 1, 1); (1, 2, 1); (2, 3, 1) ] in
  let order = Wgraph.bfs_order g 0 in
  check_bool "path order" true (order = [| 0; 1; 2; 3 |]);
  let g2 = Wgraph.of_edges 4 [ (0, 1, 1) ] in
  check_int "component only" 2 (Array.length (Wgraph.bfs_order g2 0))

let test_induced () =
  let g = sample () in
  let sub, back = Wgraph.induced g [| 0; 1; 2 |] in
  check_int "3 nodes" 3 (Wgraph.n_nodes sub);
  check_int "3 edges" 3 (Wgraph.n_edges sub);
  check_int "weights follow" 4 (Wgraph.node_weight sub 1);
  check_bool "back map" true (back = [| 0; 1; 2 |]);
  let sub2, _ = Wgraph.induced g [| 3; 0 |] in
  check_int "no edges between 0 and 3" 0 (Wgraph.n_edges sub2)

let test_relabel () =
  let g = sample () in
  let perm = [| 3; 2; 1; 0 |] in
  let h = Wgraph.relabel g perm in
  check_int "edge follows relabel" 3 (Wgraph.edge_weight h 3 2);
  check_int "vwgt follows" 2 (Wgraph.node_weight h 3);
  check_int "total preserved" (Wgraph.total_edge_weight g)
    (Wgraph.total_edge_weight h);
  Wgraph.validate h

let test_equal () =
  check_bool "same graph" true (Wgraph.equal (sample ()) (sample ()));
  let other = Wgraph.of_edges ~vwgt:[| 2; 4; 1; 7 |] 4 [ (0, 1, 3) ] in
  check_bool "different" false (Wgraph.equal (sample ()) other)

(* --- bulk CSR constructors --- *)

let rejects_invalid name f =
  check_bool name true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

(* The sample graph's CSR arrays, written out by hand. *)
let sample_csr () =
  ( [| 0; 2; 4; 7; 8 |],
    [| 1; 2; 0; 2; 0; 1; 3; 2 |],
    [| 3; 1; 3; 2; 1; 2; 5; 5 |] )

let test_of_csr_adopts () =
  let xadj, adjncy, adjwgt = sample_csr () in
  let g =
    Wgraph.of_csr ~vwgt:[| 2; 4; 1; 7 |] ~n:4 ~xadj ~adjncy ~adjwgt ()
  in
  Wgraph.validate g;
  check_bool "equals the Edge_list build" true (Wgraph.equal g (sample ()));
  (* Adoption, not copy: the graph exposes the very arrays passed in. *)
  check_bool "arrays adopted" true (g.Wgraph.adjncy == adjncy);
  let empty = Wgraph.of_csr ~n:0 ~xadj:[| 0 |] ~adjncy:[||] ~adjwgt:[||] () in
  check_int "empty graph ok" 0 (Wgraph.n_nodes empty)

let test_of_csr_validation () =
  let mk ?vwgt ?(n = 4) ?xadj ?adjncy ?adjwgt () =
    let dx, da, dw = sample_csr () in
    let xadj = Option.value xadj ~default:dx
    and adjncy = Option.value adjncy ~default:da
    and adjwgt = Option.value adjwgt ~default:dw in
    Wgraph.of_csr ?vwgt ~n ~xadj ~adjncy ~adjwgt ()
  in
  rejects_invalid "xadj wrong length" (fun () -> mk ~xadj:[| 0; 2; 4; 8 |] ());
  rejects_invalid "xadj not starting at 0" (fun () ->
      mk ~xadj:[| 1; 2; 4; 7; 8 |] ());
  rejects_invalid "xadj decreasing" (fun () ->
      mk ~xadj:[| 0; 4; 2; 7; 8 |] ());
  rejects_invalid "xadj not exhausting adjncy" (fun () ->
      mk ~xadj:[| 0; 2; 4; 7; 7 |] ());
  rejects_invalid "adjwgt length mismatch" (fun () ->
      mk ~adjwgt:[| 3; 1; 3; 2; 1; 2; 5 |] ());
  rejects_invalid "slice not sorted" (fun () ->
      mk
        ~adjncy:[| 2; 1; 0; 2; 0; 1; 3; 2 |]
        ~adjwgt:[| 1; 3; 3; 2; 1; 2; 5; 5 |] ());
  rejects_invalid "duplicate neighbour" (fun () ->
      mk ~adjncy:[| 1; 1; 0; 2; 0; 1; 3; 2 |] ());
  rejects_invalid "self loop" (fun () ->
      mk ~adjncy:[| 0; 2; 0; 2; 0; 1; 3; 2 |] ());
  rejects_invalid "neighbour out of range" (fun () ->
      mk ~adjncy:[| 1; 2; 0; 2; 0; 1; 9; 2 |] ());
  rejects_invalid "negative weight" (fun () ->
      mk ~adjwgt:[| 3; 1; 3; 2; 1; 2; -5; -5 |] ());
  rejects_invalid "one-sided edge" (fun () ->
      mk
        ~xadj:[| 0; 2; 4; 7; 7 |]
        ~adjncy:[| 1; 2; 0; 2; 0; 1; 3; |]
        ~adjwgt:[| 3; 1; 3; 2; 1; 2; 5 |] ());
  (* Listed on the higher endpoint only: the mirror search from the
     lower side never sees these. *)
  let one_sided name msg f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument m -> Alcotest.(check string) name msg m
  in
  one_sided "one-sided edge, higher endpoint"
    "Wgraph.of_csr: edge (2, 3) missing its mirror" (fun () ->
      mk
        ~xadj:[| 0; 2; 4; 6; 7 |]
        ~adjncy:[| 1; 2; 0; 2; 0; 1; 2 |]
        ~adjwgt:[| 3; 1; 3; 2; 1; 2; 5 |] ());
  one_sided "one-sided edge before a mirrored one"
    "Wgraph.of_csr: edge (0, 1) missing its mirror" (fun () ->
      mk
        ~xadj:[| 0; 1; 3; 6; 7 |]
        ~adjncy:[| 2; 0; 2; 0; 1; 3; 2 |]
        ~adjwgt:[| 1; 3; 2; 1; 2; 5; 5 |] ());
  one_sided "one-sided edge while matching"
    "Wgraph.of_csr: edge (0, 2) missing its mirror" (fun () ->
      mk
        ~xadj:[| 0; 1; 3; 6; 7 |]
        ~adjncy:[| 1; 0; 2; 0; 1; 3; 2 |]
        ~adjwgt:[| 3; 3; 2; 1; 2; 5; 5 |] ());
  rejects_invalid "asymmetric weight" (fun () ->
      mk ~adjwgt:[| 3; 1; 3; 2; 1; 2; 5; 4 |] ());
  rejects_invalid "vwgt wrong length" (fun () -> mk ~vwgt:[| 1; 1 |] ());
  rejects_invalid "vwgt negative" (fun () -> mk ~vwgt:[| 1; 1; -1; 1 |] ())

(* [Wgraph.of_splice] checks only the edited rows, yet must reject each
   kind of corrupted row with the message the full [of_csr] sweep gives
   for the same arrays. The splice is a real edit (channel 1-4 added,
   so rows 1 and 4 are spliced); row 1 is then rewritten. *)
let test_of_splice_matches_of_csr () =
  let module GE = Ppnpart_partition.Graph_edit in
  let g =
    Wgraph.of_edges ~vwgt:[| 1; 2; 3; 4; 5; 6 |] 6
      [ (0, 1, 3); (0, 2, 1); (1, 2, 4); (2, 3, 2); (2, 4, 5); (3, 5, 7);
        (4, 5, 1) ]
  in
  let g', _, st = GE.apply g [ GE.Add_edge (1, 4, 6) ] in
  let rows = st.GE.touched_nodes in
  check (Alcotest.array Alcotest.int) "spliced rows" [| 1; 4 |] rows;
  (* Row 1 of [g'] is [(0, 3); (2, 4); (4, 6)]. *)
  let message f =
    match f () with
    | (_ : Wgraph.t) -> Alcotest.fail "corrupted splice accepted"
    | exception Invalid_argument m -> m
  in
  List.iter
    (fun (name, row1, expected) ->
      let xadj, adjncy, adjwgt = Csr_rows.with_row g' 1 (fun _ -> row1) in
      let vwgt = g'.Wgraph.vwgt in
      check Alcotest.string (name ^ ": of_csr") ("Wgraph.of_csr: " ^ expected)
        (message (fun () -> Wgraph.of_csr ~vwgt ~n:6 ~xadj ~adjncy ~adjwgt ()));
      check Alcotest.string (name ^ ": of_splice")
        ("Wgraph.of_splice: " ^ expected)
        (message (fun () ->
             Wgraph.of_splice g ~vwgt ~xadj ~adjncy ~adjwgt ~rows ())))
    [ ( "asymmetric weight",
        [ (0, 3); (2, 5); (4, 6) ],
        "asymmetric weight on edge (1, 2)" );
      ( "asymmetric weight between spliced rows",
        [ (0, 3); (2, 4); (4, 7) ],
        "asymmetric weight on edge (1, 4)" );
      ("missing mirror", [ (0, 3); (4, 6) ], "edge (1, 2) missing its mirror");
      ( "duplicate entry",
        [ (0, 3); (2, 4); (2, 4) ],
        "adjacency slice of node 1 not strictly ascending" );
      ("self loop", [ (0, 3); (1, 4); (4, 6) ], "self loop at node 1");
      ( "out-of-range neighbour",
        [ (0, 3); (2, 4); (6, 6) ],
        "neighbour out of range at node 1" ) ];
  (* The intact splice passes. *)
  let g'' =
    Wgraph.of_splice g ~vwgt:g'.Wgraph.vwgt ~xadj:g'.Wgraph.xadj
      ~adjncy:g'.Wgraph.adjncy ~adjwgt:g'.Wgraph.adjwgt ~rows ()
  in
  check_bool "intact splice accepted" true (Wgraph.equal g' g'');
  (* A removed node's neighbours must all be spliced rows: a copied row
     would still name it. *)
  let g3, map3, st3 = GE.apply g [ GE.Remove_node 5 ] in
  let dropped =
    Array.of_list
      (List.filter (fun u -> u <> 3) (Array.to_list st3.GE.touched_nodes))
  in
  check Alcotest.string "removed node behind a copied row"
    "Wgraph.of_splice: neighbour out of range at node 3"
    (message (fun () ->
         Wgraph.of_splice g ~node_map:map3 ~vwgt:g3.Wgraph.vwgt
           ~xadj:g3.Wgraph.xadj ~adjncy:g3.Wgraph.adjncy
           ~adjwgt:g3.Wgraph.adjwgt ~rows:dropped ()))

let test_of_soa_edges_basic () =
  (* Duplicates in either orientation merge, self loops vanish — the
     Edge_list normalization semantics without the tuples. *)
  let g =
    Wgraph.of_soa_edges ~vwgt:[| 2; 4; 1; 7 |] 4
      ~src:[| 0; 2; 1; 1; 2; 2; 0 |]
      ~dst:[| 1; 0; 0; 2; 3; 2; 2 |]
      ~wgt:[| 3; 1; 2; 2; 5; 9; 0 |]
  in
  Wgraph.validate g;
  check_int "merged 0-1" 5 (Wgraph.edge_weight g 0 1);
  check_int "0-2 with zero weight" 1 (Wgraph.edge_weight g 0 2);
  check_int "edges" 4 (Wgraph.n_edges g);
  check_bool "no self loop" false (Wgraph.mem_edge g 2 2)

let test_of_soa_edges_validation () =
  rejects_invalid "length mismatch" (fun () ->
      Wgraph.of_soa_edges 3 ~src:[| 0 |] ~dst:[| 1; 2 |] ~wgt:[| 1; 1 |]);
  rejects_invalid "node out of range" (fun () ->
      Wgraph.of_soa_edges 3 ~src:[| 0 |] ~dst:[| 3 |] ~wgt:[| 1 |]);
  rejects_invalid "negative node" (fun () ->
      Wgraph.of_soa_edges 3 ~src:[| -1 |] ~dst:[| 1 |] ~wgt:[| 1 |]);
  rejects_invalid "negative weight" (fun () ->
      Wgraph.of_soa_edges 3 ~src:[| 0 |] ~dst:[| 1 |] ~wgt:[| -1 |])

(* --- Graph_io --- *)

let test_metis_roundtrip () =
  let g = sample () in
  let g' = Graph_io.of_metis (Graph_io.to_metis g) in
  check_bool "roundtrip" true (Wgraph.equal g g')

let test_metis_comments_and_unweighted () =
  let text = "% a comment\n3 3\n2 3\n1 3\n1 2\n" in
  let g = Graph_io.of_metis text in
  check_int "nodes" 3 (Wgraph.n_nodes g);
  check_int "edges" 3 (Wgraph.n_edges g);
  check_int "unit edge weight" 1 (Wgraph.edge_weight g 0 1)

let test_metis_bad_edge_count () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Graph_io.of_metis "2 5 000\n2\n1\n");
       false
     with Failure _ -> true)

(* Per-edge symmetry validation: each undirected edge must be listed on
   both endpoints, exactly once each, with equal weights. These inputs
   all have self-consistent aggregate edge counts, so a count check alone
   would accept them. *)
let check_metis_rejects name ~needle text =
  Alcotest.(check bool) name true
    (try
       ignore (Graph_io.of_metis text);
       false
     with Failure msg ->
       let nh = String.length msg and nn = String.length needle in
       let rec loop i =
         i + nn <= nh && (String.sub msg i nn = needle || loop (i + 1))
       in
       loop 0)

let test_metis_one_sided_edge () =
  (* 4 directed mentions = 2 declared edges, but (1,3) and (2,3) are each
     listed on one endpoint only. *)
  check_metis_rejects "one-sided listing" ~needle:"one endpoint only"
    "3 2 000\n2 3\n1\n2\n"

let test_metis_duplicate_entry () =
  (* Each endpoint lists the edge twice: 4 mentions, again = 2 declared
     edges. The old merge-by-weight parse folded the duplicates away. *)
  check_metis_rejects "duplicate adjacency" ~needle:"duplicate adjacency"
    "2 2 000\n2 2\n1 1\n"

let test_metis_asymmetric_weight () =
  check_metis_rejects "asymmetric weight" ~needle:"asymmetric weight"
    "2 1 001\n2 5\n1 7\n"

let test_metis_self_loop () =
  check_metis_rejects "self loop" ~needle:"self loop" "2 1 000\n1\n1\n"

let test_metis_neighbour_out_of_range () =
  check_metis_rejects "neighbour out of range" ~needle:"out of range"
    "2 1 000\n3\n1\n"

let test_metis_missing_edge_weight () =
  check_metis_rejects "missing edge weight" ~needle:"without a weight"
    "2 1 001\n2\n1 5\n"

let test_metis_symmetric_weighted_ok () =
  let g = Graph_io.of_metis "3 2 011\n4 2 6\n5 1 6 3 2\n6 2 2\n" in
  check_int "nodes" 3 (Wgraph.n_nodes g);
  check_int "edges" 2 (Wgraph.n_edges g);
  check_int "weight 1-2" 6 (Wgraph.edge_weight g 0 1);
  check_int "weight 2-3" 2 (Wgraph.edge_weight g 1 2);
  check_int "vertex weight" 5 (Wgraph.node_weight g 1)

let test_adjacency_roundtrip () =
  let g = sample () in
  let g' = Graph_io.of_adjacency_matrix (Graph_io.to_adjacency_matrix g) in
  check_bool "roundtrip" true (Wgraph.equal g g')

let test_adjacency_rejects_asymmetric () =
  let text = "2\n1 1\n0 3\n2 0\n" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Graph_io.of_adjacency_matrix text);
       false
     with Failure _ -> true)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i =
    i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1))
  in
  loop 0

let test_dot_contains_clusters () =
  let g = sample () in
  let dot = Graph_io.to_dot ~partition:[| 0; 0; 1; 1 |] g in
  check_bool "cluster 0" true (contains dot "cluster_0");
  check_bool "cluster 1" true (contains dot "cluster_1");
  check_bool "edge label" true (contains dot "label=\"5\"")

(* --- Graph_io.Rows: the METIS reader (DESIGN.md §6.9) --- *)

(* Each single-defect entry trips a different validation (header,
   tokenizer, per-mention, end-of-stream). The messages are part of the
   contract: they are pinned literally, and the batch-parser oracle must
   produce the same ones. A multi-defect entry pins which defect the
   reader reports first. The oracle is not asked about those: it reports
   whichever defective pair its hash table visits first. *)
let single_defect_corpus =
  [
    ("empty input", "", "Graph_io.of_metis: empty input");
    ("blank lines only", "% comment\n\n", "Graph_io.of_metis: empty input");
    ("bad header: no m", "2\n", "Graph_io.of_metis: bad header");
    ("bad header: negative n", "-1 0\n", "Graph_io.of_metis: bad header");
    ("header not an integer", "two 1\n2\n1\n", "Graph_io: not an integer: two");
    ( "truncated node lines",
      "3 2\n2\n1 3\n",
      "Graph_io.of_metis: expected 3 node lines, got 2" );
    ( "surplus node lines",
      "2 1\n2\n1\n1 2\n",
      "Graph_io.of_metis: expected 2 node lines, got 3" );
    ( "wrong edge count",
      "2 5 000\n2\n1\n",
      "Graph_io.of_metis: declared 5 edges, found 1" );
    ( "asymmetric adjacency",
      "3 2 000\n2 3\n1\n2\n",
      "Graph_io.of_metis: asymmetric adjacency: edge 1-3 is listed on one \
       endpoint only" );
    ( "asymmetric weight",
      "2 1 001\n2 5\n1 7\n",
      "Graph_io.of_metis: asymmetric weight on edge 1-2 (5 vs 7)" );
    ( "duplicate adjacency",
      "2 2 000\n2 2\n1 1\n",
      "Graph_io.of_metis: duplicate adjacency entry for edge 1-2" );
    ( "neighbour out of range",
      "2 1 000\n3\n1\n",
      "Graph_io.of_metis: neighbour 3 of node 1 out of range" );
    ("self loop", "2 1 000\n1\n1\n", "Graph_io.of_metis: self loop on node 1");
    ( "missing edge weight",
      "2 1 001\n2\n1 5\n",
      "Graph_io.of_metis: neighbour of node 1 without a weight" );
    ( "negative vertex weight",
      "2 1 010\n-1 2\n1 2\n",
      "Graph_io.of_metis: self loop on node 2" );
    ("body not an integer", "2 1\n2x\n1\n", "Graph_io: not an integer: 2x");
  ]

(* Duplicates are reported before any symmetry defect, symmetry before
   negative weights, and all of them before the declared edge count. *)
let multi_defect_corpus =
  [
    ( "asymmetric edge, then a duplicate",
      "3 2 000\n3\n3 3\n2 2\n",
      "Graph_io.of_metis: duplicate adjacency entry for edge 2-3" );
    ( "asymmetric edge and a wrong edge count",
      "3 5 000\n2 3\n1\n2\n",
      "Graph_io.of_metis: asymmetric adjacency: edge 1-3 is listed on one \
       endpoint only" );
    ( "negative edge weight, then an asymmetric weight",
      "3 2 001\n2 -4 3 5\n1 -4\n1 6\n",
      "Graph_io.of_metis: asymmetric weight on edge 1-3 (5 vs 6)" );
    ( "unsorted row with a duplicate",
      "3 2 001\n3 1 2 4 3 2\n1 4\n1 1\n",
      "Graph_io.of_metis: duplicate adjacency entry for edge 1-3" );
  ]

let malformed_corpus =
  List.map (fun (name, text, msg) -> (name, text, msg, true))
    single_defect_corpus
  @ List.map (fun (name, text, msg) -> (name, text, msg, false))
      multi_defect_corpus

(* [text] fed to a fresh reader in pieces of [piece] bytes. *)
let feed_pieces ~piece text =
  let r = Graph_io.Rows.create () in
  let len = String.length text in
  let pos = ref 0 in
  while !pos < len do
    let l = min piece (len - !pos) in
    Graph_io.Rows.feed r (String.sub text !pos l);
    pos := !pos + l
  done;
  Graph_io.Rows.finish r

let failure_of name f =
  match f () with
  | _ -> Alcotest.failf "%s: malformed input accepted" name
  | exception Failure msg -> msg

let test_rows_malformed_parity () =
  List.iter
    (fun (name, text, expected, single) ->
      let check how f =
        Alcotest.(check string) (name ^ ", " ^ how) expected (failure_of name f)
      in
      check "of_metis" (fun () -> Graph_io.of_metis text);
      check "byte at a time" (fun () -> feed_pieces ~piece:1 text);
      if single then check "oracle" (fun () -> Metis_oracle.of_metis text))
    malformed_corpus

let test_rows_split_feed () =
  (* Chunk boundaries may fall anywhere — middle of a token, middle of
     a line, between lines. Every piece size must yield the same graph
     as the one-shot parse. *)
  let g = sample () in
  let text = Graph_io.to_metis g in
  List.iter
    (fun piece ->
      check_bool (Printf.sprintf "piece size %d" piece) true
        (Wgraph.equal g (feed_pieces ~piece text)))
    [ 1; 2; 3; 7; 64; max 1 (String.length text) ]

(* Node 1 of an 8-node star under fmt code [fmt], its pairs given as
   (neighbour token, blanks, weight token, blanks after); the other
   rows list node 1 back in plain tokens with weight [u + 10]. The
   header declares [m] edges: below 7, the reader's buffers start
   small and grow in the middle of node 1's row. *)
let star_text ~m fmt row =
  let vsize = fmt / 100 mod 10 = 1
  and vwgt = fmt / 10 mod 10 = 1
  and ewgt = fmt mod 10 = 1 in
  let b = Buffer.create 256 in
  Printf.bprintf b "8 %d %03d\n" m fmt;
  let head u =
    if vsize then Buffer.add_string b "1 ";
    if vwgt then Printf.bprintf b "%d " u
  in
  head 1;
  List.iter
    (fun (v, blanks, w, after) ->
      Buffer.add_string b v;
      if ewgt then (Buffer.add_string b blanks; Buffer.add_string b w);
      Buffer.add_string b after)
    row;
  Buffer.add_char b '\n';
  for u = 2 to 8 do
    head u;
    Buffer.add_char b '1';
    if ewgt then Printf.bprintf b " %d" (u + 10);
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

(* Plain pairs around every form the fused row loop hands over to the
   per-token path: a tab, a blank run, a sign, radix and underscore
   spellings, a 19-digit token, trailing blanks and a carriage
   return. *)
let mixed_row =
  [ ("2", " ", "12", " "); ("3", "\t", "13", " "); ("4", " ", "14", "  ");
    ("5", " ", "15", " "); ("+6", " ", "0x10", " ");
    ("0000000000000000007", " ", "1_7", " "); ("8", " ", "0o22", " \r") ]

(* The mixed row with its plain pair to node 5 replaced by one with a
   rejected neighbour or weight. *)
let rejected_rows =
  List.map
    (fun (v, w) ->
      List.map
        (fun ((n, b, _, a) as p) -> if n = "5" then (v, b, w, a) else p)
        mixed_row)
    [ ("12a", "15"); ("0", "15"); ("9", "15"); ("1", "15"); ("-5", "15");
      ("9999999999999999999", "15"); ("5", "9999999999999999999") ]

let test_rows_split_mixed_row () =
  (* Fed split at every byte offset, under every fmt code, with and
     without buffer growth: the same graph or the same message as the
     one-shot reader and the oracle. *)
  let run f = match f () with g -> Ok g | exception Failure msg -> Error msg in
  let same name a b =
    match (a, b) with
    | Ok a, Ok b -> check_bool name true (Wgraph.equal a b)
    | Error a, Error b -> Alcotest.(check string) name a b
    | _ -> Alcotest.failf "%s: acceptance differs" name
  in
  List.iter
    (fun (m, fmt) ->
      List.iter
        (fun row ->
          let text = star_text ~m fmt row in
          let whole = run (fun () -> Graph_io.of_metis text) in
          if row == mixed_row && m = 7 then
            check_bool (Printf.sprintf "%S accepted" text) true
              (Result.is_ok whole);
          same (Printf.sprintf "%S: oracle" text) whole
            (run (fun () -> Metis_oracle.of_metis text));
          let len = String.length text in
          for i = 0 to len do
            same (Printf.sprintf "%S split at %d" text i) whole
              (run (fun () ->
                   let r = Graph_io.Rows.create () in
                   Graph_io.Rows.feed r (String.sub text 0 i);
                   Graph_io.Rows.feed r (String.sub text i (len - i));
                   Graph_io.Rows.finish r))
          done)
        (mixed_row :: rejected_rows))
    (List.concat_map
       (fun fmt -> [ (7, fmt); (1, fmt) ])
       [ 0; 1; 10; 11; 100; 111 ])

let test_rows_hostile_headers () =
  (* A header's counts are only claims: the first cannot index an array
     and is rejected outright; the second is legal but never backed by
     rows, so nothing of its size is ever allocated. *)
  Alcotest.(check string) "n = max_int" "Graph_io.of_metis: bad header"
    (failure_of "max_int" (fun () ->
         Graph_io.of_metis "4611686018427387903 0\n"));
  Alcotest.(check string) "n = 2^40"
    "Graph_io.of_metis: expected 1099511627776 node lines, got 0"
    (failure_of "2^40" (fun () -> Graph_io.of_metis "1099511627776 0\n"));
  Alcotest.(check string) "n = 2^40, two rows"
    "Graph_io.of_metis: expected 1099511627776 node lines, got 2"
    (failure_of "2^40 rows" (fun () ->
         Graph_io.of_metis "1099511627776 1\n2\n1\n"));
  Alcotest.(check string) "m = max_int"
    "Graph_io.of_metis: declared 4611686018427387903 edges, found 1"
    (failure_of "m" (fun () ->
         Graph_io.of_metis "2 4611686018427387903\n2\n1\n"))

let test_to_metis_chunks_bytes () =
  (* Chunked emission is a pure re-plumbing of to_metis: concatenating
     the chunks must reproduce its output byte for byte, at any
     rows_per_chunk. *)
  let g = sample () in
  let whole = Graph_io.to_metis g in
  List.iter
    (fun rows_per_chunk ->
      let b = Buffer.create 256 in
      Graph_io.to_metis_chunks ~rows_per_chunk g (Buffer.add_string b);
      Alcotest.(check string)
        (Printf.sprintf "rows_per_chunk %d" rows_per_chunk)
        whole (Buffer.contents b))
    [ 1; 2; 1000 ]

(* --- qcheck properties --- *)

let arbitrary_edges n max_w =
  QCheck2.Gen.(
    list_size (int_bound (3 * n))
      (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_range 0 max_w)))

let prop_build_valid =
  QCheck2.Test.make ~name:"random edge lists build valid graphs" ~count:200
    (arbitrary_edges 12 9)
    (fun edges ->
      let el = Edge_list.create 12 in
      List.iter (fun (u, v, w) -> Edge_list.add el u v w) edges;
      let g = Wgraph.build el in
      Wgraph.validate g;
      true)

let prop_total_edge_weight_matches_list =
  QCheck2.Test.make
    ~name:"total edge weight = sum of normalized list" ~count:200
    (arbitrary_edges 10 9)
    (fun edges ->
      let el = Edge_list.create 10 in
      List.iter (fun (u, v, w) -> Edge_list.add el u v w) edges;
      let g = Wgraph.build el in
      let expected =
        List.fold_left
          (fun acc (u, v, w) -> if u <> v then acc + w else acc)
          0 edges
      in
      Wgraph.total_edge_weight g = expected)

let prop_metis_roundtrip =
  QCheck2.Test.make ~name:"metis format roundtrip" ~count:100
    (arbitrary_edges 8 9)
    (fun edges ->
      let el = Edge_list.create 8 in
      List.iter (fun (u, v, w) -> Edge_list.add el u v (w + 1)) edges;
      let g = Wgraph.build el in
      Wgraph.equal g (Graph_io.of_metis (Graph_io.to_metis g)))

let prop_rows_reader_matches_of_metis =
  QCheck2.Test.make ~name:"incremental reader = of_metis" ~count:100
    (arbitrary_edges 8 9)
    (fun edges ->
      let el = Edge_list.create 8 in
      List.iter (fun (u, v, w) -> Edge_list.add el u v (w + 1)) edges;
      let g = Wgraph.build el in
      let text = Graph_io.to_metis g in
      Wgraph.equal (Metis_oracle.of_metis text) (Graph_io.of_metis text))

(* [text] with the neighbour/weight pairs of every node row (fmt 011,
   as [to_metis] writes) reversed, or shuffled by [rng]: rows from
   other tools are often unsorted. *)
let permute_rows ?rng text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line ->
         match String.split_on_char ' ' line with
         | vw :: rest when i > 0 ->
           let rec pairs = function
             | v :: w :: tl -> (v, w) :: pairs tl
             | _ -> []
           in
           let ps = Array.of_list (List.rev (pairs rest)) in
           (match rng with
           | None -> ()
           | Some r ->
             for j = Array.length ps - 1 downto 1 do
               let k = Random.State.int r (j + 1) in
               let t = ps.(j) in
               ps.(j) <- ps.(k);
               ps.(k) <- t
             done);
           String.concat " "
             (vw :: List.concat_map (fun (v, w) -> [ v; w ]) (Array.to_list ps))
         | _ -> line)
  |> String.concat "\n"

let prop_unsorted_rows_parse_sorted =
  QCheck2.Test.make ~name:"reversed or shuffled rows = sorted rows" ~count:100
    QCheck2.Gen.(pair (arbitrary_edges 9 9) int)
    (fun (edges, seed) ->
      let el = Edge_list.create 9 in
      List.iter (fun (u, v, w) -> Edge_list.add el u v (w + 1)) edges;
      let g = Wgraph.build el in
      let text = Graph_io.to_metis g in
      Wgraph.equal g (Graph_io.of_metis (permute_rows text))
      && Wgraph.equal g
           (Graph_io.of_metis
              (permute_rows ~rng:(Random.State.make [| seed |]) text)))

(* One [string_of_int] per integer: the byte-for-byte reference for
   [to_metis]'s digit writer. *)
let reference_to_metis g =
  let b = Buffer.create 256 in
  let add_int i = Buffer.add_string b (string_of_int i) in
  add_int (Wgraph.n_nodes g);
  Buffer.add_char b ' ';
  add_int (Wgraph.n_edges g);
  Buffer.add_string b " 011\n";
  for u = 0 to Wgraph.n_nodes g - 1 do
    add_int (Wgraph.node_weight g u);
    Wgraph.iter_neighbors g u (fun v w ->
        Buffer.add_char b ' ';
        add_int (v + 1);
        Buffer.add_char b ' ';
        add_int w);
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let prop_to_metis_matches_reference =
  QCheck2.Test.make ~name:"to_metis = string_of_int renderer" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_bound 40)
           (triple (int_bound 11) (int_bound 11)
              (oneof [ int_bound 12; int_bound (max_int / 64) ])))
        (array_size (return 12) (oneof [ int_bound 12; int_bound max_int ])))
    (fun (edges, vwgt) ->
      let el = Edge_list.create 12 in
      List.iter (fun (u, v, w) -> Edge_list.add el u v w) edges;
      let g = Wgraph.build ~vwgt el in
      let b = Buffer.create 256 in
      Graph_io.to_metis_chunks ~rows_per_chunk:5 g (Buffer.add_string b);
      let expected = reference_to_metis g in
      Graph_io.to_metis g = expected && Buffer.contents b = expected)

let prop_rows_split_matches_whole =
  QCheck2.Test.make ~name:"random piece split = whole feed" ~count:100
    QCheck2.Gen.(pair (arbitrary_edges 8 9) (list (int_range 1 40)))
    (fun (edges, cuts) ->
      let el = Edge_list.create 8 in
      List.iter (fun (u, v, w) -> Edge_list.add el u v (w + 1)) edges;
      let text = Graph_io.to_metis (Wgraph.build el) in
      let r = Graph_io.Rows.create () in
      let pos =
        List.fold_left
          (fun pos l ->
            let l = min l (String.length text - pos) in
            Graph_io.Rows.feed r (String.sub text pos l);
            pos + l)
          0 cuts
      in
      Graph_io.Rows.feed r
        (String.sub text pos (String.length text - pos));
      Wgraph.equal (Graph_io.Rows.finish r) (Graph_io.of_metis text))

(* [iter_edges] walks rows in order and each slice ascending, so on a
   normalized graph it yields strictly increasing [(u, v)] pairs. *)
let prop_normalized_sorted =
  QCheck2.Test.make
    ~name:"normalized output is sorted and duplicate-free" ~count:200
    (arbitrary_edges 12 9)
    (fun edges ->
      let el = Edge_list.create 12 in
      List.iter (fun (u, v, w) -> Edge_list.add el u v w) edges;
      let prev = ref (-1, -1) and ok = ref true in
      Wgraph.iter_edges (Wgraph.build el) (fun u v _ ->
          if compare (u, v) !prev <= 0 then ok := false;
          prev := (u, v));
      !ok)

(* Edge lists over [n] in [0, 12] nodes with weights from 0, self loops,
   and a repeated prefix in both orientations so parallel edges merge. *)
let edge_list_with_repeats =
  QCheck2.Gen.(
    int_bound 12 >>= fun n ->
    (if n = 0 then return []
     else
       list_size (int_bound (3 * n))
         (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_bound 9)))
    >>= fun edges ->
    int_bound (List.length edges) >|= fun r ->
    let again = List.filteri (fun i _ -> i < r) edges in
    let flip i (u, v, w) = if i land 1 = 0 then (v, u, w) else (u, v, w) in
    (n, edges @ List.mapi flip again))

(* The shipped builder must agree with the tuple reference not just up
   to isomorphism but array for array — both sort slices by neighbour id
   and sum duplicate weights. *)
let prop_build_matches_tuple_reference =
  QCheck2.Test.make ~name:"Wgraph.build = tuple reference" ~count:300
    edge_list_with_repeats
    (fun (n, edges) ->
      let g = Wgraph.of_edges n edges in
      let xadj, adjncy, adjwgt = Build_oracle.csr n edges in
      g.Wgraph.xadj = xadj && g.Wgraph.adjncy = adjncy
      && g.Wgraph.adjwgt = adjwgt)

let prop_relabel_preserves_structure =
  QCheck2.Test.make ~name:"relabel by reversal preserves totals" ~count:100
    (arbitrary_edges 9 5)
    (fun edges ->
      let el = Edge_list.create 9 in
      List.iter (fun (u, v, w) -> Edge_list.add el u v w) edges;
      let g = Wgraph.build el in
      let perm = Array.init 9 (fun i -> 8 - i) in
      let h = Wgraph.relabel g perm in
      Wgraph.total_edge_weight g = Wgraph.total_edge_weight h
      && Wgraph.total_node_weight g = Wgraph.total_node_weight h
      && Wgraph.n_edges g = Wgraph.n_edges h)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_build_valid;
      prop_total_edge_weight_matches_list;
      prop_normalized_sorted;
      prop_build_matches_tuple_reference;
      prop_metis_roundtrip;
      prop_rows_reader_matches_of_metis;
      prop_rows_split_matches_whole;
      prop_unsorted_rows_parse_sorted;
      prop_to_metis_matches_reference;
      prop_relabel_preserves_structure;
    ]

let () =
  Alcotest.run "graph"
    [
      ( "edge_list",
        [
          Alcotest.test_case "dedup merges weights" `Quick
            test_el_dedup_merges_weights;
          Alcotest.test_case "drops self loops" `Quick
            test_el_drops_self_loops;
          Alcotest.test_case "bounds checked" `Quick test_el_bounds;
          Alcotest.test_case "sorted output" `Quick test_el_sorted_output;
        ] );
      ( "wgraph",
        [
          Alcotest.test_case "counts" `Quick test_build_counts;
          Alcotest.test_case "degrees" `Quick test_degrees;
          Alcotest.test_case "edge lookup" `Quick test_edge_weight_lookup;
          Alcotest.test_case "default vwgt" `Quick test_default_vwgt;
          Alcotest.test_case "vwgt validation" `Quick test_vwgt_validation;
          Alcotest.test_case "iter_edges once" `Quick
            test_iter_edges_each_once;
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "validate rejects unsorted slice" `Quick
            test_validate_rejects_unsorted_slice;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "bfs order" `Quick test_bfs_order;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "relabel" `Quick test_relabel;
          Alcotest.test_case "equal" `Quick test_equal;
        ] );
      ( "csr_constructors",
        [
          Alcotest.test_case "of_csr adopts arrays" `Quick
            test_of_csr_adopts;
          Alcotest.test_case "of_csr validation" `Quick
            test_of_csr_validation;
          Alcotest.test_case "of_splice matches of_csr" `Quick
            test_of_splice_matches_of_csr;
          Alcotest.test_case "of_soa_edges merge semantics" `Quick
            test_of_soa_edges_basic;
          Alcotest.test_case "of_soa_edges validation" `Quick
            test_of_soa_edges_validation;
        ] );
      ( "graph_io",
        [
          Alcotest.test_case "metis roundtrip" `Quick test_metis_roundtrip;
          Alcotest.test_case "metis comments/unweighted" `Quick
            test_metis_comments_and_unweighted;
          Alcotest.test_case "metis one-sided edge" `Quick
            test_metis_one_sided_edge;
          Alcotest.test_case "metis duplicate entry" `Quick
            test_metis_duplicate_entry;
          Alcotest.test_case "metis asymmetric weight" `Quick
            test_metis_asymmetric_weight;
          Alcotest.test_case "metis self loop" `Quick test_metis_self_loop;
          Alcotest.test_case "metis neighbour out of range" `Quick
            test_metis_neighbour_out_of_range;
          Alcotest.test_case "metis missing edge weight" `Quick
            test_metis_missing_edge_weight;
          Alcotest.test_case "metis symmetric weighted ok" `Quick
            test_metis_symmetric_weighted_ok;
          Alcotest.test_case "metis bad edge count" `Quick
            test_metis_bad_edge_count;
          Alcotest.test_case "adjacency roundtrip" `Quick
            test_adjacency_roundtrip;
          Alcotest.test_case "adjacency asymmetric" `Quick
            test_adjacency_rejects_asymmetric;
          Alcotest.test_case "dot clusters" `Quick test_dot_contains_clusters;
        ] );
      ( "rows_reader",
        [
          Alcotest.test_case "malformed parity with of_metis" `Quick
            test_rows_malformed_parity;
          Alcotest.test_case "split feed" `Quick test_rows_split_feed;
          Alcotest.test_case "split feed, mixed row" `Quick
            test_rows_split_mixed_row;
          Alcotest.test_case "hostile headers" `Quick
            test_rows_hostile_headers;
          Alcotest.test_case "to_metis_chunks bytes" `Quick
            test_to_metis_chunks_bytes;
        ] );
      ("properties", qcheck_cases);
    ]
