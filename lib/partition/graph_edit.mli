(** Small graph edits for incremental repartitioning (DESIGN.md §6.7).

    A PPN under design-space exploration is re-derived after every
    transformation, but each step changes only a handful of processes
    and channels. This module applies such an edit batch to an
    immutable {!Wgraph.t} and reports, per surviving node, where it
    came from — exactly what {!Ppnpart_core.Gp.repartition} needs to
    project the previous labelling onto the edited graph.

    Node ids in an edit batch are {e handles}: they refer to the graph
    as it stood when {!apply} was called, extended by the nodes the
    batch itself adds. [Add_node] allocates the next id ([n], [n + 1],
    ... in batch order); [Remove_node] invalidates its id for the rest
    of the batch but does not renumber anything. Only after the whole
    batch is applied are the surviving nodes compacted, in ascending
    handle order, onto [0 .. n' - 1] (the METIS-style dense id space
    every kernel expects). *)

open Ppnpart_graph

exception Invalid_edit of string
(** The single documented failure of {!apply}: an op referencing an
    out-of-range or removed node, a negative weight, a self loop, an
    [Add_edge] over an existing edge, or a [Remove_edge] /
    [Set_edge_weight] on a missing one. The message names the op and
    the offending ids. The input graph is never modified (it is
    immutable), and no partial result escapes. *)

type op =
  | Add_node of { weight : int; neighbors : (int * int) list }
      (** new process: node weight plus [(neighbor, edge_weight)]
          channels; the new node's handle is the next unused id *)
  | Remove_node of int  (** drop a process and every incident channel *)
  | Add_edge of int * int * int  (** [Add_edge (u, v, w)]: new channel *)
  | Remove_edge of int * int
  | Set_node_weight of int * int  (** resource re-estimate of a process *)
  | Set_edge_weight of int * int * int
      (** bandwidth re-estimate of a channel *)

val op_name : op -> string
(** ["add_node"], ["remove_node"], ... — the daemon protocol
    spellings. *)

type stats = {
  added_nodes : int;
  removed_nodes : int;
  touched : int;
      (** distinct node handles an op named or was incident to —
          the numerator of the edit ratio gating incremental
          repartitioning *)
  touched_nodes : int array;
      (** the touched handles that survive the batch, as ids of the
          edited graph, ascending. A node outside this set has the same
          weight and the same adjacency row (under the node map) before
          and after the edit — what {!Part_state.rebase} relies on. *)
}

val apply : Wgraph.t -> op list -> Wgraph.t * int array * stats
(** [apply g ops] is [(g', node_map, stats)] where [g'] is the edited
    graph and [node_map.(u')] is the {e original} id of surviving node
    [u'] ([-1] when the node was added by the batch). [ops] are applied
    in order; an empty batch rebuilds [g] unchanged under the identity
    map. Deterministic: equal [(g, ops)] give byte-identical results.

    Cost: each op is O(degree) on lazily materialized rows. The edited
    CSR is spliced, not rebuilt from an edge list. Each maximal run of
    rows no op touched is copied from [g]'s arrays as one block, with
    its row pointers shifted by the degree change so far. Entries are
    renumbered only when the batch removed a node, and the node-id map
    behind that is allocated only then. The materialized rows are
    sorted by neighbour id. The result is checked by {!Wgraph.of_splice}, which looks at
    the touched rows and their neighbours only, not at all [m] edges.
    So a few-op batch allocates the edited graph and node map plus
    O(edit) words, and its work is O(n + m) plain word copying. Under
    [Ppnpart_check] (the [--check] flag), the full {!Wgraph.validate}
    also runs on every edited graph.
    @raise Invalid_edit on the first malformed op (see above). *)
