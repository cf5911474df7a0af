//! Dynamic-Steiner grafting: attach a new terminal to an existing tree
//! via its cheapest path to any already-covered node.
//!
//! This is the `join(network, exclude, T, v)` primitive of
//! SDN-ResilientMulticast-style live membership: instead of re-solving
//! the Steiner instance when a destination subscribes, run one Dijkstra
//! from the new terminal and splice in the cheapest path to the current
//! tree. The result is not globally optimal — repeated grafts drift away
//! from a fresh tree, which is why callers track accumulated drift and
//! periodically re-optimize — but each graft is a single shortest-path
//! computation.
//!
//! An *exclusion set* of edges makes the primitive reusable for
//! protection planning: `join_excluding` finds the cheapest attach path
//! that avoids a given set of links (e.g. a link assumed failed), without
//! the caller having to materialize a filtered graph.

use netgraph::{EdgeId, Graph, NodeId, Path};
use std::collections::BTreeSet;

/// Cheapest attach of `v` to the node set `tree_nodes`: the shortest
/// path from `v` to its nearest covered node (ties broken by ascending
/// node id, so grafts are deterministic).
///
/// Returns `None` when `v` cannot reach any covered node, and a trivial
/// zero-length path when `v` is itself covered. The returned path runs
/// **from `v` to the tree**; callers splicing it into a tree rooted the
/// other way simply read the edge list, which is direction-agnostic on
/// undirected graphs.
#[must_use]
pub fn join(g: &Graph, tree_nodes: &[NodeId], v: NodeId) -> Option<Path> {
    join_excluding(g, &BTreeSet::new(), tree_nodes, v)
}

/// [`join`] restricted to the subgraph without the edges in `exclude`.
///
/// One [`netgraph::nearest_target_path`] run: the shared Dijkstra kernel
/// skips excluded edges during relaxation, so edge ids in the returned
/// path are `g`'s own ids — no translation table needed.
///
/// # Panics
///
/// Panics if `v` is not a node of `g`.
#[must_use]
pub fn join_excluding(
    g: &Graph,
    exclude: &BTreeSet<EdgeId>,
    tree_nodes: &[NodeId],
    v: NodeId,
) -> Option<Path> {
    assert!(g.contains_node(v), "graft terminal {v} not in graph");
    netgraph::nearest_target_path(g, v, tree_nodes, exclude)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3 plus a detour 0-4-3 of higher cost.
    fn line() -> (Graph, Vec<NodeId>, Vec<EdgeId>) {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        let e0 = g.add_edge(v[0], v[1], 1.0).unwrap();
        let e1 = g.add_edge(v[1], v[2], 1.0).unwrap();
        let e2 = g.add_edge(v[2], v[3], 1.0).unwrap();
        let e3 = g.add_edge(v[0], v[4], 2.0).unwrap();
        let e4 = g.add_edge(v[4], v[3], 2.0).unwrap();
        (g, v, vec![e0, e1, e2, e3, e4])
    }

    #[test]
    fn attaches_to_nearest_tree_node() {
        let (g, v, e) = line();
        // Tree covers {0, 1}; graft node 3: nearest cover is 1 via 2.
        let p = join(&g, &[v[0], v[1]], v[3]).unwrap();
        assert_eq!(p.source(), v[3]);
        assert_eq!(p.target(), v[1]);
        assert_eq!(p.edges(), &[e[2], e[1]]);
        assert_eq!(p.cost(), 2.0);
    }

    #[test]
    fn covered_terminal_is_trivial() {
        let (g, v, _) = line();
        let p = join(&g, &[v[0], v[1]], v[1]).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.cost(), 0.0);
    }

    #[test]
    fn exclusion_forces_the_detour() {
        let (g, v, e) = line();
        let exclude: BTreeSet<EdgeId> = [e[1]].into_iter().collect();
        // With 1-2 cut, node 3 must reach {0,1} around the detour via 4.
        let p = join_excluding(&g, &exclude, &[v[0], v[1]], v[3]).unwrap();
        assert_eq!(p.target(), v[0]);
        assert_eq!(p.edges(), &[e[4], e[3]]);
        assert_eq!(p.cost(), 4.0);
    }

    #[test]
    fn unreachable_returns_none() {
        let (g, v, e) = line();
        let exclude: BTreeSet<EdgeId> = [e[1], e[3]].into_iter().collect();
        // Node 3 is cut off from {0, 1} entirely.
        assert!(join_excluding(&g, &exclude, &[v[0], v[1]], v[3]).is_none());
        // And an empty tree can never be joined.
        assert!(join(&g, &[], v[3]).is_none());
    }

    #[test]
    fn ties_break_towards_smaller_node_id() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..3).map(|_| g.add_node()).collect();
        g.add_edge(v[2], v[0], 1.0).unwrap();
        g.add_edge(v[2], v[1], 1.0).unwrap();
        let p = join(&g, &[v[0], v[1]], v[2]).unwrap();
        assert_eq!(p.target(), v[0]);
    }
}
