//! A scalable structured generator that streams edges straight into a
//! [`CsrGraph`] — no intermediate per-node adjacency `Vec`s.
//!
//! The classic generators in this crate build a [`netgraph::Graph`]
//! (`Vec<Vec<Neighbor>>`), which is one heap allocation per node — fine at
//! the paper's n=250, wasteful at the 10k+ scale the distance-oracle work
//! targets. The generator here emits a flat [`EdgeList`] instead, which
//! converts to a CSR snapshot with two counting-sort passes
//! ([`CsrGraph::from_edge_list`]) or, when an [`sdn::Sdn`] substrate is
//! needed, to a `Graph` in one pass with exactly the same edge ids and
//! adjacency order.
//!
//! [`fat_tree_edges`] builds k-ary fat-tree/Clos data centers
//! (parameterized radix), edge-order-identical to [`crate::fat_tree`].

use crate::structured::FatTreeLayout;
use netgraph::{CsrGraph, Graph, NodeId};

/// A flat undirected edge list with a fixed node universe — the streaming
/// interchange format between the scalable generator and [`CsrGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeList {
    nodes: usize,
    edges: Vec<(NodeId, NodeId, f64)>,
}

impl EdgeList {
    /// An empty list over `nodes` nodes.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        EdgeList {
            nodes,
            edges: Vec::new(),
        }
    }

    /// Appends an undirected edge. Endpoints must be in range and distinct
    /// (checked when the list is materialised, not here — pushing is the
    /// hot loop).
    pub fn push(&mut self, u: NodeId, v: NodeId, w: f64) {
        self.edges.push((u, v, w));
    }

    /// Number of nodes in the universe.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The raw edge triples, in insertion order (edge `i` becomes
    /// `EdgeId(i)` in both materialisations).
    #[must_use]
    pub fn edges(&self) -> &[(NodeId, NodeId, f64)] {
        &self.edges
    }

    /// Materialises the CSR snapshot directly — the zero-`Graph` path.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range or a self-loop.
    #[must_use]
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_edge_list(self.nodes, &self.edges)
    }

    /// Materialises a [`Graph`] with identical node/edge ids and adjacency
    /// order, for callers that need the mutable-graph API (e.g.
    /// [`crate::annotate`]).
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range or a self-loop.
    #[must_use]
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::with_nodes(self.nodes);
        for &(u, v, w) in &self.edges {
            g.add_edge(u, v, w)
                .expect("edge list endpoints are in range");
        }
        g
    }
}

/// [`crate::fat_tree`] as an edge stream: same ids, same layout, same edge
/// insertion order, without building the intermediate adjacency lists.
///
/// # Panics
///
/// Panics if `k` is odd or less than 2.
#[must_use]
pub fn fat_tree_edges(k: usize) -> (EdgeList, FatTreeLayout) {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree parameter must be even and >= 2"
    );
    let half = k / 2;
    let cores = half * half;
    let mut list = EdgeList::new(cores + k * k);
    let core: Vec<NodeId> = (0..cores).map(NodeId::new).collect();
    let mut aggregation = Vec::with_capacity(k);
    let mut edge = Vec::with_capacity(k);
    for pod in 0..k {
        let base = cores + pod * k;
        let aggs: Vec<NodeId> = (0..half).map(|i| NodeId::new(base + i)).collect();
        let edges: Vec<NodeId> = (0..half).map(|i| NodeId::new(base + half + i)).collect();
        for (ai, &a) in aggs.iter().enumerate() {
            for j in 0..half {
                if let Some(&c) = core.get(ai * half + j) {
                    list.push(a, c, 1.0);
                }
            }
            for &e in &edges {
                list.push(a, e, 1.0);
            }
        }
        aggregation.push(aggs);
        edge.push(edges);
    }
    (
        list,
        FatTreeLayout {
            core,
            aggregation,
            edge,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_stream_matches_classic_generator() {
        for k in [2, 4, 6] {
            let (list, layout) = fat_tree_edges(k);
            let (g, classic_layout) = crate::fat_tree(k);
            assert_eq!(layout, classic_layout);
            assert_eq!(list.node_count(), g.node_count());
            assert_eq!(list.edge_count(), g.edge_count());
            // Same ids, same adjacency order: the CSR snapshots are equal.
            assert_eq!(list.to_csr(), CsrGraph::from_graph(&g));
            assert_eq!(CsrGraph::from_graph(&list.to_graph()), list.to_csr());
        }
    }

    #[test]
    fn fat_tree_stream_counts_and_connectivity() {
        let k = 8;
        let (list, _) = fat_tree_edges(k);
        assert_eq!(list.node_count(), k * k / 4 + k * k);
        // Per pod: (k/2) aggs x ((k/2) core links + (k/2) edge links).
        assert_eq!(list.edge_count(), k * (k / 2) * k);
        assert!(netgraph::is_connected(&list.to_graph()));
    }

    #[test]
    fn large_fat_tree_builds_csr_directly() {
        // k=20 -> 500 nodes, 4000 edges; enough to notice quadratic slips.
        let (list, _) = fat_tree_edges(20);
        let csr = list.to_csr();
        assert_eq!(csr.node_count(), 500);
        assert_eq!(csr.arc_count(), 2 * list.edge_count());
    }
}
