//! Subgraph filtering with edge-id translation.
//!
//! No planner builds its subgraph here: the capacitated algorithms plan
//! on `sdn::FeasibleGraph`, which keeps the parent's node ids and is
//! rebuilt in place. [`induced_subgraph`] is the plain, obviously correct
//! construction that the feasible-subgraph, shared-bank and
//! bank-equivalence tests compare those planners against.

use crate::{EdgeId, Graph, NodeId};

/// A subgraph together with the edge id mapping back to its parent
/// graph. Kept nodes are renumbered densely in parent order.
#[derive(Debug, Clone)]
pub struct FilteredGraph {
    graph: Graph,
    /// Original edge id per filtered edge index.
    to_parent_edge: Vec<EdgeId>,
}

impl FilteredGraph {
    /// The filtered graph itself.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Maps a filtered edge id back to the parent graph.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an edge of the filtered graph.
    #[must_use]
    pub fn parent_edge(&self, e: EdgeId) -> EdgeId {
        self.to_parent_edge[e.index()]
    }

    /// Maps a slice of filtered edge ids back to parent edge ids.
    #[must_use]
    pub fn parent_edges(&self, edges: &[EdgeId]) -> Vec<EdgeId> {
        edges.iter().map(|&e| self.parent_edge(e)).collect()
    }
}

/// Builds the subgraph of `g` induced by the nodes passing `keep_node` and
/// the edges passing `keep_edge` (an edge also needs both endpoints kept).
///
/// Edge weights are preserved.
pub fn induced_subgraph(
    g: &Graph,
    mut keep_node: impl FnMut(NodeId) -> bool,
    mut keep_edge: impl FnMut(EdgeId) -> bool,
) -> FilteredGraph {
    let mut graph = Graph::new();
    let mut from_parent_node = vec![None; g.node_count()];
    for n in g.nodes() {
        if keep_node(n) {
            from_parent_node[n.index()] = Some(graph.add_node());
        }
    }
    let mut to_parent_edge = Vec::new();
    for e in g.edges() {
        if !keep_edge(e.id) {
            continue;
        }
        let (Some(u), Some(v)) = (from_parent_node[e.u.index()], from_parent_node[e.v.index()])
        else {
            continue;
        };
        graph
            .add_edge(u, v, e.weight)
            .expect("weights already validated by the parent graph"); // lint:allow(P1): weights already validated by the parent graph
        to_parent_edge.push(e.id);
    }
    FilteredGraph {
        graph,
        to_parent_edge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> (Graph, Vec<NodeId>, Vec<EdgeId>) {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        let e: Vec<EdgeId> = (0..3)
            .map(|i| g.add_edge(v[i], v[i + 1], (i + 1) as f64).unwrap())
            .collect();
        (g, v, e)
    }

    #[test]
    fn keep_everything_is_identity_shaped() {
        let (g, ..) = path4();
        let f = induced_subgraph(&g, |_| true, |_| true);
        assert_eq!(f.graph().node_count(), 4);
        assert_eq!(f.graph().edge_count(), 3);
        for er in f.graph().edges() {
            let parent = g.edge(f.parent_edge(er.id));
            assert_eq!((er.u, er.v), (parent.u, parent.v));
        }
    }

    #[test]
    fn dropping_a_node_drops_its_edges() {
        let (g, v, e) = path4();
        let f = induced_subgraph(&g, |n| n != v[1], |_| true);
        assert_eq!(f.graph().node_count(), 3);
        assert_eq!(f.graph().edge_count(), 1); // only v2-v3 survives
                                               // v0, v2, v3 renumber to 0, 1, 2.
        let er = f.graph().edges().next().unwrap();
        assert_eq!(f.parent_edge(er.id), e[2]);
        assert_eq!((er.u.index(), er.v.index()), (1, 2));
    }

    #[test]
    fn dropping_edges_keeps_nodes() {
        let (g, _, e) = path4();
        let f = induced_subgraph(&g, |_| true, |id| id != e[0]);
        assert_eq!(f.graph().node_count(), 4);
        assert_eq!(f.graph().edge_count(), 2);
        let parents = f.parent_edges(&f.graph().edges().map(|er| er.id).collect::<Vec<_>>());
        assert_eq!(parents, vec![e[1], e[2]]);
    }

    #[test]
    fn weights_preserved() {
        let (g, _, _) = path4();
        let f = induced_subgraph(&g, |_| true, |_| true);
        let ws: Vec<f64> = f.graph().edges().map(|e| e.weight).collect();
        assert_eq!(ws, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_filter() {
        let (g, ..) = path4();
        let f = induced_subgraph(&g, |_| false, |_| true);
        assert_eq!(f.graph().node_count(), 0);
        assert_eq!(f.graph().edge_count(), 0);
    }
}
