//! Minimum spanning trees / forests: Kruskal and Prim.

use crate::{EdgeId, Graph, NodeId, TotalCost, UnionFind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A minimum spanning forest: the chosen edges and their total weight.
///
/// For a connected graph this is a spanning tree with `n - 1` edges.
#[derive(Debug, Clone, PartialEq)]
pub struct MstResult {
    /// Edge ids of the forest, in the order the algorithm selected them.
    pub edges: Vec<EdgeId>,
    /// Sum of the selected edges' weights.
    pub total_weight: f64,
    /// Number of connected components in the input graph (1 for a tree).
    pub components: usize,
}

impl MstResult {
    /// Returns `true` if the forest spans a connected graph (single tree).
    #[must_use]
    pub fn is_spanning_tree(&self) -> bool {
        self.components == 1
    }
}

/// Kruskal's algorithm. `O(m log m)`. Works on disconnected graphs, in
/// which case it returns a minimum spanning forest.
#[must_use]
pub fn kruskal(g: &Graph) -> MstResult {
    let mut order: Vec<EdgeId> = g.edges().map(|e| e.id).collect();
    order.sort_by_key(|&e| TotalCost::new(g.edge(e).weight));

    let mut uf = UnionFind::new(g.node_count());
    let mut edges = Vec::with_capacity(g.node_count().saturating_sub(1));
    let mut total = 0.0;
    for e in order {
        let er = g.edge(e);
        if uf.union(er.u.index(), er.v.index()) {
            edges.push(e);
            total += er.weight;
        }
    }
    MstResult {
        edges,
        total_weight: total,
        components: uf.set_count(),
    }
}

/// Kruskal's algorithm over the edge subset `edges` of `g` (duplicates
/// allowed, any order), returning the selected edge ids in selection
/// order. `O(n + k log k)` for `k` edges: no subgraph is copied.
///
/// Selects exactly the edges, in exactly the order, of [`kruskal`] on
/// `induced_subgraph(g, |_| true, |e| edges.contains(&e))` mapped back to
/// parent ids: the subgraph numbers its edges in ascending parent id and
/// [`kruskal`]'s sort is stable, so ties by weight break by edge id —
/// the `(weight, id)` order sorted here in one pass.
#[must_use]
pub fn kruskal_over(g: &Graph, mut edges: Vec<EdgeId>) -> Vec<EdgeId> {
    edges.sort_unstable_by_key(|&e| (TotalCost::new(g.edge(e).weight), e));
    edges.dedup();
    let mut uf = UnionFind::new(g.node_count());
    edges.retain(|&e| {
        let er = g.edge(e);
        uf.union(er.u.index(), er.v.index())
    });
    edges
}

/// Prim's algorithm, restarted per component. `O(m log n)`.
///
/// Produces the same forest weight as [`kruskal`] (the edge set may differ
/// when weights tie).
#[must_use]
pub fn prim(g: &Graph) -> MstResult {
    let n = g.node_count();
    let mut in_tree = vec![false; n];
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let mut total = 0.0;
    let mut components = 0usize;

    for start in g.nodes() {
        if in_tree.get(start.index()).copied().unwrap_or(true) {
            continue;
        }
        components += 1;
        if let Some(seen) = in_tree.get_mut(start.index()) {
            *seen = true;
        }
        let mut heap: BinaryHeap<Reverse<(TotalCost, EdgeId, NodeId)>> = BinaryHeap::new();
        for nb in g.neighbors(start) {
            heap.push(Reverse((
                TotalCost::new(g.edge(nb.edge).weight),
                nb.edge,
                nb.node,
            )));
        }
        while let Some(Reverse((w, e, v))) = heap.pop() {
            if in_tree.get(v.index()).copied().unwrap_or(true) {
                continue;
            }
            if let Some(seen) = in_tree.get_mut(v.index()) {
                *seen = true;
            }
            edges.push(e);
            total += w.get();
            for nb in g.neighbors(v) {
                if !in_tree.get(nb.node.index()).copied().unwrap_or(true) {
                    heap.push(Reverse((
                        TotalCost::new(g.edge(nb.edge).weight),
                        nb.edge,
                        nb.node,
                    )));
                }
            }
        }
    }

    MstResult {
        edges,
        total_weight: total,
        components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn square_with_diagonal() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        g.add_edge(v[0], v[1], 1.0).unwrap();
        g.add_edge(v[1], v[2], 2.0).unwrap();
        g.add_edge(v[2], v[3], 3.0).unwrap();
        g.add_edge(v[3], v[0], 4.0).unwrap();
        g.add_edge(v[0], v[2], 5.0).unwrap();
        (g, v)
    }

    #[test]
    fn kruskal_finds_minimum() {
        let (g, _) = square_with_diagonal();
        let mst = kruskal(&g);
        assert_eq!(mst.edges.len(), 3);
        assert_eq!(mst.total_weight, 6.0);
        assert!(mst.is_spanning_tree());
    }

    #[test]
    fn kruskal_over_all_edges_is_kruskal() {
        let (g, _) = square_with_diagonal();
        // Reversed and duplicated input: the subset is a set.
        let mut all: Vec<EdgeId> = g.edges().map(|e| e.id).collect();
        all.reverse();
        all.push(all[0]);
        assert_eq!(kruskal_over(&g, all), kruskal(&g).edges);
        assert!(kruskal_over(&g, Vec::new()).is_empty());
    }

    #[test]
    fn kruskal_over_sorts_like_id_dedup_then_stable_weight_sort() {
        // Ties and zero weights everywhere: the selection order hinges on
        // the tie-break by edge id.
        let mut g = Graph::with_nodes(6);
        let edges = [
            (0, 1, 0.0),
            (1, 2, 1.0),
            (0, 2, 0.0),
            (2, 3, 2.0),
            (3, 4, 1.0),
            (4, 5, 0.0),
            (5, 0, 2.0),
            (1, 4, 1.0),
            (0, 1, 0.0),
        ];
        for (u, v, w) in edges {
            g.add_edge(NodeId::new(u), NodeId::new(v), w).unwrap();
        }
        let two_pass = |mut edges: Vec<EdgeId>| {
            edges.sort_unstable();
            edges.dedup();
            edges.sort_by_key(|&e| TotalCost::new(g.edge(e).weight));
            let mut uf = UnionFind::new(g.node_count());
            edges.retain(|&e| uf.union(g.edge(e).u.index(), g.edge(e).v.index()));
            edges
        };
        let ids = |xs: &[usize]| xs.iter().map(|&i| EdgeId::new(i)).collect::<Vec<_>>();
        for list in [
            ids(&[8, 0, 5, 2, 8, 0, 0]),
            ids(&[7, 4, 1, 7, 1, 3, 6, 6]),
            ids(&[8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8]),
            ids(&[3, 3, 3]),
            Vec::new(),
        ] {
            assert_eq!(kruskal_over(&g, list.clone()), two_pass(list));
        }
    }

    #[test]
    fn prim_matches_kruskal_weight() {
        let (g, _) = square_with_diagonal();
        assert_eq!(prim(&g).total_weight, kruskal(&g).total_weight);
    }

    #[test]
    fn forest_on_disconnected_graph() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        g.add_edge(v[0], v[1], 1.0).unwrap();
        g.add_edge(v[2], v[3], 2.0).unwrap();
        let k = kruskal(&g);
        let p = prim(&g);
        assert_eq!(k.edges.len(), 2);
        assert_eq!(k.total_weight, 3.0);
        assert_eq!(k.components, 3); // {0,1}, {2,3}, {4}
        assert!(!k.is_spanning_tree());
        assert_eq!(p.total_weight, 3.0);
        assert_eq!(p.components, 3);
    }

    #[test]
    fn empty_and_singleton() {
        let g = Graph::new();
        let k = kruskal(&g);
        assert!(k.edges.is_empty());
        assert_eq!(k.components, 0);

        let g1 = Graph::with_nodes(1);
        let k1 = kruskal(&g1);
        assert!(k1.edges.is_empty());
        assert_eq!(k1.components, 1);
        assert!(k1.is_spanning_tree());
        assert_eq!(prim(&g1).components, 1);
    }

    #[test]
    fn parallel_edges_choose_cheapest() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, 9.0).unwrap();
        let cheap = g.add_edge(a, b, 1.0).unwrap();
        let k = kruskal(&g);
        assert_eq!(k.edges, vec![cheap]);
        assert_eq!(prim(&g).total_weight, 1.0);
    }

    #[test]
    fn mst_weight_invariant_under_edge_order() {
        // Same graph built with different insertion orders gives same weight.
        let mut g1 = Graph::with_nodes(4);
        let mut g2 = Graph::with_nodes(4);
        let pairs = [(0, 1, 2.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 3.0)];
        for &(u, v, w) in &pairs {
            g1.add_edge(NodeId::new(u), NodeId::new(v), w).unwrap();
        }
        for &(u, v, w) in pairs.iter().rev() {
            g2.add_edge(NodeId::new(u), NodeId::new(v), w).unwrap();
        }
        assert_eq!(kruskal(&g1).total_weight, kruskal(&g2).total_weight);
    }
}
