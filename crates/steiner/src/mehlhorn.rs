//! Mehlhorn's faster KMB-equivalent Steiner approximation.
//!
//! Same contract and the same `2(1 − 1/ℓ)` guarantee as [`crate::kmb`],
//! but the metric closure is built with **one** multi-source Dijkstra
//! ([`netgraph::voronoi_closure`]) instead of one sweep per terminal:
//!
//! 1. Partition the graph into terminal Voronoi regions and collect, for
//!    every pair of adjacent regions, the cheapest bridging edge — a
//!    *sparse subgraph* `G₁'` of the full metric closure `G₁`.
//! 2. MST of `G₁'`. Mehlhorn (Inf. Proc. Lett. 1988, Lemma 1) shows
//!    `w(MST(G₁')) = w(MST(G₁))`, so nothing is lost by the sparsification.
//! 3. Expand every MST edge into its real path (region path + bridge +
//!    region path).
//! 4. MST of the expanded subgraph.
//! 5. Prune non-terminal leaves.
//!
//! Total `O(m log n)` versus KMB's `O(t · m log n)`. The two routines may
//! return *different* trees of the same approximation class (they
//! sparsify the closure differently), so the planners keep the paper's
//! KMB and only the Steiner-routine ablation runs this one.

use crate::{prune_non_terminal_leaves, SteinerTree};
use netgraph::{kruskal, kruskal_over, voronoi_closure, Graph, NodeId};

/// Computes an approximate minimum Steiner tree spanning `terminals`
/// using Mehlhorn's single-sweep construction.
///
/// Returns `None` if the terminals are not all in one connected component
/// (no Steiner tree exists), or if `terminals` is empty. Duplicate
/// terminals are tolerated; a single (deduplicated) terminal yields the
/// trivial zero-cost tree — the same contract as [`crate::kmb`].
///
/// Complexity: `O(m log n + m + t²)` with `t` terminals.
#[must_use]
pub fn mehlhorn(g: &Graph, terminals: &[NodeId]) -> Option<SteinerTree> {
    let mut seen = vec![false; g.node_count()];
    let mut uniq: Vec<NodeId> = Vec::with_capacity(terminals.len());
    for &t in terminals {
        if !g.contains_node(t) {
            return None;
        }
        if !seen[t.index()] {
            seen[t.index()] = true;
            uniq.push(t);
        }
    }
    if uniq.is_empty() {
        return None;
    }
    if uniq.len() == 1 {
        return Some(SteinerTree::from_parts(uniq, Vec::new(), 0.0));
    }

    // Steps 1–2: sparse closure from one multi-source sweep, then its MST.
    // Closure edge id i corresponds to vc.edges()[i] (insertion order).
    let vc = voronoi_closure(g, &uniq);
    let t = uniq.len();
    let mut closure = Graph::with_nodes(t);
    for ce in vc.edges() {
        closure
            .add_edge(NodeId::new(ce.a), NodeId::new(ce.b), ce.cost)
            .expect("finite non-negative closure cost"); // lint:allow(P1): closure costs are finite by construction
    }
    let mst1 = kruskal(&closure);
    if !mst1.is_spanning_tree() {
        return None; // terminals span more than one component
    }

    // Step 3: expand every closure MST edge into its realizing path.
    let mut expanded: Vec<netgraph::EdgeId> = Vec::new();
    for &ce in &mst1.edges {
        vc.expand_edge(&vc.edges()[ce.index()], &mut expanded);
    }

    // Step 4: MST of the expanded subgraph, over the collected edges only.
    let tree_edges = kruskal_over(g, expanded);

    // Step 5: prune non-terminal leaves.
    let (kept, cost) = prune_non_terminal_leaves(g, &tree_edges, &uniq);

    let tree = SteinerTree::from_parts(uniq, kept, cost);
    debug_assert!(
        tree.validate(g).is_ok(),
        "Mehlhorn produced an invalid tree"
    );
    Some(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmb;
    use netgraph::Graph;

    fn steiner_star() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let hub = g.add_node();
        let t: Vec<NodeId> = (0..3).map(|_| g.add_node()).collect();
        for &x in &t {
            g.add_edge(hub, x, 1.0).unwrap();
        }
        g.add_edge(t[0], t[1], 1.9).unwrap();
        g.add_edge(t[1], t[2], 1.9).unwrap();
        let mut nodes = vec![hub];
        nodes.extend(&t);
        (g, nodes)
    }

    #[test]
    fn finds_star_through_steiner_node() {
        let (g, v) = steiner_star();
        let tree = mehlhorn(&g, &[v[1], v[2], v[3]]).unwrap();
        tree.validate(&g).unwrap();
        assert!(tree.cost() <= 3.8 + 1e-9);
        assert!(tree.cost() >= 3.0 - 1e-9);
    }

    #[test]
    fn two_terminals_is_shortest_path() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        g.add_edge(v[0], v[1], 1.0).unwrap();
        g.add_edge(v[1], v[2], 1.0).unwrap();
        g.add_edge(v[2], v[3], 1.0).unwrap();
        g.add_edge(v[0], v[3], 10.0).unwrap();
        let tree = mehlhorn(&g, &[v[0], v[3]]).unwrap();
        assert_eq!(tree.cost(), 3.0);
        assert_eq!(tree.edges().len(), 3);
    }

    #[test]
    fn single_terminal_trivial() {
        let mut g = Graph::new();
        let a = g.add_node();
        let tree = mehlhorn(&g, &[a]).unwrap();
        assert_eq!(tree.cost(), 0.0);
        assert!(tree.edges().is_empty());
    }

    #[test]
    fn duplicate_terminals_deduplicated() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, 2.0).unwrap();
        let tree = mehlhorn(&g, &[a, b, a, b]).unwrap();
        assert_eq!(tree.terminals(), &[a, b]);
        assert_eq!(tree.cost(), 2.0);
    }

    #[test]
    fn disconnected_terminals_give_none() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b, 1.0).unwrap();
        assert!(mehlhorn(&g, &[a, c]).is_none());
    }

    #[test]
    fn empty_terminals_give_none() {
        let g = Graph::new();
        assert!(mehlhorn(&g, &[]).is_none());
    }

    #[test]
    fn unknown_terminal_gives_none() {
        let mut g = Graph::new();
        let a = g.add_node();
        assert!(mehlhorn(&g, &[a, NodeId::new(5)]).is_none());
    }

    #[test]
    fn all_nodes_as_terminals_gives_mst_weight() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                g.add_edge(v[i], v[j], ((i * 7 + j * 3) % 11 + 1) as f64)
                    .unwrap();
            }
        }
        let tree = mehlhorn(&g, &v).unwrap();
        let mst = netgraph::kruskal(&g);
        assert!((tree.cost() - mst.total_weight).abs() < 1e-9);
    }

    #[test]
    fn matches_kmb_cost_class_on_random_grids() {
        // Mehlhorn and KMB may pick different trees but both are ≤ 2·OPT;
        // on a weighted grid their costs should stay close (here: within
        // a factor of 2 of each other, which the shared bound implies).
        let mut g = Graph::new();
        let side = 5usize;
        let v: Vec<NodeId> = (0..side * side).map(|_| g.add_node()).collect();
        let mut x = 0xdeadbeefu64;
        let mut w = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % 9 + 1) as f64
        };
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    g.add_edge(v[r * side + c], v[r * side + c + 1], w())
                        .unwrap();
                }
                if r + 1 < side {
                    g.add_edge(v[r * side + c], v[(r + 1) * side + c], w())
                        .unwrap();
                }
            }
        }
        let terms = [v[0], v[7], v[13], v[21], v[24]];
        let m = mehlhorn(&g, &terms).unwrap();
        let k = kmb(&g, &terms).unwrap();
        m.validate(&g).unwrap();
        assert!(m.cost() <= 2.0 * k.cost() + 1e-9);
        assert!(k.cost() <= 2.0 * m.cost() + 1e-9);
    }
}
