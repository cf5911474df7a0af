//! Exact Steiner trees via the Dreyfus–Wagner dynamic program.
//!
//! `dp[S][v]` = minimum cost of a tree spanning terminal set `S ∪ {v}`.
//! Transitions: merge two subtrees at `v`, or extend a subtree along a
//! shortest path into `v`. With the full shortest-path metric available the
//! extension step is a single minimization (no inner Dijkstra needed).
//!
//! Complexity `O(3^t · n + 2^t · n² + t·n²·log n)` — only viable for small
//! terminal counts; the crate caps `t` at [`MAX_TERMINALS`]. This is the
//! oracle that certifies the 2-approximation of [`kmb`](crate::kmb) and the
//! 2K bound of `Appro_Multi` in the test suites.

use crate::SteinerTree;
use netgraph::{dijkstra, EdgeId, Graph, NodeId, ShortestPathTree};
use std::collections::BTreeSet;

/// Largest terminal count accepted by [`dreyfus_wagner`].
pub const MAX_TERMINALS: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Choice {
    /// Base case: tree = shortest path from the single terminal to `v`.
    Leaf,
    /// dp[S][v] = dp[sub][v] + dp[S \ sub][v].
    Merge(u32),
    /// dp[S][v] = dp[S][u] + dist(u, v).
    Extend(u32 /* node index */),
}

/// Computes an exact minimum Steiner tree spanning `terminals`.
///
/// Returns `None` if the terminals do not lie in one connected component or
/// `terminals` is empty.
///
/// # Panics
///
/// Panics if the (deduplicated) terminal count exceeds [`MAX_TERMINALS`];
/// the exponential DP is a test oracle, not a production routine.
#[must_use]
pub fn dreyfus_wagner(g: &Graph, terminals: &[NodeId]) -> Option<SteinerTree> {
    let mut uniq: Vec<NodeId> = Vec::new();
    let mut seen = BTreeSet::new();
    for &t in terminals {
        if !g.contains_node(t) {
            return None;
        }
        if seen.insert(t) {
            uniq.push(t);
        }
    }
    if uniq.is_empty() {
        return None;
    }
    assert!(
        uniq.len() <= MAX_TERMINALS,
        "dreyfus_wagner is an oracle for <= {MAX_TERMINALS} terminals, got {}",
        uniq.len()
    );
    if uniq.len() == 1 {
        return Some(SteinerTree::from_parts(uniq, Vec::new(), 0.0));
    }

    let n = g.node_count();
    let spts: Vec<ShortestPathTree> = (0..n).map(|i| dijkstra(g, NodeId::new(i))).collect();
    let dist =
        |u: usize, v: usize| -> f64 { spts[u].distance(NodeId::new(v)).unwrap_or(f64::INFINITY) };

    // Check connectivity of terminals first.
    for &t in &uniq[1..] {
        if !spts[uniq[0].index()].is_reachable(t) {
            return None;
        }
    }

    let t = uniq.len();
    let full: u32 = (1u32 << t) - 1;
    let mut dp = vec![vec![f64::INFINITY; n]; (full + 1) as usize];
    let mut choice = vec![vec![Choice::Leaf; n]; (full + 1) as usize];

    // Base: singleton sets.
    for (i, &term) in uniq.iter().enumerate() {
        let mask = 1u32 << i;
        for v in 0..n {
            dp[mask as usize][v] = dist(term.index(), v);
            choice[mask as usize][v] = Choice::Leaf;
        }
    }

    for mask in 1..=full {
        if mask.count_ones() <= 1 {
            continue;
        }
        let m = mask as usize;
        // Merge step: combine two disjoint subsets at v. Enumerate proper
        // submasks containing the lowest set bit to avoid double counting.
        let low = mask & mask.wrapping_neg();
        let mut sub = (mask - 1) & mask;
        while sub > 0 {
            if sub & low != 0 && sub != mask {
                let rest = mask ^ sub;
                for v in 0..n {
                    let cand = dp[sub as usize][v] + dp[rest as usize][v];
                    if cand < dp[m][v] {
                        dp[m][v] = cand;
                        choice[m][v] = Choice::Merge(sub);
                    }
                }
            }
            sub = (sub - 1) & mask;
        }
        // Extend step: dp[mask][v] = min_u dp[mask][u] + dist(u, v). One
        // pass suffices because dist is the full shortest-path metric.
        let snapshot: Vec<(usize, f64)> = (0..n)
            .filter(|&u| dp[m][u].is_finite())
            .map(|u| (u, dp[m][u]))
            .collect();
        for v in 0..n {
            for &(u, du) in &snapshot {
                let cand = du + dist(u, v);
                if cand < dp[m][v] {
                    dp[m][v] = cand;
                    choice[m][v] = Choice::Extend(u as u32);
                }
            }
        }
    }

    let root = uniq[0].index();
    if !dp[full as usize][root].is_finite() {
        return None;
    }

    // Reconstruct the edge set.
    let mut edges: BTreeSet<EdgeId> = BTreeSet::new();
    let mut stack: Vec<(u32, usize)> = vec![(full, root)];
    while let Some((mask, v)) = stack.pop() {
        if mask.count_ones() == 1 {
            // Shortest path from the lone terminal to v.
            let ti = mask.trailing_zeros() as usize;
            add_path_edges(g, &spts[uniq[ti].index()], NodeId::new(v), &mut edges);
            continue;
        }
        match choice[mask as usize][v] {
            Choice::Leaf => unreachable!("multi-terminal mask cannot be a leaf"), // lint:allow(P1): Leaf choices are recorded only for singleton masks
            Choice::Merge(sub) => {
                stack.push((sub, v));
                stack.push((mask ^ sub, v));
            }
            Choice::Extend(u) => {
                add_path_edges(g, &spts[u as usize], NodeId::new(v), &mut edges);
                stack.push((mask, u as usize));
            }
        }
    }

    // The union of optimal subtrees can in principle contain redundant
    // edges when shortest paths overlap; prune to a tree of the terminals.
    let tree_edges = netgraph::kruskal_over(g, edges.into_iter().collect());
    let (kept, cost) = crate::prune_non_terminal_leaves(g, &tree_edges, &uniq);

    debug_assert!(
        cost <= dp[full as usize][root] + 1e-6,
        "reconstruction ({cost}) worse than DP value ({})",
        dp[full as usize][root]
    );
    let tree = SteinerTree::from_parts(uniq, kept, cost);
    debug_assert!(tree.validate(g).is_ok());
    Some(tree)
}

fn add_path_edges(g: &Graph, spt: &ShortestPathTree, to: NodeId, edges: &mut BTreeSet<EdgeId>) {
    let p = spt.path_to(g, to).expect("reachability checked"); // lint:allow(P1): callers check reachability before requesting the path
    edges.extend(p.edges().iter().copied());
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::Graph;

    #[test]
    fn matches_shortest_path_for_two_terminals() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        g.add_edge(v[0], v[1], 1.0).unwrap();
        g.add_edge(v[1], v[2], 1.0).unwrap();
        g.add_edge(v[2], v[3], 1.0).unwrap();
        g.add_edge(v[0], v[3], 2.5).unwrap();
        let t = dreyfus_wagner(&g, &[v[0], v[3]]).unwrap();
        assert_eq!(t.cost(), 2.5);
    }

    #[test]
    fn finds_steiner_node_star() {
        let mut g = Graph::new();
        let hub = g.add_node();
        let ts: Vec<NodeId> = (0..3).map(|_| g.add_node()).collect();
        for &x in &ts {
            g.add_edge(hub, x, 1.0).unwrap();
        }
        // Direct terminal-terminal edges cost 1.9 each; star (3.0) beats
        // any two direct edges (3.8).
        g.add_edge(ts[0], ts[1], 1.9).unwrap();
        g.add_edge(ts[1], ts[2], 1.9).unwrap();
        let t = dreyfus_wagner(&g, &ts).unwrap();
        t.validate(&g).unwrap();
        assert!((t.cost() - 3.0).abs() < 1e-9, "cost {}", t.cost());
        assert!(t.contains_node(&g, hub));
    }

    #[test]
    fn kmb_within_two_of_exact_on_grid() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..16).map(|_| g.add_node()).collect();
        for r in 0..4 {
            for c in 0..4 {
                let i = r * 4 + c;
                if c < 3 {
                    g.add_edge(v[i], v[i + 1], ((i % 3) + 1) as f64).unwrap();
                }
                if r < 3 {
                    g.add_edge(v[i], v[i + 4], ((i % 2) + 1) as f64).unwrap();
                }
            }
        }
        let terms = [v[0], v[3], v[12], v[15], v[5]];
        let exact = dreyfus_wagner(&g, &terms).unwrap();
        let approx = crate::kmb(&g, &terms).unwrap();
        assert!(approx.cost() >= exact.cost() - 1e-9);
        assert!(approx.cost() <= 2.0 * exact.cost() + 1e-9);
    }

    #[test]
    fn disconnected_gives_none() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let _ = (a, b);
        assert!(dreyfus_wagner(&g, &[a, b]).is_none());
    }

    #[test]
    fn single_terminal_trivial() {
        let mut g = Graph::new();
        let a = g.add_node();
        let t = dreyfus_wagner(&g, &[a]).unwrap();
        assert_eq!(t.cost(), 0.0);
    }

    #[test]
    #[should_panic(expected = "oracle")]
    fn too_many_terminals_panics() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..14).map(|_| g.add_node()).collect();
        for i in 0..13 {
            g.add_edge(v[i], v[i + 1], 1.0).unwrap();
        }
        let _ = dreyfus_wagner(&g, &v);
    }
}
