//! The Kou–Markowsky–Berman Steiner tree approximation.
//!
//! The five classic steps:
//!
//! 1. Build the *metric closure* `G₁` on the terminals (complete graph,
//!    edge weight = shortest-path distance in `G`).
//! 2. Find an MST `T₁` of `G₁`.
//! 3. Expand every `T₁` edge into its shortest path in `G`, giving the
//!    subgraph `G_s`.
//! 4. Find an MST `T_s` of `G_s`.
//! 5. Prune non-terminal leaves from `T_s`.
//!
//! Approximation ratio `2(1 − 1/ℓ) < 2`, `ℓ` = leaves of the optimal tree.

#![allow(clippy::needless_range_loop)] // paired-index loops over parallel arrays

use crate::{prune_non_terminal_leaves, SteinerTree};
use netgraph::{
    dijkstra_with_targets, kruskal_over, EdgeId, Graph, NodeId, ShortestPathTree, TotalCost,
    UnionFind,
};

/// Computes an approximate minimum Steiner tree spanning `terminals`.
///
/// Returns `None` if the terminals are not all in one connected component
/// (no Steiner tree exists), or if `terminals` is empty.
///
/// Duplicate terminals are tolerated. A single (deduplicated) terminal
/// yields the trivial zero-cost tree.
///
/// Step 1 runs through a [`TerminalSptBank`] whose targets are the
/// deduplicated terminals themselves, one code path shared with
/// [`kmb_with_bank`]: one Dijkstra per terminal but the last, whose tree
/// the construction never reads.
///
/// Complexity: `O(t·(m + n) log n + m log m)` with `t` terminals.
#[must_use]
pub fn kmb(g: &Graph, terminals: &[NodeId]) -> Option<SteinerTree> {
    let uniq = dedup_terminals(g, terminals)?;
    let mut bank = TerminalSptBank::new(uniq.clone());
    kmb_core(g, uniq, &mut bank)
}

/// Shortest-path trees from terminals, computed once and shared across
/// the repeated [`kmb_with_bank`] calls of a candidate scan whose
/// terminal sets overlap (e.g. every `Online_CP` and `EMP_Online`
/// admission evaluating many servers against one fixed
/// `{source} ∪ destinations` anchor set). [`kmb`] itself runs through a
/// bank of its own terminals.
///
/// Every tree is computed by `dijkstra_with_targets` against the bank's
/// full `targets` superset. Dijkstra settles nodes in a deterministic
/// `(distance, node id)` order that does not depend on the target set, so
/// distances *and* predecessor chains to any node of `targets` are
/// bit-identical to what a per-call Dijkstra over a terminal subset would
/// produce — which is what makes [`kmb_with_bank`] byte-identical to
/// [`kmb`].
#[derive(Debug, Clone)]
pub struct TerminalSptBank {
    targets: Vec<NodeId>,
    entries: Vec<(NodeId, ShortestPathTree)>,
}

impl TerminalSptBank {
    /// Creates an empty bank whose trees will be valid for any terminal
    /// drawn from `targets`.
    #[must_use]
    pub fn new(targets: Vec<NodeId>) -> Self {
        TerminalSptBank {
            targets,
            entries: Vec::new(),
        }
    }

    /// The target superset every banked tree covers.
    #[must_use]
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Number of shortest-path trees computed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no tree has been computed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index of the tree rooted at `t`, computing it on first use. The
    /// linear probe is fine: banks hold tens of entries, not thousands.
    fn spt_index(&mut self, g: &Graph, t: NodeId) -> usize {
        if let Some(pos) = self.entries.iter().position(|(root, _)| *root == t) {
            return pos;
        }
        self.entries
            .push((t, dijkstra_with_targets(g, t, &self.targets)));
        self.entries.len() - 1
    }
}

/// [`kmb`] with the step-1 shortest-path trees drawn from (and cached in)
/// `bank` instead of recomputed per call. Byte-identical to [`kmb`] for
/// every terminal set drawn from `bank.targets()` — see
/// [`TerminalSptBank`] for why.
///
/// # Panics
///
/// Panics if some terminal is not in `bank.targets()`: a banked tree may
/// have stopped early before settling it, so serving the call would risk
/// a silently wrong answer instead.
#[must_use]
pub fn kmb_with_bank(
    g: &Graph,
    terminals: &[NodeId],
    bank: &mut TerminalSptBank,
) -> Option<SteinerTree> {
    let uniq = dedup_terminals(g, terminals)?;
    for &t in &uniq {
        assert!(
            bank.targets.contains(&t),
            "terminal {t} is outside the bank's target set"
        );
    }
    kmb_core(g, uniq, bank)
}

/// Deduplicates terminals preserving caller order; `None` when empty or
/// when some terminal is not a node of `g`.
fn dedup_terminals(g: &Graph, terminals: &[NodeId]) -> Option<Vec<NodeId>> {
    // Dense node ids make a bool vector the cheapest dedup set — no
    // hashing, and iteration order stays the caller's terminal order.
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
    Some(uniq)
}

/// Steps 1–5 of KMB over the deduplicated terminals `uniq`, every one of
/// which must lie in `bank.targets()`.
///
/// Only `uniq[..t−1]` get a shortest-path tree: closure pair `(i, j)`,
/// `i < j`, reads its distance and its expansion from `uniq[i]`'s tree,
/// so the last terminal's tree is never consulted and never built.
fn kmb_core(g: &Graph, uniq: Vec<NodeId>, bank: &mut TerminalSptBank) -> Option<SteinerTree> {
    let t = uniq.len();
    if t == 1 {
        return Some(SteinerTree::from_parts(uniq, Vec::new(), 0.0));
    }
    // Step 1: one shortest-path tree per terminal but the last, drawn
    // from the bank.
    let indices: Vec<usize> = uniq[..t - 1]
        .iter()
        .map(|&x| bank.spt_index(g, x))
        .collect();
    let spts: Vec<&ShortestPathTree> = indices
        .iter()
        .map(|&i| {
            let (_, spt) = bank.entries.get(i).expect("index from spt_index"); // lint:allow(P1): spt_index returns in-bounds positions
            spt
        })
        .collect();

    // Metric closure as a flat list of terminal-index pairs `(i, j)`,
    // `i < j`, in lexicographic order: step 2 breaks distance ties by it.
    let mut pairs: Vec<(usize, usize, f64)> = Vec::with_capacity(t * (t - 1) / 2);
    for (i, spt) in spts.iter().enumerate() {
        for j in (i + 1)..t {
            let d = spt.distance(uniq[j])?; // None => disconnected
            pairs.push((i, j, d));
        }
    }

    // Step 2: MST of the closure (Kruskal with a stable sort).
    pairs.sort_by_key(|&(_, _, d)| TotalCost::new(d));
    let mut uf = UnionFind::new(t);
    pairs.retain(|&(i, j, _)| uf.union(i, j));
    if pairs.len() + 1 != t {
        return None; // not spanning: unreachable once every distance is finite
    }

    // Step 3: expand closure edges into their shortest paths in `g`,
    // walking predecessors (step 4 sorts the edges, so order is moot).
    let mut path_edges: Vec<EdgeId> = Vec::new();
    for &(i, j, _) in &pairs {
        let mut cur = uniq[j];
        while let Some((prev, edge)) = spts[i].predecessor(cur) {
            path_edges.push(edge);
            cur = prev;
        }
    }

    // Step 4: MST of the expanded subgraph, over the collected edges only.
    let tree_edges = kruskal_over(g, path_edges);

    // Step 5: prune non-terminal leaves.
    let (kept, cost) = prune_non_terminal_leaves(g, &tree_edges, &uniq);

    let tree = SteinerTree::from_parts(uniq, kept, cost);
    debug_assert!(tree.validate(g).is_ok(), "KMB produced an invalid tree");
    Some(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{EdgeId, Graph};

    /// The canonical KMB paper example shape: optimal Steiner tree uses a
    /// central Steiner node.
    fn steiner_star() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let hub = g.add_node(); // 0
        let t: Vec<NodeId> = (0..3).map(|_| g.add_node()).collect(); // 1..3
        for &x in &t {
            g.add_edge(hub, x, 1.0).unwrap();
        }
        // Expensive direct edges between terminals.
        g.add_edge(t[0], t[1], 1.9).unwrap();
        g.add_edge(t[1], t[2], 1.9).unwrap();
        let mut nodes = vec![hub];
        nodes.extend(&t);
        (g, nodes)
    }

    #[test]
    fn finds_star_through_steiner_node() {
        let (g, v) = steiner_star();
        let tree = kmb(&g, &[v[1], v[2], v[3]]).unwrap();
        tree.validate(&g).unwrap();
        // Optimal is the 3-star of cost 3.0; KMB may return 3.0 or the
        // 3.8 chain, but for this construction the expansion step recovers
        // the star: metric closure distances are 1.9/2.0, MST picks the two
        // 1.9 edges, expansion keeps them, final MST compares 1.9 vs 1+1.
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
        let tree = kmb(&g, &[v[0], v[3]]).unwrap();
        assert_eq!(tree.cost(), 3.0);
        assert_eq!(tree.edges().len(), 3);
    }

    #[test]
    fn single_terminal_trivial() {
        let mut g = Graph::new();
        let a = g.add_node();
        let tree = kmb(&g, &[a]).unwrap();
        assert_eq!(tree.cost(), 0.0);
        assert!(tree.edges().is_empty());
    }

    #[test]
    fn duplicate_terminals_deduplicated() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, 2.0).unwrap();
        let tree = kmb(&g, &[a, b, a, b]).unwrap();
        assert_eq!(tree.terminals(), &[a, b]);
        assert_eq!(tree.cost(), 2.0);
    }

    #[test]
    fn disconnected_terminals_give_none() {
        let mut g = Graph::new();
        let a = g.add_node();
        let _b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, _b, 1.0).unwrap();
        assert!(kmb(&g, &[a, c]).is_none());
    }

    #[test]
    fn empty_terminals_give_none() {
        let g = Graph::new();
        assert!(kmb(&g, &[]).is_none());
    }

    #[test]
    fn unknown_terminal_gives_none() {
        let mut g = Graph::new();
        let a = g.add_node();
        assert!(kmb(&g, &[a, NodeId::new(5)]).is_none());
    }

    #[test]
    fn all_nodes_as_terminals_gives_mst() {
        // When every node is a terminal, the Steiner tree is an MST.
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        let mut es: Vec<EdgeId> = Vec::new();
        for i in 0..5 {
            for j in (i + 1)..5 {
                es.push(
                    g.add_edge(v[i], v[j], ((i * 7 + j * 3) % 11 + 1) as f64)
                        .unwrap(),
                );
            }
        }
        let tree = kmb(&g, &v).unwrap();
        let mst = netgraph::kruskal(&g);
        assert!((tree.cost() - mst.total_weight).abs() < 1e-9);
    }

    #[test]
    fn bank_is_byte_identical_to_fresh_kmb() {
        // A lumpy deterministic graph with plenty of equal-length path
        // candidates, scanned the way Online_CP does: fixed anchors, a
        // varying extra terminal per call.
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..24).map(|_| g.add_node()).collect();
        for i in 0..24 {
            g.add_edge(v[i], v[(i + 1) % 24], 1.0 + (i % 5) as f64 * 0.3)
                .unwrap();
        }
        for i in (0..24).step_by(3) {
            g.add_edge(v[i], v[(i + 9) % 24], 2.0 + (i % 4) as f64 * 0.2)
                .unwrap();
        }
        let anchors = [v[0], v[7], v[13]];
        let extras: Vec<NodeId> = (0..24).step_by(2).map(|i| v[i]).collect();
        let mut targets = anchors.to_vec();
        targets.extend(&extras);
        let mut bank = TerminalSptBank::new(targets);
        for &x in &extras {
            let mut terminals = anchors.to_vec();
            terminals.push(x);
            let fresh = kmb(&g, &terminals).expect("connected");
            let banked = kmb_with_bank(&g, &terminals, &mut bank).expect("connected");
            assert_eq!(fresh.terminals(), banked.terminals());
            assert_eq!(fresh.edges(), banked.edges());
            assert!((fresh.cost() - banked.cost()).abs() == 0.0, "cost drifted");
        }
        // The anchors' trees were computed once, not once per call, and
        // the extra terminal comes last, so its own tree is never built.
        assert_eq!(bank.len(), anchors.len());
    }

    #[test]
    fn t_distinct_terminals_run_t_minus_one_dijkstras() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..8).map(|_| g.add_node()).collect();
        for i in 0..8 {
            g.add_edge(v[i], v[(i + 1) % 8], 1.0 + i as f64 * 0.1)
                .unwrap();
        }
        for t in 2..=8 {
            let terminals = &v[..t];
            let mut bank = TerminalSptBank::new(terminals.to_vec());
            let banked = kmb_with_bank(&g, terminals, &mut bank).expect("connected");
            assert_eq!(bank.len(), t - 1, "t = {t}");
            assert_eq!(kmb(&g, terminals), Some(banked));
        }
    }

    #[test]
    #[should_panic(expected = "outside the bank's target set")]
    fn bank_rejects_uncovered_terminals() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, 1.0).unwrap();
        let mut bank = TerminalSptBank::new(vec![a]);
        let _ = kmb_with_bank(&g, &[a, b], &mut bank);
    }

    #[test]
    fn tree_spans_exactly_terminals_after_prune() {
        let (g, v) = steiner_star();
        let tree = kmb(&g, &[v[1], v[2]]).unwrap();
        tree.validate(&g).unwrap();
        // Two terminals joined by their 1.9 edge (shorter than 2.0 via hub).
        assert_eq!(tree.cost(), 1.9);
    }
}
