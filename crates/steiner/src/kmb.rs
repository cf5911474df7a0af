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
//!
//! Steps 2–3 run in two parts. The terminals before the last one are
//! the *anchors*: their closure MST and its expanded paths are built once
//! and kept in the [`TerminalSptBank`], where a candidate scan over many
//! last terminals with the same anchors shares them. The last terminal
//! then only merges its star row into that MST.

#![allow(clippy::needless_range_loop)] // paired-index loops over parallel arrays

use crate::prune::{prune_into, PruneScratch};
use crate::SteinerTree;
use netgraph::{
    dijkstra_with_targets, dijkstra_with_targets_into, kruskal_over_in_place, EdgeId, Graph,
    NodeId, RootedTree, RootingScratch, ShortestPathTree, TotalCost, UnionFind,
};

/// Computes an approximate minimum Steiner tree spanning `terminals`.
///
/// Returns `None` if the terminals are not all in one connected component
/// (no Steiner tree exists), or if `terminals` is empty.
///
/// Duplicate terminals are tolerated. A single (deduplicated) terminal
/// yields the trivial zero-cost tree.
///
/// Runs through a fresh [`TerminalSptBank`] of its own terminals, one
/// code path shared with [`kmb_with_bank`]: one Dijkstra per terminal but
/// the last, whose tree the construction never reads, and the closure MST
/// built as the MST of the other terminals plus the last one's star.
///
/// Complexity: `O(t·(m + n) log n + m log m)` with `t` terminals.
#[must_use]
pub fn kmb(g: &Graph, terminals: &[NodeId]) -> Option<SteinerTree> {
    let mut bank = TerminalSptBank::default();
    let (uniq, anchors) = dedup_terminals(g, terminals, &mut bank.kmb.seen)?;
    bank.reset(uniq.iter().copied());
    kmb_core(g, uniq, anchors, &mut bank)
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
///
/// The bank also holds the scan's shared closure work. A call's
/// terminals are its *anchors* (the distinct terminals before the last)
/// and a *candidate* (the last). The closure MST of the anchors and the
/// expanded shortest path of each of its edges (KMB steps 2–3) are built
/// on the first call and reused by every later call with the same
/// anchors; each call then merges only the candidate's star row into that
/// MST. [`TerminalSptBank::reset`] drops the MST with the trees.
///
/// The bank is KMB's working memory too: the closure, both union–finds,
/// the expanded path edges and the pruning arrays live here, and
/// [`TerminalSptBank::reset`] keeps every array for the next scan. A bank
/// reset scan after scan on one graph allocates only the trees it returns
/// once it has grown to size.
#[derive(Debug, Clone, Default)]
pub struct TerminalSptBank {
    targets: Vec<NodeId>,
    /// Trees by root: the first `live` belong to the current scan, the
    /// rest are recycled arrays waiting to be refilled.
    entries: Vec<(NodeId, ShortestPathTree)>,
    live: usize,
    kmb: KmbScratch,
}

/// The working memory of one KMB construction.
#[derive(Debug, Clone, Default)]
struct KmbScratch {
    /// Dedup set over node ids.
    seen: Vec<bool>,
    /// Bank entry per terminal but the last.
    spts: Vec<usize>,
    /// The anchors' closure MST, shared by the calls of a scan.
    anchor_mst: AnchorMst,
    /// The candidate's star row of the closure (step 2).
    star: Vec<ClosureEdge>,
    /// Union–find over the terminals (step 2).
    closure_uf: UnionFind,
    /// The expanded closure paths, then their MST (steps 3–4).
    path_edges: Vec<EdgeId>,
    /// Union–find over the graph's nodes (step 4).
    graph_uf: UnionFind,
    prune: PruneScratch,
    /// The debug self-check's rooted tree and BFS buffers.
    check: (RootedTree, RootingScratch),
}

/// A metric-closure edge `(i, j, distance)` between terminal indices
/// `i < j`. Step 2 orders them by the strict total order `(distance, i, j)`.
type ClosureEdge = (usize, usize, f64);

fn closure_key(&(i, j, d): &ClosureEdge) -> (TotalCost, usize, usize) {
    (TotalCost::new(d), i, j)
}

/// KMB steps 2–3 over a scan's anchor terminals: the closure MST and each
/// MST edge's expanded shortest path.
#[derive(Debug, Clone, Default)]
struct AnchorMst {
    /// Whether the fields below belong to the current scan;
    /// [`TerminalSptBank::reset`] clears it.
    valid: bool,
    /// The anchors it spans, deduplicated, in caller order.
    anchors: Vec<NodeId>,
    /// Whether every anchor reaches every other; `edges` and `paths` are
    /// meaningful only then.
    connected: bool,
    /// The closure MST, sorted by `(distance, i, j)`.
    edges: Vec<ClosureEdge>,
    /// The expanded paths of `edges`, concatenated: edge `k`'s path is
    /// `paths[ends[k]..ends[k + 1]]`.
    paths: Vec<EdgeId>,
    ends: Vec<usize>,
    /// How many times the MST has been built (read by the unit tests).
    builds: usize,
}

impl AnchorMst {
    /// Builds the MST of `anchors`' metric closure and expands its edges.
    /// `spt(i)` is anchor `i`'s shortest-path tree for every `i` below
    /// the last: pair `(i, j)`, `i < j`, reads `i`'s tree only.
    fn build<'t>(
        &mut self,
        g: &Graph,
        anchors: &[NodeId],
        spt: impl Fn(usize) -> Option<&'t ShortestPathTree>,
        uf: &mut UnionFind,
    ) {
        self.valid = true;
        self.builds += 1;
        self.anchors.clear();
        self.anchors.extend_from_slice(anchors);
        self.paths.clear();
        self.ends.clear();
        self.ends.push(0);
        self.connected = self.closure_mst(g, spt, uf).is_some();
    }

    /// [`AnchorMst::build`]'s work; `None` once some anchor pair is
    /// disconnected.
    fn closure_mst<'t>(
        &mut self,
        g: &Graph,
        spt: impl Fn(usize) -> Option<&'t ShortestPathTree>,
        uf: &mut UnionFind,
    ) -> Option<()> {
        let a = self.anchors.len();
        // Every closure pair, generated in lexicographic order, then
        // Kruskal by `(distance, i, j)`.
        self.edges.clear();
        for i in 0..a.saturating_sub(1) {
            let from = spt(i)?;
            for (j, &x) in self.anchors.iter().enumerate().skip(i + 1) {
                self.edges.push((i, j, from.distance(x)?)); // None => disconnected
            }
        }
        self.edges.sort_unstable_by_key(closure_key);
        uf.reset(a);
        self.edges.retain(|&(i, j, _)| uf.union(i, j));
        // Step 3 for the anchors: walk each MST edge's predecessors once.
        for &(i, j, _) in &self.edges {
            let (from, cur) = (spt(i)?, *self.anchors.get(j)?);
            push_path(g, from, cur, &mut self.paths);
            self.ends.push(self.paths.len());
        }
        Some(())
    }

    /// The expanded shortest path of MST edge `k`.
    fn path(&self, k: usize) -> Option<&[EdgeId]> {
        self.paths.get(*self.ends.get(k)?..*self.ends.get(k + 1)?)
    }
}

/// Appends the edges of `from`'s tree path to `to`, walking predecessors
/// over `g` (step 4 sorts the edges, so their order is moot).
fn push_path(g: &Graph, from: &ShortestPathTree, mut to: NodeId, out: &mut Vec<EdgeId>) {
    while let Some((prev, edge)) = from.predecessor(g, to) {
        out.push(edge);
        to = prev;
    }
}

impl TerminalSptBank {
    /// Creates an empty bank whose trees will be valid for any terminal
    /// drawn from `targets`.
    #[must_use]
    pub fn new(targets: Vec<NodeId>) -> Self {
        TerminalSptBank {
            targets,
            ..TerminalSptBank::default()
        }
    }

    /// Empties the bank for a new scan over `targets`, keeping every
    /// allocation: the trees computed next refill the old trees' arrays,
    /// and the anchors' closure MST is rebuilt on the next call.
    /// Equivalent to [`TerminalSptBank::new`]`(targets)`.
    pub fn reset(&mut self, targets: impl IntoIterator<Item = NodeId>) {
        self.targets.clear();
        self.targets.extend(targets);
        self.live = 0;
        self.kmb.anchor_mst.valid = false;
    }

    /// The target superset every banked tree covers.
    #[must_use]
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Number of shortest-path trees computed since the bank was created
    /// or last reset.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no tree has been computed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Index of the tree rooted at `t`, computing it on first use into a
    /// recycled tree if there is one. The linear probe is fine: banks
    /// hold tens of entries, not thousands.
    fn spt_index(&mut self, g: &Graph, t: NodeId) -> usize {
        let live = self.live;
        if let Some(pos) = self
            .entries
            .iter()
            .take(live)
            .position(|(root, _)| *root == t)
        {
            return pos;
        }
        match self.entries.get_mut(live) {
            Some((root, spt)) => {
                *root = t;
                dijkstra_with_targets_into(g, t, &self.targets, spt);
            }
            None => self
                .entries
                .push((t, dijkstra_with_targets(g, t, &self.targets))),
        }
        self.live += 1;
        live
    }
}

/// [`kmb`] with the step-1 shortest-path trees drawn from (and cached in)
/// `bank` instead of recomputed per call, and the closure MST of the
/// terminals before the last shared by every call with the same ones.
/// Byte-identical to [`kmb`] for every terminal set drawn from
/// `bank.targets()` — see [`TerminalSptBank`] for why.
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
    let (uniq, anchors) = dedup_terminals(g, terminals, &mut bank.kmb.seen)?;
    for &t in &uniq {
        assert!(
            bank.targets.contains(&t),
            "terminal {t} is outside the bank's target set"
        );
    }
    kmb_core(g, uniq, anchors, bank)
}

/// Deduplicates terminals preserving caller order; `None` when empty or
/// when some terminal is not a node of `g`. Also returns the number of
/// anchors: the distinct terminals before the last one, which lead the
/// list. The last terminal ends it unless it is an anchor already. `seen`
/// is working memory.
fn dedup_terminals(
    g: &Graph,
    terminals: &[NodeId],
    seen: &mut Vec<bool>,
) -> Option<(Vec<NodeId>, usize)> {
    // Dense node ids make a bool vector the cheapest dedup set — no
    // hashing, and iteration order stays the caller's terminal order.
    seen.clear();
    seen.resize(g.node_count(), false);
    let (&candidate, rest) = terminals.split_last()?;
    let mut uniq: Vec<NodeId> = Vec::with_capacity(terminals.len());
    for &t in rest {
        let slot = seen.get_mut(t.index())?;
        if !*slot {
            *slot = true;
            uniq.push(t);
        }
    }
    let anchors = uniq.len();
    if !*seen.get(candidate.index())? {
        uniq.push(candidate);
    }
    Some((uniq, anchors))
}

/// Steps 1–5 of KMB over the deduplicated terminals `uniq`, every one of
/// which must lie in `bank.targets()`; `uniq[..anchors]` are the anchors.
///
/// Only `uniq[..t−1]` get a shortest-path tree: closure pair `(i, j)`,
/// `i < j`, reads its distance and its expansion from `uniq[i]`'s tree,
/// so the last terminal's tree is never consulted and never built.
///
/// Step 2 is exact: under the strict total order `(distance, i, j)` the
/// closure MST is unique, and by the cycle property the MST of the
/// anchors plus a candidate is the MST of the anchors' MST plus the
/// candidate's star (DESIGN.md §2). A candidate that is an anchor already
/// leaves the anchors' MST as it is.
fn kmb_core(
    g: &Graph,
    uniq: Vec<NodeId>,
    anchors: usize,
    bank: &mut TerminalSptBank,
) -> Option<SteinerTree> {
    let t = uniq.len();
    if t == 1 {
        return Some(SteinerTree::from_parts(uniq, Vec::new(), 0.0));
    }
    // Step 1: one shortest-path tree per terminal but the last, drawn
    // from the bank.
    bank.kmb.spts.clear();
    for &x in uniq.iter().take(t - 1) {
        let i = bank.spt_index(g, x);
        bank.kmb.spts.push(i);
    }
    let TerminalSptBank {
        entries,
        kmb:
            KmbScratch {
                spts,
                anchor_mst,
                star,
                closure_uf,
                path_edges,
                graph_uf,
                prune,
                check,
                ..
            },
        ..
    } = bank;
    let spt = |i: usize| spts.get(i).and_then(|&e| entries.get(e)).map(|(_, s)| s);

    // Steps 2–3 for the anchors, once per scan.
    let anchor_set = uniq.get(..anchors)?;
    if !(anchor_mst.valid && anchor_mst.anchors == anchor_set) {
        anchor_mst.build(g, anchor_set, spt, closure_uf);
    }
    if !anchor_mst.connected {
        return None;
    }
    path_edges.clear();
    if anchors == t {
        // The candidate is an anchor: the closure MST is the anchors' own.
        path_edges.extend_from_slice(&anchor_mst.paths);
    } else {
        // Step 2: the candidate's star row `(i, anchors, dist_i(v))`, then
        // Kruskal over its merge with the anchors' MST by `(distance, i, j)`.
        let v = *uniq.last()?;
        star.clear();
        for i in 0..anchors {
            star.push((i, anchors, spt(i)?.distance(v)?)); // None => unreachable
        }
        star.sort_unstable_by_key(closure_key);
        closure_uf.reset(t);
        let mut anchor_edges = anchor_mst.edges.iter().enumerate().peekable();
        let mut star_edges = star.iter().peekable();
        loop {
            let take_anchor_edge = match (anchor_edges.peek(), star_edges.peek()) {
                (Some((_, e)), Some(x)) => closure_key(e) < closure_key(x),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_anchor_edge {
                let (k, &(i, j, _)) = anchor_edges.next()?;
                if closure_uf.union(i, j) {
                    // Step 3: a kept anchor edge's path is cached.
                    path_edges.extend_from_slice(anchor_mst.path(k)?);
                }
            } else {
                let &(i, j, _) = star_edges.next()?;
                if closure_uf.union(i, j) {
                    push_path(g, spt(i)?, v, path_edges);
                }
            }
        }
    }

    // Step 4: MST of the expanded subgraph, over the collected edges only.
    kruskal_over_in_place(g, path_edges, graph_uf);

    // Step 5: prune non-terminal leaves.
    let mut kept = Vec::with_capacity(path_edges.len());
    let cost = prune_into(g, path_edges, &uniq, prune, &mut kept);

    let tree = SteinerTree::from_parts(uniq, kept, cost);
    debug_assert!(
        tree.validate_in(g, &mut check.0, &mut check.1).is_ok(),
        "KMB produced an invalid tree"
    );
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
    fn a_scan_builds_the_anchor_mst_once() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..12).map(|_| g.add_node()).collect();
        for i in 0..12 {
            g.add_edge(v[i], v[(i + 1) % 12], 1.0 + (i % 3) as f64)
                .unwrap();
        }
        g.add_edge(v[0], v[6], 2.0).unwrap();
        let anchors = [v[0], v[5], v[8], v[5]];
        // An anchor comes first, and another one later.
        let mut candidates = vec![v[5]];
        candidates.extend(&v);
        let mut targets = anchors.to_vec();
        targets.extend(&candidates);
        let mut bank = TerminalSptBank::new(targets.clone());
        for round in 1..=2 {
            for &x in &candidates {
                let mut terminals = anchors.to_vec();
                terminals.push(x);
                let banked = kmb_with_bank(&g, &terminals, &mut bank);
                assert_eq!(banked, kmb(&g, &terminals), "candidate {x}");
            }
            assert_eq!(bank.kmb.anchor_mst.builds, round);
            bank.reset(targets.iter().copied());
        }
    }

    #[test]
    fn disconnected_anchors_or_candidate_give_none() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        g.add_edge(v[0], v[1], 1.0).unwrap();
        g.add_edge(v[1], v[2], 1.0).unwrap();
        g.add_edge(v[3], v[4], 1.0).unwrap();
        let mut bank = TerminalSptBank::new(v.clone());
        // Connected anchors: only the candidate in the other component fails.
        assert!(kmb_with_bank(&g, &[v[0], v[2], v[3]], &mut bank).is_none());
        assert!(kmb_with_bank(&g, &[v[0], v[2], v[1]], &mut bank).is_some());
        assert!(kmb_with_bank(&g, &[v[0], v[2], v[0]], &mut bank).is_some());
        assert_eq!(bank.kmb.anchor_mst.builds, 1);
        // Disconnected anchors: every candidate fails, anchors included.
        bank.reset(v.iter().copied());
        for &x in &v {
            assert!(kmb_with_bank(&g, &[v[0], v[3], x], &mut bank).is_none());
        }
        assert_eq!(bank.kmb.anchor_mst.builds, 2);
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
