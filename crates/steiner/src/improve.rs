//! Key-path local search: polishes a Steiner tree after construction.
//!
//! A *key node* of a Steiner tree is a terminal or a branch node
//! (degree ≥ 3); a *key path* is a maximal tree path whose interior nodes
//! are non-key Steiner nodes. Removing a key path splits the tree in two;
//! if a cheaper path reconnects the two sides, swapping it in yields a
//! strictly better tree. Iterating to a fixed point is the classic
//! post-optimization for KMB/SPH trees — used here as an optional
//! refinement and exercised by the ablation benches.

use crate::SteinerTree;
use netgraph::{EdgeId, Graph, NodeId, TotalCost};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Iteratively improves `tree` by key-path replacement until no swap
/// helps (or `max_rounds` passes ran). The result spans the same
/// terminals with cost ≤ the input's.
///
/// Returns the input unchanged when it has fewer than two terminals.
#[must_use]
pub fn improve(g: &Graph, tree: &SteinerTree, max_rounds: usize) -> SteinerTree {
    let terminals = tree.terminals().to_vec();
    if terminals.len() < 2 {
        return tree.clone();
    }
    let mut edges: Vec<EdgeId> = tree.edges().to_vec();
    let mut cost = tree.cost();

    for _ in 0..max_rounds {
        match improve_once(g, &edges, &terminals, cost) {
            Some((better_edges, better_cost)) => {
                debug_assert!(better_cost < cost);
                edges = better_edges;
                cost = better_cost;
            }
            None => break,
        }
    }

    let improved = SteinerTree::from_parts(terminals, edges, cost);
    debug_assert!(improved.validate(g).is_ok(), "local search broke the tree");
    improved
}

/// Tries every key path once; returns the first improving swap.
fn improve_once(
    g: &Graph,
    edges: &[EdgeId],
    terminals: &[NodeId],
    current_cost: f64,
) -> Option<(Vec<EdgeId>, f64)> {
    // Tree adjacency and degrees. Deterministic container: iteration
    // order below decides which improving swap is applied first.
    let mut adj: BTreeMap<NodeId, Vec<(NodeId, EdgeId)>> = BTreeMap::new();
    for &e in edges {
        let er = g.edge(e);
        adj.entry(er.u).or_default().push((er.v, e));
        adj.entry(er.v).or_default().push((er.u, e));
    }
    let terminal_set: BTreeSet<NodeId> = terminals.iter().copied().collect();
    let is_key = |n: NodeId, adj: &BTreeMap<NodeId, Vec<(NodeId, EdgeId)>>| {
        terminal_set.contains(&n) || adj.get(&n).map_or(0, Vec::len) >= 3
    };

    // Enumerate key paths: walk from each key node along each incident
    // edge through degree-2 non-key interiors until the next key node.
    let mut seen_paths: BTreeSet<(NodeId, NodeId, EdgeId)> = BTreeSet::new();
    for (&start, nbs) in &adj {
        if !is_key(start, &adj) {
            continue;
        }
        for &(mut cur, mut via) in nbs {
            let first_edge = via;
            let mut prev = start;
            let mut path_edges = vec![via];
            while !is_key(cur, &adj) {
                let next = adj[&cur]
                    .iter()
                    .find(|&&(n, _)| n != prev)
                    .copied()
                    .expect("degree-2 interior has another side"); // lint:allow(P1): a degree-2 interior node has exactly two incident edges
                prev = cur;
                cur = next.0;
                via = next.1;
                path_edges.push(via);
            }
            let end = cur;
            // Deduplicate the two directions of the same key path.
            let signature = if start <= end {
                (start, end, first_edge)
            } else {
                (end, start, *path_edges.last().expect("non-empty")) // lint:allow(P1): paths between distinct endpoints have at least one edge
            };
            if !seen_paths.insert(signature) {
                continue;
            }
            if let Some(swap) = try_replace(g, edges, &path_edges, current_cost) {
                return Some(swap);
            }
        }
    }
    None
}

/// Removes `path_edges` from the tree and searches for the cheapest
/// reconnecting path that avoids the removed interior; returns the new
/// edge set if it beats the old path.
fn try_replace(
    g: &Graph,
    edges: &[EdgeId],
    path_edges: &[EdgeId],
    current_cost: f64,
) -> Option<(Vec<EdgeId>, f64)> {
    let removed: BTreeSet<EdgeId> = path_edges.iter().copied().collect();
    let old_cost: f64 = path_edges.iter().map(|&e| g.edge(e).weight).sum();
    let kept: Vec<EdgeId> = edges
        .iter()
        .copied()
        .filter(|e| !removed.contains(e))
        .collect();

    // Two components of the remaining forest (by node).
    // Deterministic containers: `comp` seeds the reconnection Dijkstra in
    // iteration order, which breaks equal-cost ties.
    let mut comp: BTreeMap<NodeId, u8> = BTreeMap::new();
    let mut forest_adj: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for &e in &kept {
        let er = g.edge(e);
        forest_adj.entry(er.u).or_default().push(er.v);
        forest_adj.entry(er.v).or_default().push(er.u);
    }
    // Seed the two sides with the removed path's endpoints.
    let (first, last) = path_endpoints(g, path_edges)?;
    for (seed, label) in [(first, 0u8), (last, 1u8)] {
        let mut stack = vec![seed];
        while let Some(u) = stack.pop() {
            if comp.insert(u, label).is_some() {
                continue;
            }
            for &v in forest_adj.get(&u).into_iter().flatten() {
                if !comp.contains_key(&v) {
                    stack.push(v);
                }
            }
        }
    }

    // Multi-source Dijkstra from side 0 to the first settled side-1 node,
    // avoiding the removed edges (a simple swap must not reuse them).
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(TotalCost, NodeId)>> = BinaryHeap::new();
    for (&node, &label) in &comp {
        if label == 0 {
            dist[node.index()] = 0.0;
            heap.push(Reverse((TotalCost::new(0.0), node)));
        }
    }
    let mut meet: Option<NodeId> = None;
    while let Some(Reverse((d, u))) = heap.pop() {
        let ui = u.index();
        if settled[ui] {
            continue;
        }
        settled[ui] = true;
        if comp.get(&u) == Some(&1) {
            meet = Some(u);
            break;
        }
        for nb in g.neighbors(u) {
            if removed.contains(&nb.edge) {
                continue;
            }
            let cand = d.get() + g.edge(nb.edge).weight;
            if cand < dist[nb.node.index()] {
                dist[nb.node.index()] = cand;
                pred[nb.node.index()] = Some((u, nb.edge));
                heap.push(Reverse((TotalCost::new(cand), nb.node)));
            }
        }
    }
    let meet = meet?;
    let new_cost = dist[meet.index()];
    if new_cost + 1e-9 >= old_cost {
        return None;
    }

    // Collect the replacement path and rebuild the tree; prune dangling
    // non-terminal stubs the removed interior may have left behind.
    let mut new_edges = kept;
    let mut cur = meet;
    while let Some((p, e)) = pred[cur.index()] {
        new_edges.push(e);
        cur = p;
    }
    // Replacement may touch nodes already in the tree, creating a cycle;
    // fall back to an MST of the union to restore tree-ness cheaply.
    let tree_edges = netgraph::kruskal_over(g, new_edges);
    let terminals: Vec<NodeId> = Vec::new();
    let _ = terminals;
    let cost: f64 = tree_edges.iter().map(|&e| g.edge(e).weight).sum();
    if cost + 1e-9 >= current_cost {
        return None;
    }
    Some((tree_edges, cost))
}

/// Endpoints of a path given as an edge sequence (first/last nodes).
fn path_endpoints(g: &Graph, path_edges: &[EdgeId]) -> Option<(NodeId, NodeId)> {
    match path_edges {
        [] => None,
        [only] => {
            let er = g.edge(*only);
            Some((er.u, er.v))
        }
        [first, .., last] => {
            let f = g.edge(*first);
            let s = g.edge(path_edges[1]);
            let start = if f.u == s.u || f.u == s.v { f.v } else { f.u };
            let l = g.edge(*last);
            let sl = g.edge(path_edges[path_edges.len() - 2]);
            let end = if l.u == sl.u || l.u == sl.v { l.v } else { l.u };
            Some((start, end))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmb;

    /// A square where KMB may pick the long way round.
    #[test]
    fn improves_a_deliberately_bad_tree() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let long1 = g.add_edge(a, c, 5.0).unwrap();
        let long2 = g.add_edge(c, b, 5.0).unwrap();
        let _short = g.add_edge(a, b, 1.0).unwrap();
        let bad = SteinerTree::from_parts(vec![a, b], vec![long1, long2], 10.0);
        bad.validate(&g).unwrap();
        let better = improve(&g, &bad, 8);
        better.validate(&g).unwrap();
        assert_eq!(better.cost(), 1.0);
    }

    #[test]
    fn never_worsens_kmb_trees() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 20;
            let mut g = Graph::with_nodes(n);
            for i in 0..n {
                g.add_edge(
                    NodeId::new(i),
                    NodeId::new((i + 1) % n),
                    rng.gen_range(1.0..10.0),
                )
                .unwrap();
            }
            for _ in 0..15 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v), rng.gen_range(1.0..10.0))
                        .unwrap();
                }
            }
            let terms: Vec<NodeId> = (0..5).map(|i| NodeId::new(i * 4)).collect();
            let base = kmb(&g, &terms).unwrap();
            let polished = improve(&g, &base, 10);
            polished.validate(&g).unwrap();
            assert!(
                polished.cost() <= base.cost() + 1e-9,
                "seed {seed}: {} > {}",
                polished.cost(),
                base.cost()
            );
        }
    }

    #[test]
    fn fixed_point_is_stable() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let e = g.add_edge(a, b, 1.0).unwrap();
        let t = SteinerTree::from_parts(vec![a, b], vec![e], 1.0);
        let improved = improve(&g, &t, 5);
        assert_eq!(improved.cost(), 1.0);
        assert_eq!(improved.edges(), t.edges());
    }

    #[test]
    fn single_terminal_passthrough() {
        let mut g = Graph::new();
        let a = g.add_node();
        let t = SteinerTree::from_parts(vec![a], vec![], 0.0);
        assert_eq!(improve(&g, &t, 3), t);
    }
}
