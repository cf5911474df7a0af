//! The shared-bank KMB and the subset Kruskal are byte-identical to the
//! constructions they replace, and KMB's tree does not depend on the
//! order of its terminals once weights are tie-free.
//!
//! The bank builds the anchors' closure MST once per scan and merges each
//! candidate's star row into it; the reference below sorts the whole
//! closure per call, so every comparison against it checks that merge.
//!
//! Weights are small integers, so nearly every shortest path and every
//! MST step has ties: exactly the inputs where a changed tie-break would
//! show. Trees are compared edge for edge, terminal for terminal, and
//! cost bit for bit. The terminal-order property instead draws distinct
//! integer weights and skips the rare input where two shortest paths or
//! two closure distances still tie; integer sums are exact in either
//! direction.

use netgraph::{
    dijkstra, dijkstra_with_targets, induced_subgraph, kruskal, kruskal_over, EdgeId, Graph,
    NodeId, ShortestPathTree,
};
use proptest::prelude::*;
use steiner::{kmb, kmb_with_bank, prune_non_terminal_leaves, SteinerTree, TerminalSptBank};

/// A graph on `n` nodes with integer weights in 1..=3, parallel edges
/// allowed, connected through a spanning path unless `connect` is false.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=16).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 1u32..=3), 0..40);
        let chain = proptest::collection::vec(1u32..=3, n - 1);
        (edges, chain, any::<bool>()).prop_map(move |(edges, chain, connect)| {
            let mut g = Graph::with_nodes(n);
            if connect {
                for (i, w) in chain.into_iter().enumerate() {
                    g.add_edge(NodeId::new(i), NodeId::new(i + 1), f64::from(w))
                        .unwrap();
                }
            }
            for (u, v, w) in edges {
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v), f64::from(w))
                        .unwrap();
                }
            }
            g
        })
    })
}

/// A connected graph on `n` nodes with distinct integer weights (exact
/// in `f64` along any path, in either summation order), plus a terminal
/// list and a permutation of it.
fn arb_distinct_weights() -> impl Strategy<Value = (Graph, Vec<NodeId>, Vec<NodeId>)> {
    (2usize..=12).prop_flat_map(|n| {
        let extra = proptest::collection::vec((0..n, 0..n, 1u64..1 << 30), 0..40);
        let chain = proptest::collection::vec(1u64..1 << 30, n - 1);
        let terminals = proptest::collection::vec(0..n, 1..8);
        let shuffle = proptest::collection::vec(any::<u64>(), 8);
        (extra, chain, terminals, shuffle).prop_map(move |(extra, chain, terminals, shuffle)| {
            let mut ends: Vec<(usize, usize, u64)> = chain
                .into_iter()
                .enumerate()
                .map(|(i, w)| (i, i + 1, w))
                .collect();
            ends.extend(extra.into_iter().filter(|&(u, v, _)| u != v));
            let mut g = Graph::with_nodes(n);
            for (k, &(u, v, w)) in ends.iter().enumerate() {
                // The low bits carry the edge index: no two weights tie.
                let w = (w << 6 | k as u64) as f64;
                g.add_edge(NodeId::new(u), NodeId::new(v), w).unwrap();
            }
            let terminals: Vec<NodeId> = terminals.into_iter().map(NodeId::new).collect();
            let mut permuted: Vec<(u64, NodeId)> =
                shuffle.into_iter().zip(terminals.iter().copied()).collect();
            permuted.sort_by_key(|&(key, _)| key);
            let permuted = permuted.into_iter().map(|(_, t)| t).collect();
            (g, terminals, permuted)
        })
    })
}

/// Whether KMB over `terminals` meets no tie: every node has a unique
/// shortest path from every terminal (one tight incoming edge), and the
/// closure distances are pairwise distinct. Edge weights are distinct
/// by construction, so the MSTs are unique too.
fn tie_free(g: &Graph, terminals: &[NodeId]) -> bool {
    let mut closure = Vec::new();
    for (i, &t) in terminals.iter().enumerate() {
        let spt = dijkstra(g, t);
        let mut tight = vec![0; g.node_count()];
        for e in g.edges() {
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                if let (Some(da), Some(db)) = (spt.distance(a), spt.distance(b)) {
                    if da + e.weight == db {
                        tight[b.index()] += 1;
                    }
                }
            }
        }
        if tight.iter().any(|&c| c > 1) {
            return false;
        }
        closure.extend(terminals[i + 1..].iter().filter_map(|&x| spt.distance(x)));
    }
    let mut sorted = closure.clone();
    sorted.sort_by(f64::total_cmp);
    sorted.dedup();
    sorted.len() == closure.len()
}

/// One candidate scan: its anchor terminals and its candidates.
type Scan = (Vec<NodeId>, Vec<NodeId>);

/// Scans as `Online_CP` runs them, several per bank: anchors (one of
/// them repeated if the flag says so) and candidates, the first of which
/// is the anchor the index picks when there is one, so a candidate that
/// is already an anchor often comes first.
fn arb_scans() -> impl Strategy<Value = (Graph, Vec<Scan>)> {
    arb_graph().prop_flat_map(|g| {
        let n = g.node_count();
        let scan = (
            proptest::collection::vec(0..n, 1..6),
            proptest::collection::vec(0..n, 1..8),
            0usize..8,
            any::<bool>(),
        )
            .prop_map(|(mut anchors, mut extras, first, repeat)| {
                if repeat {
                    anchors.push(anchors[anchors.len() / 2]);
                }
                if let Some(&a) = anchors.get(first) {
                    extras.insert(0, a);
                }
                let ids = |v: Vec<usize>| v.into_iter().map(NodeId::new).collect::<Vec<_>>();
                (ids(anchors), ids(extras))
            });
        (Just(g), proptest::collection::vec(scan, 1..4))
    })
}

/// `g` with every weight `w` (in 1..=3) replaced by `4 − w`: the same
/// nodes and edges, other shortest paths.
fn reweighted(g: &Graph) -> Graph {
    let mut h = Graph::with_nodes(g.node_count());
    for e in g.edges() {
        h.add_edge(e.u, e.v, 4.0 - e.weight).unwrap();
    }
    h
}

/// KMB as it was built before the bank: one Dijkstra per terminal, then
/// step 4 as `kruskal` over a copied induced subgraph.
fn reference_kmb(g: &Graph, terminals: &[NodeId]) -> Option<SteinerTree> {
    let mut uniq: Vec<NodeId> = Vec::new();
    for &t in terminals {
        if !uniq.contains(&t) {
            uniq.push(t);
        }
    }
    if uniq.is_empty() {
        return None;
    }
    if uniq.len() == 1 {
        return Some(SteinerTree::from_parts(uniq, Vec::new(), 0.0));
    }
    let spts: Vec<ShortestPathTree> = uniq
        .iter()
        .map(|&t| dijkstra_with_targets(g, t, &uniq))
        .collect();
    let mut closure = Graph::with_nodes(uniq.len());
    for (i, spt) in spts.iter().enumerate() {
        for (j, &t) in uniq.iter().enumerate().skip(i + 1) {
            let d = spt.distance(t)?;
            closure.add_edge(NodeId::new(i), NodeId::new(j), d).unwrap();
        }
    }
    let mut in_subgraph = vec![false; g.edge_count()];
    for &ce in &kruskal(&closure).edges {
        let cer = closure.edge(ce);
        let path = spts[cer.u.index()].path_to(g, uniq[cer.v.index()]).unwrap();
        for &e in path.edges() {
            in_subgraph[e.index()] = true;
        }
    }
    let sub = induced_subgraph(g, |_| true, |e| in_subgraph[e.index()]);
    let tree_edges = sub.parent_edges(&kruskal(sub.graph()).edges);
    let (kept, cost) = prune_non_terminal_leaves(g, &tree_edges, &uniq);
    Some(SteinerTree::from_parts(uniq, kept, cost))
}

fn same_tree(a: Option<&SteinerTree>, b: Option<&SteinerTree>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.terminals() == b.terminals()
                && a.edges() == b.edges()
                && a.cost().to_bits() == b.cost().to_bits()
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn banked_kmb_is_fresh_kmb_is_reference((g, scans) in arb_scans()) {
        // One bank for every scan, reset between them. Each anchor set is
        // scanned on `g` and then again on a reweighted `g`, so a closure
        // MST kept across a reset would serve the second scan stale paths.
        let h = reweighted(&g);
        let mut bank = TerminalSptBank::default();
        for (anchors, extras) in &scans {
            for graph in [&g, &h] {
                bank.reset(anchors.iter().chain(extras).copied());
                for &x in extras {
                    let mut terminals = anchors.clone();
                    terminals.push(x);
                    let reference = reference_kmb(graph, &terminals);
                    let fresh = kmb(graph, &terminals);
                    let banked = kmb_with_bank(graph, &terminals, &mut bank);
                    prop_assert!(same_tree(fresh.as_ref(), reference.as_ref()),
                        "kmb {fresh:?} != reference {reference:?} for {terminals:?}");
                    prop_assert!(same_tree(banked.as_ref(), reference.as_ref()),
                        "banked {banked:?} != reference {reference:?} for {terminals:?}");
                }
            }
        }
    }

    #[test]
    fn reset_bank_is_a_fresh_bank(
        (g, scans) in arb_graph().prop_flat_map(|g| {
            let n = g.node_count();
            let scan = (
                proptest::collection::vec(0..n, 1..5),
                proptest::collection::vec(0..n, 1..8),
            );
            (Just(g), proptest::collection::vec(scan, 1..5))
        })
    ) {
        // One bank reset for each scan's target set, as `Online_CP` keeps
        // it across decisions: its recycled trees and KMB buffers must
        // give what a bank built for that scan alone gives.
        let mut reused = TerminalSptBank::default();
        for (anchors, extras) in scans {
            let ids = |v: &[usize]| v.iter().map(|&i| NodeId::new(i)).collect::<Vec<_>>();
            let (anchors, extras) = (ids(&anchors), ids(&extras));
            let mut targets = anchors.clone();
            targets.extend(&extras);
            reused.reset(targets.iter().copied());
            prop_assert!(reused.is_empty());
            prop_assert_eq!(reused.targets(), &targets[..]);
            let mut fresh = TerminalSptBank::new(targets);
            for &x in &extras {
                let mut terminals = anchors.clone();
                terminals.push(x);
                let a = kmb_with_bank(&g, &terminals, &mut reused);
                let b = kmb_with_bank(&g, &terminals, &mut fresh);
                prop_assert!(same_tree(a.as_ref(), b.as_ref()),
                    "reset bank {a:?} != fresh bank {b:?} for {terminals:?}");
            }
            prop_assert_eq!(reused.len(), fresh.len());
        }
    }

    #[test]
    fn kmb_is_invariant_under_terminal_order((g, terminals, permuted) in arb_distinct_weights()) {
        let mut uniq = terminals.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assume!(tie_free(&g, &uniq));
        let a = kmb(&g, &terminals).expect("connected");
        let b = kmb(&g, &permuted).expect("connected");
        let sorted = |t: &SteinerTree| {
            let mut v = t.terminals().to_vec();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(sorted(&a), sorted(&b));
        prop_assert_eq!(a.edges(), b.edges(), "order {:?} vs {:?}", terminals, permuted);
        prop_assert_eq!(a.cost().to_bits(), b.cost().to_bits());
    }

    #[test]
    fn kruskal_over_is_kruskal_of_induced_subgraph(
        (g, picks) in arb_graph().prop_flat_map(|g| {
            let m = g.edge_count().max(1);
            (Just(g), proptest::collection::vec(0..m, 0..60))
        })
    ) {
        // Picks may repeat and arrive in any order; out-of-range picks on
        // an edgeless graph are dropped.
        let subset: Vec<EdgeId> = picks
            .into_iter()
            .filter(|&i| i < g.edge_count())
            .map(EdgeId::new)
            .collect();
        let sub = induced_subgraph(&g, |_| true, |e| subset.contains(&e));
        let expected = sub.parent_edges(&kruskal(sub.graph()).edges);
        prop_assert_eq!(kruskal_over(&g, subset), expected);
    }
}
