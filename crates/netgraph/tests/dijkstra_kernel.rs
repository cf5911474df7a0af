//! Property tests for the shortest-path kernel: the indexed heap against
//! an ordered-set reference, and the `Graph` and `CsrGraph` views of the
//! one Dijkstra kernel against each other on tie-heavy graphs.

use netgraph::{
    dijkstra, dijkstra_csr, dijkstra_csr_with_targets, dijkstra_with_targets, CsrGraph,
    DijkstraScratch, Graph, IndexedQuadHeap, NodeId, ShortestPathTree, TotalCost,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One heap operation: `Some((node, key))` is a push-or-decrease, `None`
/// a pop.
type Op = Option<(usize, f64)>;

/// Keys come from a handful of integers, 0.0 included, so duplicate keys
/// and ties broken by node id are the common case.
fn arb_ops(nodes: usize) -> impl Strategy<Value = Vec<Op>> {
    let push = (0..nodes, 0u32..6).prop_map(|(n, k)| Some((n, f64::from(k))));
    let op = prop_oneof![3 => push, 1 => Just(None)];
    proptest::collection::vec(op, 0..200)
}

/// A graph whose weights are small integers with many zeros, so equal
/// distances (and zero-length detours) are everywhere.
fn arb_tie_graph() -> impl Strategy<Value = Graph> {
    (2usize..=24).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0u32..4);
        proptest::collection::vec(edge, 0..80).prop_map(move |edges| {
            let mut g = Graph::with_nodes(n);
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

fn assert_bit_identical(a: &ShortestPathTree, b: &ShortestPathTree, n: usize) {
    for i in 0..n {
        let v = NodeId::new(i);
        assert_eq!(
            a.distance(v).map(f64::to_bits),
            b.distance(v).map(f64::to_bits),
            "distance to {v}"
        );
        assert_eq!(a.predecessor(v), b.predecessor(v), "predecessor of {v}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn heap_pops_match_an_ordered_set_reference(ops in arb_ops(12)) {
        let nodes = 12;
        let mut heap = IndexedQuadHeap::new();
        heap.reset(nodes);
        let mut reference: BTreeSet<(TotalCost, NodeId)> = BTreeSet::new();
        let mut queued: Vec<Option<f64>> = vec![None; nodes];
        for op in ops {
            match op {
                Some((n, key)) => {
                    let node = NodeId::new(n);
                    heap.push_or_decrease(node, key);
                    match queued[n] {
                        None => {
                            reference.insert((TotalCost::new(key), node));
                            queued[n] = Some(key);
                        }
                        Some(old) if key < old => {
                            reference.remove(&(TotalCost::new(old), node));
                            reference.insert((TotalCost::new(key), node));
                            queued[n] = Some(key);
                        }
                        Some(_) => {}
                    }
                }
                None => {
                    let want = reference.pop_first();
                    if let Some((_, node)) = want {
                        queued[node.index()] = None;
                    }
                    let got = heap.pop().map(|(k, v)| (TotalCost::new(k), v));
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(heap.len(), reference.len());
        }
        // Drain: the remaining entries come out in reference order too.
        while let Some(want) = reference.pop_first() {
            let got = heap.pop().map(|(k, v)| (TotalCost::new(k), v));
            prop_assert_eq!(got, Some(want));
        }
        prop_assert!(heap.is_empty());
        prop_assert_eq!(heap.pop(), None);
    }

    #[test]
    fn graph_and_csr_views_are_bit_identical_on_ties(
        g in arb_tie_graph(),
        picks in proptest::collection::vec(0usize..24, 0..6),
    ) {
        let n = g.node_count();
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = DijkstraScratch::new();
        let targets: Vec<NodeId> = picks.iter().map(|&p| NodeId::new(p % n)).collect();
        for s in 0..n {
            let src = NodeId::new(s);
            let full = dijkstra(&g, src);
            assert_bit_identical(&full, &dijkstra_csr(&csr, src, &mut scratch), n);
            let targeted = dijkstra_with_targets(&g, src, &targets);
            let targeted_csr = dijkstra_csr_with_targets(&csr, src, &targets, &mut scratch);
            assert_bit_identical(&targeted, &targeted_csr, n);
            // A targeted run stops early but agrees with the full run on
            // every target.
            for &t in &targets {
                prop_assert_eq!(
                    targeted.distance(t).map(f64::to_bits),
                    full.distance(t).map(f64::to_bits)
                );
                prop_assert_eq!(targeted.predecessor(t), full.predecessor(t));
            }
        }
    }
}
