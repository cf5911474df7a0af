//! Property tests for the shortest-path kernel: the indexed heap against
//! an ordered-set reference, the `Graph` and `CsrGraph` views of the one
//! Dijkstra kernel against each other on tie-heavy graphs, the trees an
//! `SptCache` rebuilds on a hit against the kernel's own, and the paths
//! it reads up a resident tree's chain against a run at the far end.

use netgraph::{
    bellman_ford, dijkstra, dijkstra_csr, dijkstra_csr_with_targets, dijkstra_with_targets,
    CsrGraph, DijkstraScratch, EdgeId, Graph, IndexedQuadHeap, NodeId, Path, ShortestPathTree,
    SptCache, TotalCost,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Tie graphs whose weights are short decimals with no exact `f64`
/// (0.1 + 0.2 ≠ 0.3), so a distance summed in any other order than the
/// kernel's differs in its last bits. Two extra nodes joined only to each
/// other form a component the rest never reaches.
fn arb_decimal_tie_graph() -> impl Strategy<Value = Graph> {
    const WEIGHTS: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.7, 1.1];
    (2usize..=24).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0..WEIGHTS.len());
        proptest::collection::vec(edge, 0..80).prop_map(move |edges| {
            let mut g = Graph::with_nodes(n + 2);
            for (u, v, w) in edges {
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v), WEIGHTS[w])
                        .unwrap();
                }
            }
            g.add_edge(NodeId::new(n), NodeId::new(n + 1), 0.1).unwrap();
            g
        })
    })
}

/// A `k`-ary fat-tree of switches (`(k/2)²` cores, then per pod `k/2`
/// aggregation and `k/2` edge switches), each link weighted by `weight`.
fn fat_tree(k: usize, mut weight: impl FnMut() -> f64) -> Graph {
    let half = k / 2;
    let cores = half * half;
    let mut g = Graph::with_nodes(cores + k * k);
    for pod in 0..k {
        let base = cores + pod * k;
        for a in 0..half {
            for j in 0..half {
                let core = NodeId::new(a * half + j);
                g.add_edge(NodeId::new(base + a), core, weight()).unwrap();
            }
            for e in 0..half {
                let edge_switch = NodeId::new(base + half + e);
                g.add_edge(NodeId::new(base + a), edge_switch, weight())
                    .unwrap();
            }
        }
    }
    g
}

/// Every tree an `SptCache` hands out on a hit is the kernel's tree:
/// `to_bits` distances and predecessor edges, on every node, whether
/// `spt` returns it or `trees` refills a buffer that held another root.
fn assert_store_hits_match_the_kernel(g: &Graph) {
    let csr = CsrGraph::from_graph(g);
    let mut store = SptCache::new(csr.clone());
    let mut scratch = DijkstraScratch::new();
    for src in g.nodes() {
        let kernel = dijkstra_csr(&csr, src, &mut scratch);
        assert_bit_identical(g, &store.spt(src), &kernel);
    }
    assert_eq!(store.misses(), g.node_count() as u64);
    for src in g.nodes() {
        let hits = store.hits();
        let hit = store.spt(src);
        assert_eq!(store.hits(), hits + 1, "{src} was resident");
        assert_eq!(hit.source(), src);
        assert_bit_identical(g, &hit, &dijkstra_csr(&csr, src, &mut scratch));
    }
    let last = NodeId::new(g.node_count() - 1);
    for src in g.nodes() {
        let roots = [src, last];
        for (tree, &root) in store.trees(&roots).iter().zip(&roots) {
            assert_eq!(tree.source(), root);
            assert_bit_identical(g, tree, &dijkstra_csr(&csr, root, &mut scratch));
        }
    }
    assert_eq!(store.misses(), g.node_count() as u64);
}

#[test]
fn store_hits_match_the_kernel_on_a_k8_fat_tree() {
    // Unit weights tie every equal-hop path; drawn decimal weights make
    // the summation order show in the last bits.
    assert_store_hits_match_the_kernel(&fat_tree(8, || 1.0));
    let mut rng = StdRng::seed_from_u64(8);
    assert_store_hits_match_the_kernel(&fat_tree(8, || f64::from(rng.gen_range(1u32..20)) / 10.0));
}

/// Graphs with drawn real weights — a line through every node, so all
/// are reached, plus chords — on which every shortest path is unique.
fn arb_real_weight_graph() -> impl Strategy<Value = Graph> {
    (2usize..=24).prop_flat_map(|n| {
        let line = proptest::collection::vec(0.05f64..5.0, n - 1);
        let chord = (0..n, 0..n, 0.05f64..5.0);
        let chords = proptest::collection::vec(chord, 0..3 * n);
        (line, chords).prop_map(move |(line, chords)| {
            let mut g = Graph::with_nodes(n);
            for (i, w) in line.into_iter().enumerate() {
                g.add_edge(NodeId::new(i), NodeId::new(i + 1), w).unwrap();
            }
            for (u, v, w) in chords {
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v), w).unwrap();
                }
            }
            g
        })
    })
}

/// For every (node, root) pair, the path read up the root's resident
/// tree equals a kernel run at the node bit for bit: the fold against
/// its `distance(root)`, the edges against its `path_to(root)`.
fn assert_root_paths_match_the_kernel(g: &Graph) {
    let mut store = SptCache::new(CsrGraph::from_graph(g));
    let mut path = Vec::new();
    for from in g.nodes() {
        let kernel = dijkstra(g, from);
        for root in g.nodes() {
            path.clear();
            let dist = store.path_to_root(root, from, &mut path);
            assert_eq!(
                dist.map(f64::to_bits),
                kernel.distance(root).map(f64::to_bits),
                "distance {from} → {root}"
            );
            let want = kernel.path_to(g, root).map(|p| p.edges().to_vec());
            assert_eq!(dist.map(|_| path.clone()), want, "path {from} → {root}");
        }
    }
    // One Dijkstra per root, however many nodes read it.
    assert_eq!(store.misses(), g.node_count() as u64);
}

#[test]
fn root_paths_match_the_kernel_on_a_k8_fat_tree() {
    // Drawn real weights: a unique shortest path between every pair.
    let mut rng = StdRng::seed_from_u64(64);
    assert_root_paths_match_the_kernel(&fat_tree(8, || rng.gen_range(0.5..2.0)));
}

#[test]
fn equal_cost_root_paths_follow_the_root_kernel() {
    // s = 0 reaches v = 3 at cost 3 over a (1 + 2) and over b (2 + 1).
    // The run at s settles a first and reaches v through it; the run at
    // v settles b first and reaches s through it. The read up v's tree
    // takes v's choice: same distance, the other path.
    let mut g = Graph::with_nodes(4);
    let (s, a, b, v) = (
        NodeId::new(0),
        NodeId::new(1),
        NodeId::new(2),
        NodeId::new(3),
    );
    let s_a = g.add_edge(s, a, 1.0).unwrap();
    let s_b = g.add_edge(s, b, 2.0).unwrap();
    let a_v = g.add_edge(a, v, 2.0).unwrap();
    let b_v = g.add_edge(b, v, 1.0).unwrap();
    let from_s = dijkstra(&g, s);
    assert_eq!(from_s.path_to(&g, v).unwrap().edges(), [s_a, a_v]);
    let mut store = SptCache::new(CsrGraph::from_graph(&g));
    let mut path: Vec<EdgeId> = Vec::new();
    let dist = store.path_to_root(v, s, &mut path);
    assert_eq!(dist.map(f64::to_bits), from_s.distance(v).map(f64::to_bits));
    assert_eq!(path, [s_b, b_v]);
}

fn assert_bit_identical(g: &Graph, a: &ShortestPathTree, b: &ShortestPathTree) {
    for v in g.nodes() {
        assert_eq!(
            a.distance(v).map(f64::to_bits),
            b.distance(v).map(f64::to_bits),
            "distance to {v}"
        );
        assert_eq!(
            a.predecessor(g, v),
            b.predecessor(g, v),
            "predecessor of {v}"
        );
    }
}

/// Every reached node but the source resolves to a predecessor `p`
/// over an edge incident to both, with `dist[p] + w(e) = dist[n]` bit
/// for bit: the relaxation that set `n` summed exactly those two.
fn assert_predecessors_resolve(g: &Graph, t: &ShortestPathTree) {
    for n in g.nodes() {
        let Some(dn) = t.distance(n) else {
            assert_eq!(t.predecessor(g, n), None, "unreached {n}");
            continue;
        };
        if n == t.source() {
            assert_eq!(t.predecessor(g, n), None, "source {n}");
            continue;
        }
        let (p, e) = t.predecessor(g, n).expect("reached node has a predecessor");
        let edge = g.edge(e);
        assert!(
            (edge.u, edge.v) == (p, n) || (edge.u, edge.v) == (n, p),
            "{e} does not join {p} and {n}"
        );
        let dp = t.distance(p).expect("predecessor is reached");
        assert_eq!((dp + edge.weight).to_bits(), dn.to_bits(), "dist of {n}");
    }
}

/// `p` is a walk over `g` from `from` to `to` whose weights sum to its
/// cost.
fn assert_walk(g: &Graph, p: &Path, from: NodeId, to: NodeId) {
    assert_eq!((p.source(), p.target()), (from, to));
    let mut cost = 0.0;
    for (pair, &e) in p.nodes().windows(2).zip(p.edges()) {
        let edge = g.edge(e);
        assert_eq!(edge.other(pair[0]), pair[1], "{e} on the walk to {to}");
        cost += edge.weight;
    }
    assert_eq!(
        cost.to_bits(),
        p.cost().to_bits(),
        "cost of the walk to {to}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn predecessors_resolve_through_the_graph(
        g in arb_tie_graph(),
        picks in proptest::collection::vec(0usize..24, 0..6),
    ) {
        // Tie graphs carry parallel and zero-weight edges; a targeted run
        // leaves tentative nodes whose predecessor must resolve too.
        let n = g.node_count();
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = DijkstraScratch::new();
        let targets: Vec<NodeId> = picks.iter().map(|&p| NodeId::new(p % n)).collect();
        for src in g.nodes() {
            assert_predecessors_resolve(&g, &dijkstra(&g, src));
            assert_predecessors_resolve(&g, &dijkstra_with_targets(&g, src, &targets));
            assert_predecessors_resolve(&g, &dijkstra_csr(&csr, src, &mut scratch));
            assert_predecessors_resolve(&g, &bellman_ford(&g, src));
        }
    }

    #[test]
    fn path_to_agrees_with_bellman_ford(g in arb_tie_graph()) {
        // Ties may pick different paths; the reachability, the cost and
        // the validity of each walk may not differ.
        for src in g.nodes() {
            let d = dijkstra(&g, src);
            let bf = bellman_ford(&g, src);
            for n in g.nodes() {
                match (d.path_to(&g, n), bf.path_to(&g, n)) {
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.cost().to_bits(), b.cost().to_bits());
                        assert_walk(&g, &a, src, n);
                        assert_walk(&g, &b, src, n);
                    }
                    (None, None) => {}
                    (a, b) => prop_assert!(false, "reachability of {}: {:?} vs {:?}", n, a, b),
                }
            }
        }
    }

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
    fn store_hits_match_the_kernel_on_ties(g in arb_tie_graph()) {
        assert_store_hits_match_the_kernel(&g);
    }

    #[test]
    fn store_hits_match_the_kernel_on_decimal_ties(g in arb_decimal_tie_graph()) {
        assert_store_hits_match_the_kernel(&g);
    }

    #[test]
    fn root_paths_match_the_kernel_on_real_weights(g in arb_real_weight_graph()) {
        assert_root_paths_match_the_kernel(&g);
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
            assert_bit_identical(&g, &full, &dijkstra_csr(&csr, src, &mut scratch));
            let targeted = dijkstra_with_targets(&g, src, &targets);
            let targeted_csr = dijkstra_csr_with_targets(&csr, src, &targets, &mut scratch);
            assert_bit_identical(&g, &targeted, &targeted_csr);
            // A targeted run stops early but agrees with the full run on
            // every target.
            for &t in &targets {
                prop_assert_eq!(
                    targeted.distance(t).map(f64::to_bits),
                    full.distance(t).map(f64::to_bits)
                );
                prop_assert_eq!(targeted.predecessor(&g, t), full.predecessor(&g, t));
            }
        }
    }
}
