//! The scaling pipeline end to end: streamed fat-tree generation, the
//! landmark distance oracle and the oracle-ordered `Online_CP` scan —
//! proven byte-identical to its exact counterpart on a ~1k-node network —
//! plus a property sweep of the ALT bound's admissibility.

use netgraph::{dijkstra, CsrGraph, DijkstraScratch, LandmarkOracle, NodeId};
use nfv_online::{OnlineAlgorithm, OnlineCp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdn::Sdn;
use topology::{annotate, fat_tree_edges, place_servers_spread, AnnotationParams};
use workload::RequestGenerator;

/// A ~1k-node fat-tree SDN built through the streaming edge-list path
/// (the tier-1-friendly stand-in for the 5k CI benchmark fixture).
fn fat_tree_fixture(k: usize, servers: usize, seed: u64) -> Sdn {
    let (edges, _) = fat_tree_edges(k);
    let g = edges.to_graph();
    let servers = place_servers_spread(&g, servers);
    let mut rng = StdRng::seed_from_u64(seed);
    annotate(&g, &servers, &AnnotationParams::default(), &mut rng)
        .expect("fat-tree annotation is well-formed")
}

/// Oracle-ordered lazy `Online_CP` admits exactly what the exact scan
/// admits across an allocating sequence on a 980-node fat-tree.
#[test]
fn online_oracle_scan_is_transparent_at_1k_nodes() {
    let sdn0 = fat_tree_fixture(28, 12, 9); // 28²/4 + 28² = 980 nodes
    let n = sdn0.node_count();
    assert_eq!(n, 980);
    let mut rng = StdRng::seed_from_u64(10);
    let requests = RequestGenerator::new(n)
        .with_dmax_ratio(0.004)
        .generate_batch(8, &mut rng);

    let mut exact_net = sdn0.clone();
    let mut oracle_net = sdn0;
    let mut exact = OnlineCp::new();
    let mut fast = OnlineCp::new().with_oracle(8);
    let mut admitted = 0;
    for req in &requests {
        let a = exact.admit(&exact_net, req);
        let b = fast.admit(&oracle_net, req);
        assert_eq!(a, b, "oracle scan diverged on request {}", req.id);
        if let (Some(ta), Some(tb)) = (a, b) {
            exact_net.allocate(&ta.allocation(req)).unwrap();
            oracle_net.allocate(&tb.allocation(req)).unwrap();
            admitted += 1;
        }
    }
    assert!(admitted > 0, "fixture admits nothing; test is vacuous");
    assert_eq!(exact_net, oracle_net);
}

/// Generates a connected weighted graph description for the oracle
/// property sweep: a ring (guarantees connectivity) plus random chords.
fn arb_ring_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize, u32)>)> {
    (6usize..40).prop_flat_map(|n| {
        let chords = proptest::collection::vec((0..n, 0..n, 1u32..100), 0..2 * n);
        (Just(n), chords).prop_map(|(n, chords)| {
            let mut edges: Vec<(usize, usize, u32)> = (0..n)
                .map(|i| (i, (i + 1) % n, 1 + (i as u32 * 7) % 13))
                .collect();
            edges.extend(chords.into_iter().filter(|&(u, v, _)| u != v));
            (n, edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The ALT bound is admissible (`lb(u,v) ≤ d(u,v)` for all pairs) and
    /// exact when one endpoint is a landmark.
    #[test]
    fn alt_bound_is_admissible_and_landmark_exact(
        (n, edges) in arb_ring_graph(),
        landmarks in 1usize..6,
    ) {
        let mut g = netgraph::Graph::with_nodes(n);
        for &(u, v, w) in &edges {
            g.add_edge(NodeId::new(u), NodeId::new(v), f64::from(w)).unwrap();
        }
        let csr = CsrGraph::from_graph(&g);
        let oracle = LandmarkOracle::build(&csr, landmarks, &mut DijkstraScratch::new());
        for u in 0..n {
            let spt = dijkstra(&g, NodeId::new(u));
            for v in 0..n {
                let d = spt.distance(NodeId::new(v)).expect("ring graph is connected");
                let lb = oracle.lower_bound(NodeId::new(u), NodeId::new(v));
                prop_assert!(
                    lb <= d + 1e-9,
                    "lb({u},{v}) = {lb} exceeds true distance {d}"
                );
            }
        }
        for &l in oracle.landmarks() {
            let spt = dijkstra(&g, l);
            for v in 0..n {
                let d = spt.distance(NodeId::new(v)).expect("connected");
                let lb = oracle.lower_bound(l, NodeId::new(v));
                prop_assert!(
                    (lb - d).abs() <= 1e-9,
                    "landmark bound lb({l},{v}) = {lb} is not exact (d = {d})"
                );
            }
        }
    }
}
