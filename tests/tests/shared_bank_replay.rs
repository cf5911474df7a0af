//! `Online_CP` and `EMP_Online` share one terminal-SPT bank across each
//! admission's candidate scan. This replays a seeded AS1755 stream with
//! departures through both policies and checks, decision by decision,
//! that they choose the same trees and leave the same ledger as a
//! reference that runs a fresh `steiner::kmb` per candidate, and that
//! each admission runs at most `1 + |D_k|` Dijkstras (one per anchor
//! terminal: the scan puts the server last, and KMB builds no tree for
//! its last terminal) where the reference runs one per terminal per
//! server.
//!
//! The reference is written out here from public pieces (the admission
//! graph, the phase-1 server checks, the LCA send-back construction)
//! rather than borrowed from the crate, so it shares nothing with the
//! scan under test but `steiner::kmb` itself.
//!
//! One `#[test]` only: the Dijkstra bound reads the process-wide
//! telemetry counter, which a concurrently running test would inflate.

use netgraph::{induced_subgraph, EdgeId, Graph, NodeId};
use nfv_multicast::{PseudoMulticastTree, ServerUse};
use nfv_online::{request_revenue, ActiveSessions, EmpPricing, OnlineAlgorithm, OnlineCp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdn::{ExponentialCostModel, MulticastRequest, Sdn};
use std::collections::BTreeSet;
use workload::{PoissonWorkload, RequestGenerator};

#[derive(Clone, Copy)]
enum Policy {
    OnlineCp,
    Emp,
}

/// One candidate of the reference scan.
struct Candidate {
    weight: f64,
    tree: PseudoMulticastTree,
}

/// The admission graph `G_k`: residual-feasible alive links weighted by
/// their exponential price plus the unit-cost tie-break.
fn admission_graph(sdn: &Sdn, b: f64) -> (netgraph::FilteredGraph, Graph) {
    let model = ExponentialCostModel::for_network(sdn);
    let filtered = induced_subgraph(sdn.graph(), |_| true, |e| sdn.link_fits(e, b));
    let g = filtered.graph();
    let c_max = g
        .edges()
        .map(|e| sdn.unit_bandwidth_cost(filtered.parent_edge(e.id)))
        .fold(sdn::COST_FLOOR, f64::max);
    let mut weighted = Graph::with_nodes(g.node_count());
    for e in g.edges() {
        let orig = filtered.parent_edge(e.id);
        let tiebreak = sdn::COST_TIEBREAK_REL * sdn.unit_bandwidth_cost(orig) / c_max;
        weighted
            .add_edge(e.u, e.v, model.edge_weight(sdn, orig) + tiebreak)
            .unwrap();
    }
    (filtered, weighted)
}

/// The per-candidate reference: every surviving server gets its own
/// `steiner::kmb`.
fn reference_admit(
    policy: Policy,
    sdn: &Sdn,
    req: &MulticastRequest,
) -> Option<PseudoMulticastTree> {
    let (b, demand) = (req.bandwidth, req.computing_demand());
    let model = ExponentialCostModel::for_network(sdn);
    let sigma = match policy {
        Policy::OnlineCp => ExponentialCostModel::threshold(sdn),
        Policy::Emp => f64::INFINITY,
    };
    let (filtered, weighted) = admission_graph(sdn, b);
    if weighted.edge_count() == 0 {
        return None;
    }
    let survivors: Vec<(NodeId, f64)> = sdn
        .servers()
        .iter()
        .filter(|&&v| sdn.server_fits(v, demand))
        .filter_map(|&v| Some((v, model.server_weight(sdn, v)?)))
        .filter(|&(_, wv)| wv < sigma)
        .collect();

    let mut candidates = Vec::new();
    for &(v, wv) in &survivors {
        let mut terminals = vec![req.source, v];
        terminals.extend(&req.destinations);
        let Some(tree) = steiner::kmb(&weighted, &terminals) else {
            continue;
        };
        if tree
            .edges()
            .iter()
            .any(|&e| weighted.edge(e).weight >= sigma)
        {
            continue;
        }
        let Some(rooted) = tree.root_at(&weighted, req.source) else {
            continue;
        };
        let mut lca_args = vec![v];
        lca_args.extend(&req.destinations);
        let u = rooted.lca_of_set(&lca_args);
        let sendback = rooted.path_between(v, u);
        let ingress = filtered.parent_edges(rooted.path_between(req.source, v).edges());
        let ingress_set: BTreeSet<EdgeId> = ingress.iter().copied().collect();
        let all_tree = filtered.parent_edges(tree.edges());
        let extra = filtered.parent_edges(sendback.edges());
        let link_cost = |e: &EdgeId| sdn.unit_bandwidth_cost(*e) * b;
        let computing_cost = sdn.unit_computing_cost(v).unwrap() * demand;
        candidates.push(Candidate {
            weight: tree.cost() + wv + sendback.cost(),
            tree: PseudoMulticastTree {
                request: req.id,
                source: req.source,
                servers: vec![ServerUse {
                    server: v,
                    ingress_cost: ingress.iter().map(link_cost).sum(),
                    ingress_edges: ingress,
                    computing_cost,
                }],
                distribution_edges: all_tree
                    .iter()
                    .copied()
                    .filter(|e| !ingress_set.contains(e))
                    .collect(),
                bandwidth_cost: all_tree.iter().chain(&extra).map(link_cost).sum(),
                extra_traversals: extra,
                computing_cost,
            },
        });
    }
    candidates.sort_by(|x, y| x.weight.partial_cmp(&y.weight).unwrap());
    let benefit = match policy {
        Policy::OnlineCp => f64::INFINITY,
        Policy::Emp => request_revenue(sdn, req),
    };
    candidates
        .into_iter()
        .take_while(|c| c.weight <= benefit)
        .find(|c| sdn.can_allocate(&c.tree.allocation(req)))
        .map(|c| c.tree)
}

/// Replays `stream` through `algo` and the reference side by side on
/// one ledger, asserting identical decisions and the Dijkstra bound.
/// Returns (admitted, rejected, departed).
fn replay(
    policy: Policy,
    algo: &mut dyn OnlineAlgorithm,
    base: &Sdn,
    stream: &[(MulticastRequest, f64, f64)],
) -> (usize, usize, usize) {
    let mut sdn = base.clone();
    let mut active = ActiveSessions::new();
    let (mut admitted, mut rejected, mut departed) = (0, 0, 0);
    for (req, arrival, duration) in stream {
        departed += active.release_due(&mut sdn, *arrival);
        let expected = reference_admit(policy, &sdn, req);
        let before = telemetry::counter_value(telemetry::Counter::DijkstraRuns);
        let tree = algo.admit(&sdn, req);
        let runs = telemetry::counter_value(telemetry::Counter::DijkstraRuns) - before;
        let bound = 1 + req.destinations.len();
        assert!(
            runs <= bound as u64,
            "{}: request {} ran {runs} Dijkstras, bound {bound}",
            algo.name(),
            req.id
        );
        assert_eq!(
            tree,
            expected,
            "{}: request {} diverged from the per-candidate reference",
            algo.name(),
            req.id
        );
        match tree {
            Some(tree) => {
                let alloc = tree.allocation(req);
                sdn.allocate(&alloc).unwrap();
                active.insert(req.id, arrival + duration, alloc);
                admitted += 1;
            }
            None => rejected += 1,
        }
    }
    // The reference, replayed alone, must reach the same final ledger.
    let mut ref_sdn = base.clone();
    let mut ref_active = ActiveSessions::new();
    for (req, arrival, duration) in stream {
        ref_active.release_due(&mut ref_sdn, *arrival);
        if let Some(tree) = reference_admit(policy, &ref_sdn, req) {
            let alloc = tree.allocation(req);
            ref_sdn.allocate(&alloc).unwrap();
            ref_active.insert(req.id, arrival + duration, alloc);
        }
    }
    assert_eq!(sdn, ref_sdn, "{}: final ledger diverged", algo.name());
    (admitted, rejected, departed)
}

#[test]
fn shared_bank_scans_match_per_candidate_reference_on_as1755() {
    telemetry::enable();
    let base = sim::isp_sdn(0);
    let mut rng = StdRng::seed_from_u64(1755);
    let mut gen = RequestGenerator::new(base.node_count());
    let stream = PoissonWorkload::new(1.0, 90.0).generate(&mut gen, 300, &mut rng);

    let (admitted, rejected, departed) =
        replay(Policy::OnlineCp, &mut OnlineCp::new(), &base, &stream);
    assert!(admitted > 0 && rejected > 0 && departed > 0);
    let (admitted, rejected, departed) =
        replay(Policy::Emp, &mut EmpPricing::new(), &base, &stream);
    assert!(admitted > 0 && rejected > 0 && departed > 0);
}
