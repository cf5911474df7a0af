//! Delay-bounded NFV multicasting — an *extension* beyond the paper.
//!
//! The paper's related work (Kuo et al. [13]) treats end-to-end delay
//! constraints for NFV-enabled *unicast*; the paper itself leaves delay
//! aside. This module adds the natural multicast counterpart on top of
//! the existing machinery: a request additionally carries a hop budget,
//! and the returned pseudo-multicast tree must deliver every destination
//! within it (hops measured on the *actual* data-plane route, including
//! send-back detours, via the rule simulator).
//!
//! Strategy: the cost-optimized [`appro_multi`](crate::appro_multi) tree
//! is used when it meets the budget; otherwise a latency-first fallback
//! picks the server minimizing the worst source→server→destination hop
//! count and routes over hop-shortest paths. This trades cost for delay
//! only when necessary.

use crate::{appro_multi, compile_rules, simulate_delivery, PseudoMulticastTree, ServerUse};
use netgraph::{dijkstra_with_targets, EdgeId, Graph, NodeId};
use sdn::{MulticastRequest, Sdn};

/// Result of a delay-bounded routing attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum DelayBounded {
    /// The cost-optimal tree already meets the hop budget.
    CostOptimal(PseudoMulticastTree),
    /// The cost-optimal tree was too slow; a latency-first tree is
    /// returned instead (meets the budget, costs more).
    LatencyFallback(PseudoMulticastTree),
    /// No tree meets the budget (or the instance is infeasible).
    Infeasible,
}

impl DelayBounded {
    /// The tree, if one was found.
    #[must_use]
    pub fn tree(&self) -> Option<&PseudoMulticastTree> {
        match self {
            DelayBounded::CostOptimal(t) | DelayBounded::LatencyFallback(t) => Some(t),
            DelayBounded::Infeasible => None,
        }
    }
}

/// Worst-case delivery hop count of a tree's data-plane route, or `None`
/// if the tree fails to compile/execute.
#[must_use]
pub fn max_delivery_hops(
    sdn: &Sdn,
    request: &MulticastRequest,
    tree: &PseudoMulticastTree,
) -> Option<usize> {
    let rules = compile_rules(sdn, request, tree).ok()?;
    let report = simulate_delivery(sdn, request, &rules).ok()?;
    if !report.covers(request) {
        return None;
    }
    report.delivery_hops.values().copied().max()
}

/// Routes `request` subject to a maximum delivery hop count.
///
/// # Panics
///
/// Panics if `k == 0` or `max_hops == 0`.
#[must_use]
pub fn appro_multi_delay_bounded(
    sdn: &Sdn,
    request: &MulticastRequest,
    k: usize,
    max_hops: usize,
) -> DelayBounded {
    assert!(max_hops >= 1, "a delivery needs at least one hop budget");
    if let Some(tree) = appro_multi(sdn, request, k) {
        if let Some(hops) = max_delivery_hops(sdn, request, &tree) {
            if hops <= max_hops {
                return DelayBounded::CostOptimal(tree);
            }
        }
    }
    match latency_first_tree(sdn, request) {
        Some(tree) => match max_delivery_hops(sdn, request, &tree) {
            Some(hops) if hops <= max_hops => DelayBounded::LatencyFallback(tree),
            _ => DelayBounded::Infeasible,
        },
        None => DelayBounded::Infeasible,
    }
}

/// The hop-minimizing single-server tree: pick the server minimizing
/// `hops(s, v) + max_d hops(v, d)`, route ingress and distribution over
/// hop-shortest paths.
fn latency_first_tree(sdn: &Sdn, request: &MulticastRequest) -> Option<PseudoMulticastTree> {
    let g = sdn.graph();
    // Unit-hop copy of the graph.
    let mut hops_graph = Graph::with_nodes(g.node_count());
    for e in g.edges() {
        hops_graph
            .add_edge(e.u, e.v, 1.0)
            .expect("copied edge is valid"); // lint:allow(P1): copies an edge the parent graph already validated
    }
    let spt_source = dijkstra_with_targets(&hops_graph, request.source, sdn.servers());

    let mut best: Option<(f64, NodeId)> = None;
    for &v in sdn.servers() {
        let Some(ingress_hops) = spt_source.distance(v) else {
            continue;
        };
        let spt_v = dijkstra_with_targets(&hops_graph, v, &request.destinations);
        let mut worst = 0.0f64;
        let mut feasible = true;
        for &d in &request.destinations {
            match spt_v.distance(d) {
                Some(h) => worst = worst.max(h),
                None => {
                    feasible = false;
                    break;
                }
            }
        }
        if !feasible {
            continue;
        }
        let total = ingress_hops + worst;
        if best.is_none_or(|(b, _)| total < b) {
            best = Some((total, v));
        }
    }
    let (_, v) = best?;

    let ingress = spt_source
        .path_to(&hops_graph, v)
        .expect("chosen server is reachable"); // lint:allow(P1): the best server was selected only if reachable
    let spt_v = dijkstra_with_targets(&hops_graph, v, &request.destinations);
    let mut distribution: Vec<EdgeId> = Vec::new();
    for &d in &request.destinations {
        let p = spt_v
            .path_to(&hops_graph, d)
            .expect("chosen server reaches all"); // lint:allow(P1): server selection required reaching every destination
        distribution.extend(p.edges().iter().copied());
    }
    distribution.sort_unstable();
    distribution.dedup();

    let b = request.bandwidth;
    let demand = request.computing_demand();
    let ingress_cost: f64 = ingress
        .edges()
        .iter()
        .map(|&e| sdn.unit_bandwidth_cost(e) * b)
        .sum();
    let computing_cost = sdn.unit_computing_cost(v)? * demand;
    let bandwidth_cost: f64 = ingress_cost
        + distribution
            .iter()
            .map(|&e| sdn.unit_bandwidth_cost(e) * b)
            .sum::<f64>();
    Some(PseudoMulticastTree {
        request: request.id,
        source: request.source,
        servers: vec![ServerUse {
            server: v,
            ingress_edges: ingress.edges().to_vec(),
            ingress_cost,
            computing_cost,
        }],
        distribution_edges: distribution,
        extra_traversals: Vec::new(),
        bandwidth_cost,
        computing_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn::{NfvType, RequestId, SdnBuilder, ServiceChain};

    fn chain() -> ServiceChain {
        ServiceChain::new(vec![NfvType::Firewall])
    }

    /// Cheap-but-long route via v1 (5 hops), expensive-but-short via v2
    /// (2 hops).
    fn two_route_net() -> (Sdn, Vec<NodeId>) {
        let mut b = SdnBuilder::new();
        let s = b.add_switch();
        let v2 = b.add_server(8_000.0, 0.1);
        let d = b.add_switch();
        // Short, expensive: s - v2 - d.
        b.add_link(s, v2, 10_000.0, 10.0).unwrap();
        b.add_link(v2, d, 10_000.0, 10.0).unwrap();
        // Long, cheap chain: s - a1 - a2 - v1 - a3 - d.
        let a1 = b.add_switch();
        let a2 = b.add_switch();
        let v1 = b.add_server(8_000.0, 0.1);
        let a3 = b.add_switch();
        b.add_link(s, a1, 10_000.0, 0.1).unwrap();
        b.add_link(a1, a2, 10_000.0, 0.1).unwrap();
        b.add_link(a2, v1, 10_000.0, 0.1).unwrap();
        b.add_link(v1, a3, 10_000.0, 0.1).unwrap();
        b.add_link(a3, d, 10_000.0, 0.1).unwrap();
        (b.build().unwrap(), vec![s, v2, d, a1, a2, v1, a3])
    }

    #[test]
    fn loose_budget_keeps_the_cost_optimal_tree() {
        let (sdn, n) = two_route_net();
        let req = MulticastRequest::new(RequestId(0), n[0], vec![n[2]], 100.0, chain());
        let result = appro_multi_delay_bounded(&sdn, &req, 1, 10);
        let DelayBounded::CostOptimal(tree) = result else {
            panic!("expected cost-optimal path, got {result:?}");
        };
        assert_eq!(tree.servers_used(), vec![n[5]]); // cheap route via v1
    }

    #[test]
    fn tight_budget_falls_back_to_latency_first() {
        let (sdn, n) = two_route_net();
        let req = MulticastRequest::new(RequestId(0), n[0], vec![n[2]], 100.0, chain());
        let result = appro_multi_delay_bounded(&sdn, &req, 1, 2);
        let DelayBounded::LatencyFallback(tree) = result else {
            panic!("expected latency fallback, got {result:?}");
        };
        assert_eq!(tree.servers_used(), vec![n[1]]); // short route via v2
        tree.validate(&sdn, &req).unwrap();
        assert_eq!(max_delivery_hops(&sdn, &req, &tree), Some(2));
    }

    #[test]
    fn impossible_budget_is_infeasible() {
        let (sdn, n) = two_route_net();
        let req = MulticastRequest::new(RequestId(0), n[0], vec![n[2]], 100.0, chain());
        assert_eq!(
            appro_multi_delay_bounded(&sdn, &req, 1, 1),
            DelayBounded::Infeasible
        );
    }

    #[test]
    fn max_hops_reflects_sendback_detours() {
        // s - a - v, dest hangs off a: delivery goes s->a->v->a->d = 4.
        let mut b = SdnBuilder::new();
        let s = b.add_switch();
        let a = b.add_switch();
        let v = b.add_server(8_000.0, 0.1);
        let d = b.add_switch();
        b.add_link(s, a, 10_000.0, 1.0).unwrap();
        b.add_link(a, v, 10_000.0, 1.0).unwrap();
        b.add_link(a, d, 10_000.0, 1.0).unwrap();
        let sdn = b.build().unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d], 100.0, chain());
        let tree = appro_multi(&sdn, &req, 1).unwrap();
        assert_eq!(max_delivery_hops(&sdn, &req, &tree), Some(4));
    }

    #[test]
    fn delay_result_accessors() {
        let (sdn, n) = two_route_net();
        let req = MulticastRequest::new(RequestId(0), n[0], vec![n[2]], 100.0, chain());
        assert!(appro_multi_delay_bounded(&sdn, &req, 1, 10)
            .tree()
            .is_some());
        assert!(DelayBounded::Infeasible.tree().is_none());
    }
}
