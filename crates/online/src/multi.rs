//! `Online_CP` with multiple chain instances — an *extension* beyond the
//! paper.
//!
//! The paper proves its competitive ratio only for `K = 1` and leaves the
//! general case open (§VII). This module combines the two halves of the
//! paper mechanically: Algorithm 1's combination-enumerating Steiner
//! reduction runs on the residual-feasible subgraph `G_k` (an
//! [`sdn::FeasibleGraph`]) with the exponential congestion prices of §V-A
//! as its unit costs, so an admission may instantiate the chain on up to
//! `K` servers. Admission control keeps the per-edge/per-server
//! thresholds of Algorithm 2. No competitive guarantee is claimed — the
//! ablation benches measure it empirically.

use crate::{phase1_survivors, CostMode, OnlineAlgorithm};
use netgraph::{EdgeId, NodeId};
use nfv_multicast::{appro_multi_on_graph, PseudoMulticastTree};
use sdn::{ExponentialCostModel, FeasibleGraph, MulticastRequest, Sdn};

/// Online admission with up to `K` chain instances per request.
///
/// One instance keeps its priced subgraph and its candidate list across
/// decisions.
#[derive(Debug, Clone)]
pub struct OnlineCpMulti {
    k: usize,
    /// Phase-1 survivors, then the same servers at their unit prices.
    servers: Vec<(NodeId, f64)>,
    /// `G_k` under the congestion prices, σ-heavy links dropped.
    feasible: FeasibleGraph,
}

impl OnlineCpMulti {
    /// Creates the extension with the given instance budget.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "at least one chain instance is required");
        OnlineCpMulti {
            k,
            servers: Vec::new(),
            feasible: FeasibleGraph::default(),
        }
    }

    /// The instance budget `K`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }
}

impl OnlineAlgorithm for OnlineCpMulti {
    fn name(&self) -> &'static str {
        "Online_CP_Multi"
    }

    // lint:entry(api)
    fn admit(&mut self, sdn: &Sdn, request: &MulticastRequest) -> Option<PseudoMulticastTree> {
        let b = request.bandwidth;
        let demand = request.computing_demand();
        let model = ExponentialCostModel::for_network(sdn);
        let sigma = ExponentialCostModel::threshold(sdn);
        let OnlineCpMulti {
            k,
            servers,
            feasible,
        } = self;

        // Candidates: the servers that fit the chain and pass the
        // threshold, priced so that `unit_cost * demand = w_v(k)`.
        phase1_survivors(sdn, request, CostMode::Exponential, sigma, servers);
        if servers.is_empty() {
            return None;
        }
        for (_, w) in servers.iter_mut() {
            *w = if demand > 0.0 { *w / demand } else { 0.0 };
        }
        // Links that fit b_k and pass the per-edge threshold, priced at
        // their congestion weight plus the zero-tie epsilon (normalised
        // over every link). The scan multiplies unit costs by b_k; divide
        // it out so the Steiner objective is exactly the congestion weight.
        let c_max = sdn
            .graph()
            .edges()
            .map(|e| e.weight)
            .fold(sdn::COST_FLOOR, f64::max);
        feasible.rebuild(sdn, b, |e| {
            let w = model.edge_weight(sdn, e);
            let tiebreak = sdn::COST_TIEBREAK_REL * sdn.unit_bandwidth_cost(e) / c_max;
            (w < sigma).then(|| (w + tiebreak) / b)
        });
        let mut tree = appro_multi_on_graph(feasible.graph(), request, *k, servers)?
            .map_edges(|e| feasible.parent_edge(e));

        // Re-price the tree in real units.
        let price = |e: EdgeId| sdn.unit_bandwidth_cost(e) * b;
        let traversals = tree.distribution_edges.iter().chain(&tree.extra_traversals);
        tree.bandwidth_cost = tree
            .ingress_union()
            .iter()
            .chain(traversals)
            .fold(0.0, |cost, &e| cost + price(e));
        let mut computing_cost = 0.0;
        for su in &mut tree.servers {
            su.ingress_cost = su.ingress_edges.iter().map(|&e| price(e)).sum();
            su.computing_cost = sdn.unit_computing_cost(su.server).unwrap_or(0.0) * demand;
            computing_cost += su.computing_cost;
        }
        tree.computing_cost = computing_cost;

        sdn.can_allocate(&tree.allocation(request)).then_some(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_online, OnlineCp};
    use netgraph::NodeId;
    use sdn::{NfvType, RequestId, SdnBuilder, ServiceChain};

    fn star_net() -> (Sdn, Vec<NodeId>) {
        // Source in the middle, two server-fronted destination arms.
        let mut b = SdnBuilder::new();
        let s = b.add_switch();
        let v1 = b.add_server(4_000.0, 0.05);
        let v2 = b.add_server(4_000.0, 0.05);
        let d1 = b.add_switch();
        let d2 = b.add_switch();
        b.add_link(s, v1, 1_000.0, 1.0).unwrap();
        b.add_link(s, v2, 1_000.0, 1.0).unwrap();
        b.add_link(v1, d1, 1_000.0, 5.0).unwrap();
        b.add_link(v2, d2, 1_000.0, 5.0).unwrap();
        (b.build().unwrap(), vec![s, v1, v2, d1, d2])
    }

    fn req(nodes: &[NodeId], id: u64) -> MulticastRequest {
        MulticastRequest::new(
            RequestId(id),
            nodes[0],
            vec![nodes[3], nodes[4]],
            100.0,
            ServiceChain::new(vec![NfvType::Firewall]),
        )
    }

    #[test]
    fn uses_multiple_instances_when_cheaper() {
        let (sdn, nodes) = star_net();
        let tree = OnlineCpMulti::new(2).admit(&sdn, &req(&nodes, 0)).unwrap();
        tree.validate(&sdn, &req(&nodes, 0)).unwrap();
        assert_eq!(tree.servers_used().len(), 2);
    }

    #[test]
    fn k1_matches_single_instance_structure() {
        let (sdn, nodes) = star_net();
        let tree = OnlineCpMulti::new(1).admit(&sdn, &req(&nodes, 0)).unwrap();
        assert_eq!(tree.servers_used().len(), 1);
    }

    #[test]
    fn respects_capacities_in_sequence() {
        let (mut sdn, nodes) = star_net();
        let requests: Vec<MulticastRequest> = (0..20).map(|i| req(&nodes, i)).collect();
        let r = run_online(&mut sdn, &mut OnlineCpMulti::new(2), &requests);
        assert!(r.admitted > 0);
        for e in sdn.graph().edges() {
            assert!(sdn.residual_bandwidth(e.id) >= -1e-6);
        }
    }

    #[test]
    fn never_admits_less_valid_trees_than_k1_baseline_on_star() {
        // Not a theorem — a smoke check that the extension is at least
        // competitive with Online_CP on a workload shaped for it.
        let (mut sdn, nodes) = star_net();
        let requests: Vec<MulticastRequest> = (0..20).map(|i| req(&nodes, i)).collect();
        let multi = run_online(&mut sdn, &mut OnlineCpMulti::new(2), &requests);
        sdn.reset();
        let single = run_online(&mut sdn, &mut OnlineCp::new(), &requests);
        assert!(multi.admitted + 2 >= single.admitted);
    }

    #[test]
    #[should_panic(expected = "at least one chain instance")]
    fn zero_k_panics() {
        let _ = OnlineCpMulti::new(0);
    }
}
