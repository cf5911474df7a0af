//! `Online_CP` with multiple chain instances — an *extension* beyond the
//! paper.
//!
//! The paper proves its competitive ratio only for `K = 1` and leaves the
//! general case open (§VII). This module combines the two halves of the
//! paper mechanically: the exponential congestion prices of §V-A become
//! the unit costs of a *derived network*, and Algorithm 1's
//! combination-enumerating Steiner reduction runs on it, so an admission
//! may instantiate the chain on up to `K` servers. Admission control
//! keeps the per-edge/per-server thresholds of Algorithm 2. No
//! competitive guarantee is claimed — the ablation benches measure it
//! empirically.

use crate::{phase1_survivors, CostMode, OnlineAlgorithm};
use netgraph::{EdgeId, NodeId};
use nfv_multicast::{appro_multi_on, PseudoMulticastTree};
use sdn::{ExponentialCostModel, MulticastRequest, Sdn, SdnBuilder};

/// Online admission with up to `K` chain instances per request.
#[derive(Debug, Clone)]
pub struct OnlineCpMulti {
    k: usize,
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
        OnlineCpMulti { k }
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

        // Derived network: same switches; links that fit b_k priced at
        // their congestion weight (plus the zero-tie epsilon); servers
        // that fit the chain and pass the threshold priced so that
        // `unit_cost * demand = w_v(k)`.
        let mut bld = SdnBuilder::new();
        for _ in sdn.graph().nodes() {
            bld.add_switch();
        }
        let mut usable: Vec<NodeId> = Vec::new();
        let mut survivors = Vec::new();
        phase1_survivors(sdn, request, CostMode::Exponential, sigma, &mut survivors);
        for (v, wv) in survivors {
            let unit = if demand > 0.0 { wv / demand } else { 0.0 };
            bld.attach_server(
                v,
                sdn.residual_computing(v).expect("server").max(1e-9), // lint:allow(P1): v is drawn from servers()
                unit,
            )
            .expect("same node space"); // lint:allow(P1): the builder shares the parent node space
            usable.push(v);
        }
        if usable.is_empty() {
            return None;
        }
        let c_max = sdn
            .graph()
            .edges()
            .map(|e| e.weight)
            .fold(sdn::COST_FLOOR, f64::max);
        let mut edge_map: Vec<EdgeId> = Vec::new();
        for e in sdn.graph().edges() {
            if !sdn.is_link_alive(e.id) || sdn.residual_bandwidth(e.id) + sdn::CAPACITY_EPS < b {
                continue;
            }
            let w = model.edge_weight(sdn, e.id);
            if w >= sigma {
                continue; // per-edge admission threshold, applied up front
            }
            let tiebreak = sdn::COST_TIEBREAK_REL * e.weight / c_max;
            // appro_multi_on multiplies unit costs by b_k; divide it out
            // so the Steiner objective is exactly the congestion weight.
            bld.add_link(e.u, e.v, sdn.bandwidth_capacity(e.id), (w + tiebreak) / b)
                .expect("copied link is valid"); // lint:allow(P1): copies a link the parent network already validated
            edge_map.push(e.id);
        }
        let derived = bld.build().expect("derived network is well-formed"); // lint:allow(P1): the derived network reuses validated parameters only

        let mut tree = appro_multi_on(&derived, request, self.k, &usable)?;

        // Translate edge ids back and re-price costs in real units.
        for su in &mut tree.servers {
            for e in &mut su.ingress_edges {
                *e = edge_map[e.index()];
            }
        }
        for e in &mut tree.distribution_edges {
            *e = edge_map[e.index()];
        }
        for e in &mut tree.extra_traversals {
            *e = edge_map[e.index()];
        }
        let mut bandwidth_cost = 0.0;
        for e in tree.ingress_union() {
            bandwidth_cost += sdn.unit_bandwidth_cost(e) * b;
        }
        for &e in tree.distribution_edges.iter().chain(&tree.extra_traversals) {
            bandwidth_cost += sdn.unit_bandwidth_cost(e) * b;
        }
        tree.bandwidth_cost = bandwidth_cost;
        let mut computing_cost = 0.0;
        for su in &mut tree.servers {
            su.ingress_cost = su
                .ingress_edges
                .iter()
                .map(|&e| sdn.unit_bandwidth_cost(e) * b)
                .sum();
            su.computing_cost = sdn.unit_computing_cost(su.server).expect("server") * demand; // lint:allow(P1): su.server is drawn from servers()
            computing_cost += su.computing_cost;
        }
        tree.computing_cost = computing_cost;

        if sdn.can_allocate(&tree.allocation(request)) {
            Some(tree)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_online, OnlineCp};
    use netgraph::NodeId;
    use sdn::{NfvType, RequestId, ServiceChain};

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
