//! The `SP` baseline of §VI-A: load-oblivious shortest-path admission.
//!
//! For each incoming request, links and servers without enough residual
//! resources are removed; every remaining link (and candidate server)
//! gets the *same* weight. For each candidate server `v` the route is the
//! shortest path `s_k → v` plus a single-source shortest-path tree rooted
//! at `v` spanning the destinations; the cheapest (fewest-hops) candidate
//! is used. No workload awareness — the foil that Figs. 8–9 measure
//! `Online_CP` against.
//!
//! That is the `LS_Online` hop-count scan ([`crate::LsChainAdmission`])
//! with an infinite hop budget, so `SP` runs that scan rather than a copy
//! of it.

use crate::ls_chain::{hop_scan, HopScan};
use crate::OnlineAlgorithm;
use nfv_multicast::PseudoMulticastTree;
use sdn::{MulticastRequest, Sdn};

/// The `SP` online heuristic.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestPathBaseline;

impl ShortestPathBaseline {
    /// Creates the baseline (stateless).
    #[must_use]
    pub fn new() -> Self {
        ShortestPathBaseline
    }
}

impl OnlineAlgorithm for ShortestPathBaseline {
    fn name(&self) -> &'static str {
        "SP"
    }

    // lint:entry(api)
    fn admit(&mut self, sdn: &Sdn, request: &MulticastRequest) -> Option<PseudoMulticastTree> {
        // The `LS_Online` scan without a hop budget: every connected
        // route complies, so the bound never rejects.
        match hop_scan(sdn, request, f64::INFINITY) {
            HopScan::Admit(tree) => Some(tree),
            HopScan::Reject | HopScan::BoundReject => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{EdgeId, NodeId};
    use sdn::{Allocation, NfvType, RequestId, SdnBuilder, ServiceChain};

    fn chain() -> ServiceChain {
        ServiceChain::new(vec![NfvType::Nat])
    }

    /// Two parallel routes: short (2 hops via v1) and long (3 hops via v2).
    fn fixture() -> (Sdn, Vec<NodeId>, Vec<EdgeId>) {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let v1 = bld.add_server(1_000.0, 1.0);
        let a = bld.add_switch();
        let v2 = bld.add_server(1_000.0, 1.0);
        let d = bld.add_switch();
        let e0 = bld.add_link(s, v1, 1_000.0, 1.0).unwrap();
        let e1 = bld.add_link(v1, d, 1_000.0, 1.0).unwrap();
        let e2 = bld.add_link(s, a, 1_000.0, 1.0).unwrap();
        let e3 = bld.add_link(a, v2, 1_000.0, 1.0).unwrap();
        let e4 = bld.add_link(v2, d, 1_000.0, 1.0).unwrap();
        (
            bld.build().unwrap(),
            vec![s, v1, a, v2, d],
            vec![e0, e1, e2, e3, e4],
        )
    }

    #[test]
    fn picks_fewest_hops() {
        let (sdn, v, _) = fixture();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[4]], 100.0, chain());
        let tree = ShortestPathBaseline::new().admit(&sdn, &req).unwrap();
        tree.validate(&sdn, &req).unwrap();
        assert_eq!(tree.servers_used(), vec![v[1]]);
    }

    #[test]
    fn reroutes_when_short_route_saturated() {
        let (mut sdn, v, e) = fixture();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_link(e[0], 950.0);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[4]], 100.0, chain());
        let tree = ShortestPathBaseline::new().admit(&sdn, &req).unwrap();
        assert_eq!(tree.servers_used(), vec![v[3]]);
    }

    #[test]
    fn load_oblivious_keeps_hammering_the_short_route() {
        // Unlike Online_CP, SP keeps choosing the short route until it is
        // *saturated*, regardless of relative load.
        let (mut sdn, v, e) = fixture();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_link(e[0], 800.0); // heavily loaded but not saturated
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[4]], 100.0, chain());
        let tree = ShortestPathBaseline::new().admit(&sdn, &req).unwrap();
        assert_eq!(tree.servers_used(), vec![v[1]]);
    }

    #[test]
    fn rejects_when_nothing_fits() {
        let (mut sdn, v, e) = fixture();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_link(e[1], 950.0);
        pre.add_link(e[4], 950.0);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[4]], 100.0, chain());
        assert!(ShortestPathBaseline::new().admit(&sdn, &req).is_none());
    }

    #[test]
    fn multicast_tree_is_union_of_shortest_paths() {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let v = bld.add_server(8_000.0, 1.0);
        let m = bld.add_switch();
        let d1 = bld.add_switch();
        let d2 = bld.add_switch();
        bld.add_link(s, v, 1_000.0, 1.0).unwrap();
        bld.add_link(v, m, 1_000.0, 1.0).unwrap();
        bld.add_link(m, d1, 1_000.0, 1.0).unwrap();
        bld.add_link(m, d2, 1_000.0, 1.0).unwrap();
        let sdn = bld.build().unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d1, d2], 100.0, chain());
        let tree = ShortestPathBaseline::new().admit(&sdn, &req).unwrap();
        tree.validate(&sdn, &req).unwrap();
        // Shared edge v-m appears once in the distribution structure.
        assert_eq!(tree.distribution_edges.len(), 3);
    }
}
