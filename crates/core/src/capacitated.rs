//! `Appro_Multi_Cap` (§IV-C): Algorithm 1 under residual capacity
//! constraints.
//!
//! Algorithm 1 runs on `G'`: the links with residual bandwidth ≥ `b_k`
//! (a [`FeasibleGraph`] at unit bandwidth costs), with the servers whose
//! residual computing is ≥ `C_v(SC_k)` as candidates. If no connected
//! component of `G'` contains the source, all destinations, and a
//! candidate server, the request is rejected.
//!
//! `G'` is built afresh per request rather than kept with the scan's
//! per-thread working memory: a kept copy of the 5 120-node fat-tree's subgraph
//! raised the streaming benchmark's peak RSS by 8 % (193 → 208 MiB),
//! while only 0.5 % of its requests plan on `G'` at all.
//!
//! Failed links and servers (see [`Sdn::fail_link`] / [`Sdn::fail_server`])
//! are excluded exactly like saturated ones ([`Sdn::link_fits`] /
//! [`Sdn::server_fits`]), so a tree returned here never touches a dead
//! element.

use crate::appro_multi::priced_servers;
use crate::{appro_multi_on_graph, PseudoMulticastTree};
use netgraph::EdgeId;
use sdn::{FeasibleGraph, MulticastRequest, Sdn};
use std::collections::BTreeSet;

/// The outcome of a capacitated admission attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// A feasible pseudo-multicast tree was found (not yet committed —
    /// call [`PseudoMulticastTree::allocation`] and [`Sdn::allocate`]).
    Admitted(PseudoMulticastTree),
    /// No feasible tree exists under the current residual capacities.
    Rejected,
}

impl Admission {
    /// Returns `true` for [`Admission::Admitted`].
    #[must_use]
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted(_))
    }

    /// The admitted tree, if any.
    #[must_use]
    pub fn tree(&self) -> Option<&PseudoMulticastTree> {
        match self {
            Admission::Admitted(t) => Some(t),
            Admission::Rejected => None,
        }
    }

    /// Consumes the admission, yielding the tree if admitted.
    #[must_use]
    pub fn into_tree(self) -> Option<PseudoMulticastTree> {
        match self {
            Admission::Admitted(t) => Some(t),
            Admission::Rejected => None,
        }
    }
}

/// The raw product of a capacitated planning pass: what Algorithm 1
/// yields on the residual-feasible subgraph, *before* the accumulated
/// multi-traversal load check.
///
/// The admission decision is a function of two inputs read from the
/// residual state: (a) the feasible subgraph — per-element single-`b_k` /
/// single-demand thresholds — which determines the tree, and (b) the
/// accumulated [`sdn::Allocation`] fit of that tree, which can require
/// several multiples of `b_k` on a link traversed by both an ingress path
/// and the distribution structure. `CapPlan` separates the two so that
/// speculative engines can re-evaluate (b) against the residual state a
/// commit is actually charged to: collapsing an unfit tree into a bare
/// rejection would lose the information that the *same* tree may fit (or
/// no longer fit) once earlier commits and releases have landed.
#[derive(Debug, Clone, PartialEq)]
pub enum CapPlan {
    /// Algorithm 1 produced this tree on the feasible subgraph. Its
    /// accumulated load has **not** been checked here — run
    /// [`CapPlan::admit`] against the state it will be charged to.
    Tree(PseudoMulticastTree),
    /// No feasible tree exists on the subgraph.
    NoTree,
}

impl CapPlan {
    /// Resolves the plan into an admission decision against `sdn`:
    /// admitted iff a tree exists *and* its accumulated allocation fits
    /// `sdn`'s residuals.
    #[must_use]
    pub fn admit(self, sdn: &Sdn, request: &MulticastRequest) -> Admission {
        match self {
            CapPlan::Tree(tree) if sdn.can_allocate(&tree.allocation(request)) => {
                Admission::Admitted(tree)
            }
            _ => Admission::Rejected,
        }
    }
}

/// Runs `Appro_Multi_Cap`: Algorithm 1 on the residual-feasible subgraph.
///
/// The returned tree (if any) fits within current residual capacities
/// **when allocated with the double-traversal convention** of
/// [`PseudoMulticastTree::allocation`]; offline trees produced here never
/// retraverse an edge, so a single `b_k` per used link suffices — but a
/// link can appear in both an ingress path and the distribution structure,
/// which is why feasibility is re-checked against the accumulated
/// [`sdn::Allocation`] before reporting admission.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
// lint:entry(api)
pub fn appro_multi_cap(sdn: &Sdn, request: &MulticastRequest, k: usize) -> Admission {
    appro_multi_cap_plan_excluding(sdn, request, k, &BTreeSet::new()).admit(sdn, request)
}

/// The planning pass of [`appro_multi_cap`] alone, on the subgraph
/// without the links in `excluded`: builds the residual-feasible
/// subgraph, drops the excluded links from it exactly like dead or
/// saturated ones, and runs Algorithm 1 on it, returning the tree
/// *without* the final accumulated-load check (see [`CapPlan`]).
///
/// This is the planning primitive of backup-tree protection: planning with
/// `excluded = {e}` yields the tree the session would use if link `e`
/// failed, computed *before* it fails.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
// lint:entry(api)
pub fn appro_multi_cap_plan_excluding(
    sdn: &Sdn,
    request: &MulticastRequest,
    k: usize,
    excluded: &BTreeSet<EdgeId>,
) -> CapPlan {
    assert!(k >= 1, "at least one server is required (K >= 1)");
    let demand = request.computing_demand();
    let mut servers = priced_servers(sdn);
    servers.retain(|&(v, _)| sdn.server_fits(v, demand));
    if servers.is_empty() {
        return CapPlan::NoTree;
    }
    // G' at unit bandwidth costs, without the excluded links.
    let feasible = FeasibleGraph::new(sdn, request.bandwidth, |e| {
        (!excluded.contains(&e)).then(|| sdn.unit_bandwidth_cost(e))
    });
    // A link may carry the request once per traversal (ingress paths can
    // overlap the distribution structure); the caller resolves the
    // *accumulated* load against the state the tree is charged to.
    match appro_multi_on_graph(feasible.graph(), request, k, &servers) {
        Some(tree) => CapPlan::Tree(tree.map_edges(|e| feasible.parent_edge(e))),
        None => CapPlan::NoTree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::NodeId;
    use sdn::{Allocation, NfvType, RequestId, SdnBuilder, ServiceChain};

    fn chain() -> ServiceChain {
        ServiceChain::new(vec![NfvType::Firewall])
    }

    /// s - m1(server) - d with an alternative longer route s - a - m2 - d.
    fn fixture() -> (Sdn, Vec<NodeId>, Vec<EdgeId>) {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let m1 = bld.add_server(1_000.0, 1.0);
        let a = bld.add_switch();
        let m2 = bld.add_server(1_000.0, 1.0);
        let d = bld.add_switch();
        let e0 = bld.add_link(s, m1, 1_000.0, 1.0).unwrap();
        let e1 = bld.add_link(m1, d, 1_000.0, 1.0).unwrap();
        let e2 = bld.add_link(s, a, 1_000.0, 2.0).unwrap();
        let e3 = bld.add_link(a, m2, 1_000.0, 2.0).unwrap();
        let e4 = bld.add_link(m2, d, 1_000.0, 2.0).unwrap();
        (
            bld.build().unwrap(),
            vec![s, m1, a, m2, d],
            vec![e0, e1, e2, e3, e4],
        )
    }

    #[test]
    fn admits_on_fresh_network() {
        let (sdn, v, _) = fixture();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[4]], 100.0, chain());
        let adm = appro_multi_cap(&sdn, &req, 1);
        let tree = adm.tree().expect("admitted");
        tree.validate(&sdn, &req).unwrap();
        assert_eq!(tree.servers_used(), vec![v[1]]); // cheap route via m1
    }

    #[test]
    fn reroutes_around_saturated_link() {
        let (mut sdn, v, e) = fixture();
        // Saturate the cheap m1 - d link.
        let mut a = Allocation::new(RequestId(99));
        a.add_link(e[1], 950.0);
        sdn.allocate(&a).unwrap();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[4]], 100.0, chain());
        let adm = appro_multi_cap(&sdn, &req, 1);
        let tree = adm.into_tree().expect("still feasible via m2");
        assert_eq!(tree.servers_used(), vec![v[3]]);
        // Admitted allocation must actually fit.
        let mut net = sdn.clone();
        net.allocate(&tree.allocation(&req)).unwrap();
    }

    #[test]
    fn rejects_when_all_servers_saturated() {
        let (mut sdn, v, _) = fixture();
        let mut a = Allocation::new(RequestId(99));
        a.add_server(v[1], 999.0);
        a.add_server(v[3], 999.0);
        sdn.allocate(&a).unwrap();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[4]], 100.0, chain());
        assert_eq!(appro_multi_cap(&sdn, &req, 1), Admission::Rejected);
    }

    #[test]
    fn rejects_when_cut_from_destination() {
        let (mut sdn, v, e) = fixture();
        // Saturate both links into d.
        let mut a = Allocation::new(RequestId(99));
        a.add_link(e[1], 950.0);
        a.add_link(e[4], 950.0);
        sdn.allocate(&a).unwrap();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[4]], 100.0, chain());
        assert!(!appro_multi_cap(&sdn, &req, 2).is_admitted());
    }

    #[test]
    fn reroutes_around_failed_link_and_server() {
        let (mut sdn, v, e) = fixture();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[4]], 100.0, chain());
        // Fail the cheap m1 - d link: the tree must detour via m2.
        sdn.fail_link(e[1]).unwrap();
        let tree = appro_multi_cap(&sdn, &req, 1)
            .into_tree()
            .expect("feasible via m2");
        assert_eq!(tree.servers_used(), vec![v[3]]);
        assert!(tree.distribution_edges.iter().all(|&x| x != e[1]));
        // Failing m2's server too still leaves m1 processing with the
        // stream detouring through m2's switch — a dead server keeps
        // forwarding. Only failing both servers exhausts the request.
        sdn.fail_server(v[3]).unwrap();
        let tree = appro_multi_cap(&sdn, &req, 2)
            .into_tree()
            .expect("m1 processes, m2's switch still forwards");
        assert_eq!(tree.servers_used(), vec![v[1]]);
        sdn.fail_server(v[1]).unwrap();
        assert_eq!(appro_multi_cap(&sdn, &req, 2), Admission::Rejected);
        // Recovery restores the original decision.
        sdn.recover_link(e[1]).unwrap();
        sdn.recover_server(v[1]).unwrap();
        sdn.recover_server(v[3]).unwrap();
        let tree = appro_multi_cap(&sdn, &req, 1).into_tree().unwrap();
        assert_eq!(tree.servers_used(), vec![v[1]]);
    }

    #[test]
    fn capacitated_cost_at_least_uncapacitated() {
        let (mut sdn, v, e) = fixture();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[4]], 100.0, chain());
        let free = crate::appro_multi(&sdn, &req, 2).unwrap().total_cost();
        let mut a = Allocation::new(RequestId(99));
        a.add_link(e[0], 950.0); // force the expensive route
        sdn.allocate(&a).unwrap();
        let capped = appro_multi_cap(&sdn, &req, 2)
            .into_tree()
            .unwrap()
            .total_cost();
        assert!(capped >= free - 1e-9);
    }

    #[test]
    fn admission_helpers() {
        let (sdn, v, _) = fixture();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[4]], 100.0, chain());
        let adm = appro_multi_cap(&sdn, &req, 1);
        assert!(adm.is_admitted());
        assert!(adm.tree().is_some());
        assert!(adm.into_tree().is_some());
        assert!(!Admission::Rejected.is_admitted());
        assert!(Admission::Rejected.tree().is_none());
    }
}
