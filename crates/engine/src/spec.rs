//! Plan/validate helpers for the speculative pipeline.
//!
//! [`crate::pipeline`] plans requests on snapshots and follows one
//! contract: a plan computed against an older residual state may be
//! committed iff no commit or release since that state crossed the
//! request's feasibility thresholds — the set of links with *usable*
//! (alive-masked) bandwidth `>= b_k` and servers with usable computing
//! `>= C(SC_k)` (both with the shared [`sdn::CAPACITY_EPS`] slack).
//! Planners define the feasible subgraph through the usable view
//! ([`Sdn::usable_bandwidth`] / [`Sdn::usable_computing`]), so the
//! predicate reads the same view on both the snapshot and live sides.
//!
//! The sequential decision is a function of **two** residual reads, and
//! the speculative protocol covers each with a different mechanism:
//!
//! 1. **The feasible subgraph** (per-element single-threshold bits)
//!    determines which tree Algorithm 1 yields. The touched-set predicate
//!    [`feasibility_disturbed`] certifies that no bit flipped between the
//!    snapshot and the live state, so an undisturbed
//!    [`CapPlan`](nfv_multicast::CapPlan) *is* the plan the sequential
//!    loop would have computed on the live state.
//! 2. **The accumulated multi-traversal load check**: a tree can traverse
//!    one link in both an ingress path and the distribution structure, so
//!    admission needs `j·b_k` residual on such a link (`j` ≥ 2) — a
//!    threshold the single-`b_k` subgraph bits cannot see. Speculations
//!    therefore carry the *raw* planned tree (before that check), and the
//!    committer resolves it with [`CapPlan::admit`](nfv_multicast::CapPlan::admit)
//!    against the **live** residuals at commit time. Collapsing the
//!    planner output to admit/reject on the snapshot would be unsound in
//!    both directions: a tree unfit on the snapshot can fit after
//!    releases, and vice versa.
//!
//! The touched-set mechanism only tracks *residual* movement (commits and
//! releases). Liveness flips are invisible to it by design: the pipeline
//! drains its window on every fault and force-republishes its snapshot
//! before the next plan is dispatched, so no speculative plan ever spans
//! a liveness change.

use sdn::{Allocation, MulticastRequest, Sdn};
use std::collections::BTreeSet;

/// Deduplicated set of links and servers whose residuals moved since a
/// snapshot was taken. Sets keep the disturbance scan proportional to
/// the number of *distinct* disturbed elements.
#[derive(Debug, Clone, Default)]
pub struct TouchedSet {
    /// Links whose residual bandwidth changed.
    pub links: BTreeSet<netgraph::EdgeId>,
    /// Servers whose residual computing changed.
    pub servers: BTreeSet<netgraph::NodeId>,
}

impl TouchedSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        TouchedSet::default()
    }

    /// Records every link and server `alloc` loads (a commit) or frees
    /// (a release) — both directions can flip a feasibility bit.
    pub fn absorb(&mut self, alloc: &Allocation) {
        for (e, _) in alloc.links() {
            self.links.insert(e);
        }
        for (v, _) in alloc.servers() {
            self.servers.insert(v);
        }
    }
}

/// Whether any touched element crossed `request`'s feasibility threshold
/// between the snapshot the plan was computed on (read through
/// `then_bandwidth` / `then_computing`) and the live state `now`.
///
/// Both sides are the alive-masked *usable* view the planners see:
/// `then_bandwidth` / `then_computing` must mirror
/// [`Sdn::usable_bandwidth`] / [`Sdn::usable_computing`] on the snapshot
/// (`then_computing` returns `None` for nodes that are not servers), and
/// the live side reads the same accessors on `now`.
pub fn feasibility_disturbed(
    touched: &TouchedSet,
    then_bandwidth: impl Fn(netgraph::EdgeId) -> f64,
    then_computing: impl Fn(netgraph::NodeId) -> Option<f64>,
    now: &Sdn,
    request: &MulticastRequest,
) -> bool {
    let b = request.bandwidth;
    let demand = request.computing_demand();
    let link_flipped = touched.links.iter().any(|&e| {
        let feasible_then = then_bandwidth(e) + sdn::CAPACITY_EPS >= b;
        let feasible_now = now.usable_bandwidth(e) + sdn::CAPACITY_EPS >= b;
        feasible_then != feasible_now
    });
    if link_flipped {
        return true;
    }
    touched.servers.iter().any(|&v| {
        let feasible_then = then_computing(v).is_some_and(|r| r + sdn::CAPACITY_EPS >= demand);
        let feasible_now = now
            .usable_computing(v)
            .is_some_and(|r| r + sdn::CAPACITY_EPS >= demand);
        feasible_then != feasible_now
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{EdgeId, NodeId};
    use sdn::RequestId;

    #[test]
    fn absorb_deduplicates_across_allocations() {
        let mut touched = TouchedSet::new();
        let mut a = Allocation::new(RequestId(0));
        a.add_link(EdgeId::new(0), 100.0);
        a.add_link(EdgeId::new(1), 100.0);
        a.add_server(NodeId::new(5), 400.0);
        let mut b = Allocation::new(RequestId(1));
        b.add_link(EdgeId::new(1), 50.0);
        b.add_link(EdgeId::new(2), 50.0);
        b.add_server(NodeId::new(5), 200.0);

        touched.absorb(&a);
        assert_eq!(touched.links.len(), 2);
        assert_eq!(touched.servers.len(), 1);
        touched.absorb(&b);
        // Link 1 and server 5 are shared: the set holds the union, not
        // one entry per commit.
        assert_eq!(touched.links.len(), 3);
        assert_eq!(touched.servers.len(), 1);
        touched.absorb(&a);
        assert_eq!(
            (touched.links.len(), touched.servers.len()),
            (3, 1),
            "re-absorbing must not grow the set"
        );
    }
}
