//! Plan/validate helpers for the speculative pipeline.
//!
//! [`crate::pipeline`] plans requests on snapshots and follows one
//! contract: a plan computed against an older residual state may be
//! committed iff no commit or release since that state crossed the
//! request's feasibility thresholds — the set of links for which
//! [`Sdn::link_fits`]`(e, b_k)` holds and servers for which
//! [`Sdn::server_fits`]`(v, C(SC_k))` holds. Planners define the feasible
//! subgraph through those two predicates, so the disturbance check asks
//! the same ones on both the snapshot and live sides.
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
//! takes no faults, so liveness is fixed for its whole run and no
//! speculative plan ever spans a liveness change.

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
/// between the snapshot `then` the plan was computed on and the live
/// state `now`: some touched link's [`Sdn::link_fits`] or touched
/// server's [`Sdn::server_fits`] answers differently on the two.
pub fn feasibility_disturbed(
    touched: &TouchedSet,
    then: &Sdn,
    now: &Sdn,
    request: &MulticastRequest,
) -> bool {
    let b = request.bandwidth;
    let demand = request.computing_demand();
    touched
        .links
        .iter()
        .any(|&e| then.link_fits(e, b) != now.link_fits(e, b))
        || touched
            .servers
            .iter()
            .any(|&v| then.server_fits(v, demand) != now.server_fits(v, demand))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{EdgeId, NodeId};
    use sdn::{NfvType, RequestId, SdnBuilder, ServiceChain};

    /// A link of 100 into a server of 1 000, with `link` and `server`
    /// loads committed; the commit touches both.
    fn loaded(link: f64, server: f64) -> (Sdn, TouchedSet) {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let m = bld.add_server(1_000.0, 1.0);
        bld.add_link(s, m, 100.0, 1.0).unwrap();
        let mut sdn = bld.build().unwrap();
        let mut a = Allocation::new(RequestId(9));
        a.add_link(EdgeId::new(0), link);
        a.add_server(m, server);
        sdn.allocate(&a).unwrap();
        let mut touched = TouchedSet::new();
        touched.absorb(&a);
        (sdn, touched)
    }

    /// A request for bandwidth `b` with computing demand `0.9·b`.
    fn request(b: f64) -> MulticastRequest {
        let chain = ServiceChain::new(vec![NfvType::Firewall]);
        MulticastRequest::new(RequestId(0), NodeId::new(0), vec![NodeId::new(1)], b, chain)
    }

    /// Whether a plan for bandwidth `b` made with the `then` loads is
    /// disturbed by the `now` loads.
    fn disturbed(then: (f64, f64), now: (f64, f64), b: f64) -> bool {
        let (then, _) = loaded(then.0, then.1);
        let (now, touched) = loaded(now.0, now.1);
        feasibility_disturbed(&touched, &then, &now, &request(b))
    }

    /// The largest demand a residual of `r` fits — `r` plus the capacity
    /// slack — found by bisection on [`sdn::fits`] itself.
    fn largest_fitting(r: f64) -> f64 {
        let (mut lo, mut hi) = (r, r + 1.0);
        while f64::next_up(lo) < hi {
            let mid = lo + (hi - lo) / 2.0;
            if sdn::fits(r, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    #[test]
    fn crossing_a_threshold_disturbs_and_moving_on_one_side_does_not() {
        // Link residual 100 ↔ 40 across b = 50, in either direction.
        assert!(disturbed((0.0, 0.0), (60.0, 0.0), 50.0));
        assert!(disturbed((60.0, 0.0), (0.0, 0.0), 50.0));
        // 100 → 80 above b = 50; 80 → 70 below b = 90.
        assert!(!disturbed((0.0, 0.0), (20.0, 0.0), 50.0));
        assert!(!disturbed((20.0, 0.0), (30.0, 0.0), 90.0));
        // Server residual 1 000 ↔ 40 across the demand 45 of b = 50.
        assert!(disturbed((0.0, 0.0), (0.0, 960.0), 50.0));
        assert!(disturbed((0.0, 960.0), (0.0, 0.0), 50.0));
        // 1 000 → 100 above the demand 45; 40 → 30 below it.
        assert!(!disturbed((0.0, 0.0), (0.0, 900.0), 50.0));
        assert!(!disturbed((0.0, 960.0), (0.0, 970.0), 50.0));
        // An element the touched set does not name is never compared.
        let (then, now) = (loaded(0.0, 0.0).0, loaded(60.0, 0.0).0);
        assert!(!feasibility_disturbed(
            &TouchedSet::new(),
            &then,
            &now,
            &request(50.0)
        ));
    }

    #[test]
    fn residual_of_b_minus_eps_fits_on_both_sides() {
        // Link residual 60 fits b = 60 + the capacity slack, whether it
        // is the snapshot's or the live residual.
        let b = largest_fitting(60.0);
        assert!(b > 60.0);
        assert!(!disturbed((0.0, 0.0), (40.0, 0.0), b));
        assert!(!disturbed((40.0, 0.0), (0.0, 0.0), b));
        // One ulp more and residual 60 no longer fits.
        assert!(disturbed((0.0, 0.0), (40.0, 0.0), f64::next_up(b)));
    }

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
