//! Regression tests for the shared admission tolerances.
//!
//! The planners' feasibility predicates ([`Sdn::link_fits`] /
//! [`Sdn::server_fits`]) and the ledger's admission check inside
//! [`Sdn::allocate`] both ask `sdn::fits`, so a plan the planner filters
//! accept can never be rejected at commit time. These tests walk demands
//! across the tolerance boundary and assert the two sides never disagree
//! on a single-element allocation — the exact bug class the scattered
//! hand-written `1e-9` literals used to invite — and that a failed
//! element fits nothing.

use nfv_multicast::{appro_multi_cap, Admission};
use sdn::{
    Allocation, MulticastRequest, NfvType, RequestId, Sdn, SdnBuilder, ServiceChain, CAPACITY_EPS,
};

/// s —— m (server) —— d, with every capacity set to `bandwidth` /
/// `computing` so boundary demands are easy to dial in.
fn line_net(bandwidth: f64, computing: f64) -> (Sdn, [netgraph::NodeId; 3], [netgraph::EdgeId; 2]) {
    let mut bld = SdnBuilder::new();
    let s = bld.add_switch();
    let m = bld.add_server(computing, 1.0);
    let d = bld.add_switch();
    let e0 = bld.add_link(s, m, bandwidth, 1.0).unwrap();
    let e1 = bld.add_link(m, d, bandwidth, 1.0).unwrap();
    (bld.build().unwrap(), [s, m, d], [e0, e1])
}

/// Demands around a residual of `cap`.
fn boundary(cap: f64) -> [f64; 9] {
    [
        cap - 1.0,
        cap - CAPACITY_EPS,
        f64::next_down(cap),
        cap,
        f64::next_up(cap),
        cap + 0.5 * CAPACITY_EPS,
        cap + CAPACITY_EPS,
        cap + 2.0 * CAPACITY_EPS,
        cap + 1.0,
    ]
}

#[test]
fn link_predicate_agrees_with_ledger_on_the_boundary() {
    let cap = 100.0;
    let (sdn, _, e) = line_net(cap, 1_000.0);
    assert_eq!(sdn.residual_bandwidth(e[0]), cap);
    for need in boundary(cap) {
        let mut a = Allocation::new(RequestId(0));
        a.add_link(e[0], need);
        assert_eq!(
            sdn.link_fits(e[0], need),
            sdn.can_allocate(&a),
            "planner and ledger disagree at link demand {need}"
        );
    }
}

#[test]
fn server_predicate_agrees_with_ledger_on_the_boundary() {
    let cap = 1_000.0;
    let (sdn, v, _) = line_net(500.0, cap);
    assert_eq!(sdn.residual_computing(v[1]), Some(cap));
    for need in boundary(cap) {
        let mut a = Allocation::new(RequestId(0));
        a.add_server(v[1], need);
        assert_eq!(
            sdn.server_fits(v[1], need),
            sdn.can_allocate(&a),
            "planner and ledger disagree at server demand {need}"
        );
    }
}

#[test]
fn exact_capacity_admission_always_commits() {
    // A request whose bandwidth exactly equals the only path's link
    // capacity: the planner must either reject it or produce a tree the
    // ledger commits — an Admitted plan failing `allocate` would be the
    // boundary-disagreement bug.
    let (mut sdn, v, _) = line_net(100.0, 1_000.0);
    let req = MulticastRequest::new(
        RequestId(7),
        v[0],
        vec![v[2]],
        100.0,
        ServiceChain::new(vec![NfvType::Firewall]),
    );
    match appro_multi_cap(&sdn, &req, 1) {
        Admission::Admitted(tree) => {
            let alloc = tree.allocation(&req);
            assert!(
                sdn.can_allocate(&alloc),
                "planner admitted a tree the ledger rejects"
            );
            sdn.allocate(&alloc).expect("admitted tree must commit");
        }
        Admission::Rejected => panic!("exact-capacity request should be feasible"),
    }
    // The link is now exactly full; any further demand must be rejected
    // by planner and ledger alike.
    let extra = 10.0 * CAPACITY_EPS;
    let mut a = Allocation::new(RequestId(8));
    a.add_link(netgraph::EdgeId::new(0), extra);
    assert!(!sdn.link_fits(netgraph::EdgeId::new(0), extra));
    assert!(!sdn.can_allocate(&a));
    let follow_up = MulticastRequest::new(
        RequestId(9),
        v[0],
        vec![v[2]],
        1.0,
        ServiceChain::new(vec![NfvType::Firewall]),
    );
    assert_eq!(appro_multi_cap(&sdn, &follow_up, 1), Admission::Rejected);
}

#[test]
fn failed_elements_fit_no_demand() {
    let (cap_bw, cap_cpu) = (100.0, 1_000.0);
    let (mut sdn, v, e) = line_net(cap_bw, cap_cpu);
    sdn.fail_link(e[0]).unwrap();
    sdn.fail_server(v[1]).unwrap();
    for need in std::iter::once(0.0).chain(boundary(cap_bw)) {
        let mut a = Allocation::new(RequestId(0));
        a.add_link(e[0], need);
        assert!(!sdn.link_fits(e[0], need), "failed link fits {need}");
        assert!(
            !sdn.can_allocate(&a),
            "ledger accepts {need} on a failed link"
        );
    }
    for need in std::iter::once(0.0).chain(boundary(cap_cpu)) {
        let mut a = Allocation::new(RequestId(0));
        a.add_server(v[1], need);
        assert!(!sdn.server_fits(v[1], need), "failed server fits {need}");
        assert!(
            !sdn.can_allocate(&a),
            "ledger accepts {need} on a failed server"
        );
    }
    // The live link next to them is untouched; a switch is never a server.
    assert!(sdn.link_fits(e[1], cap_bw));
    assert!(!sdn.server_fits(v[0], 0.0));
}
