//! Panic-free entry points for the offline planners.
//!
//! The classic entry points ([`appro_multi`](crate::appro_multi),
//! [`appro_multi_cap`](crate::appro_multi_cap), [`one_server`](crate::one_server))
//! assume well-formed inputs: they `assert!` on `k == 0` and index the
//! network's node space with the request's endpoints, so a request built
//! against the *wrong network* (a stale id, a typo'd node) aborts the
//! process. That is the right contract for the simulation drivers, which
//! construct both sides, but not for a service boundary fed by untrusted
//! callers.
//!
//! The `try_*` variants here validate the request against the network
//! first and route every user-reachable failure through the
//! [`SdnError`] taxonomy:
//!
//! * `k == 0` → [`SdnError::InvalidParameter`]
//! * an endpoint outside the network → [`SdnError::UnknownNode`]
//! * no feasible tree (disconnected, no usable server) →
//!   [`SdnError::InfeasibleRequest`] (for the uncapacitated planners,
//!   where feasibility depends only on topology)
//!
//! Capacity-constrained rejection is a *normal* outcome of admission
//! control, so [`try_appro_multi_cap`] returns `Ok(Admission::Rejected)`
//! rather than an error — callers distinguish "your request is malformed"
//! from "the network is full" by the `Result` layer alone.

use crate::{appro_multi, appro_multi_cap, one_server, Admission, PseudoMulticastTree};
use sdn::{MulticastRequest, Sdn, SdnError};

/// Validates that every endpoint of `request` is a node of `sdn`.
///
/// # Errors
///
/// Returns [`SdnError::UnknownNode`] naming the first offending node.
pub fn validate_request(sdn: &Sdn, request: &MulticastRequest) -> Result<(), SdnError> {
    let g = sdn.graph();
    if !g.contains_node(request.source) {
        return Err(SdnError::UnknownNode(request.source));
    }
    for &d in &request.destinations {
        if !g.contains_node(d) {
            return Err(SdnError::UnknownNode(d));
        }
    }
    Ok(())
}

fn validate_k(k: usize) -> Result<(), SdnError> {
    if k == 0 {
        return Err(SdnError::InvalidParameter {
            what: "server count K",
            value: 0.0,
        });
    }
    Ok(())
}

/// Panic-free [`appro_multi`](crate::appro_multi).
///
/// # Errors
///
/// [`SdnError::InvalidParameter`] for `k == 0`, [`SdnError::UnknownNode`]
/// for endpoints outside the network, [`SdnError::InfeasibleRequest`]
/// when no server combination can reach every destination.
pub fn try_appro_multi(
    sdn: &Sdn,
    request: &MulticastRequest,
    k: usize,
) -> Result<PseudoMulticastTree, SdnError> {
    validate_k(k)?;
    validate_request(sdn, request)?;
    appro_multi(sdn, request, k).ok_or_else(|| SdnError::InfeasibleRequest {
        reason: "no server combination reaches the source and every destination".into(),
    })
}

/// Panic-free [`appro_multi_cap`](crate::appro_multi_cap).
///
/// # Errors
///
/// [`SdnError::InvalidParameter`] for `k == 0`, [`SdnError::UnknownNode`]
/// for endpoints outside the network. Capacity rejection is **not** an
/// error: it comes back as `Ok(Admission::Rejected)`.
pub fn try_appro_multi_cap(
    sdn: &Sdn,
    request: &MulticastRequest,
    k: usize,
) -> Result<Admission, SdnError> {
    validate_k(k)?;
    validate_request(sdn, request)?;
    Ok(appro_multi_cap(sdn, request, k))
}

/// Panic-free [`one_server`](crate::one_server).
///
/// # Errors
///
/// [`SdnError::UnknownNode`] for endpoints outside the network,
/// [`SdnError::InfeasibleRequest`] when no single server reaches the
/// source and every destination.
pub fn try_one_server(
    sdn: &Sdn,
    request: &MulticastRequest,
) -> Result<PseudoMulticastTree, SdnError> {
    validate_request(sdn, request)?;
    one_server(sdn, request).ok_or_else(|| SdnError::InfeasibleRequest {
        reason: "no single server reaches the source and every destination".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::NodeId;
    use sdn::{NfvType, RequestId, SdnBuilder, ServiceChain};

    fn net() -> (Sdn, Vec<NodeId>) {
        let mut b = SdnBuilder::new();
        let s = b.add_switch();
        let v = b.add_server(8_000.0, 0.1);
        let d = b.add_switch();
        b.add_link(s, v, 10_000.0, 1.0).unwrap();
        b.add_link(v, d, 10_000.0, 1.0).unwrap();
        (b.build().unwrap(), vec![s, v, d])
    }

    fn req(src: NodeId, dests: Vec<NodeId>) -> MulticastRequest {
        MulticastRequest::new(
            RequestId(0),
            src,
            dests,
            100.0,
            ServiceChain::new(vec![NfvType::Firewall]),
        )
    }

    #[test]
    fn well_formed_request_plans() {
        let (sdn, n) = net();
        let tree = try_appro_multi(&sdn, &req(n[0], vec![n[2]]), 1).unwrap();
        tree.validate(&sdn, &req(n[0], vec![n[2]])).unwrap();
        assert!(try_appro_multi_cap(&sdn, &req(n[0], vec![n[2]]), 1)
            .unwrap()
            .is_admitted());
        try_one_server(&sdn, &req(n[0], vec![n[2]])).unwrap();
    }

    #[test]
    fn zero_k_is_an_error_not_a_panic() {
        let (sdn, n) = net();
        let e = try_appro_multi(&sdn, &req(n[0], vec![n[2]]), 0).unwrap_err();
        assert!(matches!(e, SdnError::InvalidParameter { .. }));
        let e = try_appro_multi_cap(&sdn, &req(n[0], vec![n[2]]), 0).unwrap_err();
        assert!(matches!(e, SdnError::InvalidParameter { .. }));
    }

    #[test]
    fn foreign_node_is_an_error_not_a_panic() {
        let (sdn, n) = net();
        let ghost = NodeId::new(999);
        assert_eq!(
            try_appro_multi(&sdn, &req(n[0], vec![ghost]), 1).unwrap_err(),
            SdnError::UnknownNode(ghost)
        );
        assert_eq!(
            try_one_server(&sdn, &req(ghost, vec![n[2]])).unwrap_err(),
            SdnError::UnknownNode(ghost)
        );
        assert_eq!(
            try_appro_multi_cap(&sdn, &req(n[0], vec![ghost]), 1).unwrap_err(),
            SdnError::UnknownNode(ghost)
        );
    }

    #[test]
    fn infeasible_is_error_for_offline_and_rejection_for_admission() {
        // Destination disconnected from everything else.
        let mut b = SdnBuilder::new();
        let s = b.add_switch();
        let v = b.add_server(8_000.0, 0.1);
        let d = b.add_switch();
        b.add_link(s, v, 10_000.0, 1.0).unwrap();
        let sdn = b.build().unwrap();
        let r = req(s, vec![d]);
        assert!(matches!(
            try_appro_multi(&sdn, &r, 1).unwrap_err(),
            SdnError::InfeasibleRequest { .. }
        ));
        assert_eq!(
            try_appro_multi_cap(&sdn, &r, 1).unwrap(),
            Admission::Rejected
        );
    }
}
