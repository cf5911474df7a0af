//! Invariant auditor for the admission/repair lifecycle.
//!
//! After every commit, release, or repair the network ledger and the
//! session bookkeeping must agree. [`audit`] checks:
//!
//! 1. **Residual conservation** — for every link and server, the residual
//!    equals capacity minus the summed load of the live sessions and the
//!    reserved backup trees ([`Sdn::check_ledger`]; the caller's session
//!    table is assumed to own every allocation in the network).
//! 2. **Tree health** — every committed tree passes structural
//!    validation against its (possibly degraded) request and touches no
//!    failed link or server.
//!
//! The checks are `O(sessions × footprint)`, far too slow for the hot
//! path: the pipeline runs them after every decision in debug builds
//! only, while the chaos and churn replays run them after every event.

use crate::repair::CommittedSession;
use nfv_online::ActiveSession;
use sdn::{Allocation, RequestId, Sdn, SdnError};
use std::fmt;

/// An invariant violation found by the auditor. Any variant here is a
/// bug in the engine, never a property of the workload.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// The residual ledger disagrees with capacity minus the live
    /// session load (an [`SdnError::LedgerMismatch`] from
    /// [`Sdn::check_ledger`]).
    Ledger(SdnError),
    /// A committed tree failed structural validation.
    InvalidTree {
        /// The session whose tree is broken.
        session: RequestId,
        /// The validator's explanation.
        reason: String,
    },
    /// A committed tree still touches a failed link or server — the
    /// repair engine should have caught it.
    DeadElementInTree {
        /// The session left on a dead element.
        session: RequestId,
        /// Which element is dead.
        what: String,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Ledger(e) => write!(f, "{e}"),
            AuditError::InvalidTree { session, reason } => {
                write!(f, "tree of session {session:?} is invalid: {reason}")
            }
            AuditError::DeadElementInTree { session, what } => {
                write!(f, "session {session:?} still occupies failed {what}")
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// Runs every ledger/tree invariant check unconditionally.
///
/// Assumes `sessions` and the backup `reservations` together own all
/// allocations currently in `sdn`; an allocation made behind their back
/// is reported as a residual mismatch (that is the point — nothing may
/// bypass the bookkeeping).
///
/// # Errors
///
/// The first violated invariant, see [`AuditError`].
pub fn audit<'a>(
    sdn: &Sdn,
    sessions: impl IntoIterator<Item = (RequestId, &'a ActiveSession<CommittedSession>)>,
    reservations: impl IntoIterator<Item = &'a Allocation>,
) -> Result<(), AuditError> {
    let sessions: Vec<_> = sessions.into_iter().collect();
    // Best-effort backups hold no capacity, so only reserved ones count.
    sdn.check_ledger(
        sessions
            .iter()
            .map(|(_, s)| &s.allocation)
            .chain(reservations),
    )
    .map_err(AuditError::Ledger)?;

    for (id, s) in sessions {
        if let Err(reason) = s.payload.tree.validate(sdn, &s.payload.request) {
            return Err(AuditError::InvalidTree {
                session: id,
                reason,
            });
        }
        for (e, _) in s.allocation.links() {
            if !sdn.is_link_alive(e) {
                return Err(AuditError::DeadElementInTree {
                    session: id,
                    what: format!("link {e}"),
                });
            }
        }
        for (v, _) in s.allocation.servers() {
            if !sdn.is_server_alive(v) {
                return Err(AuditError::DeadElementInTree {
                    session: id,
                    what: format!("server {v}"),
                });
            }
        }
    }
    telemetry::hit(telemetry::Counter::AuditPasses);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::SessionManager;
    use netgraph::{EdgeId, NodeId};
    use sdn::{Allocation, MulticastRequest, NfvType, SdnBuilder, ServiceChain};

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

    fn req(v: &[NodeId], id: u64) -> MulticastRequest {
        MulticastRequest::new(
            sdn::RequestId(id),
            v[0],
            vec![v[4]],
            100.0,
            ServiceChain::new(vec![NfvType::Firewall]),
        )
    }

    #[test]
    fn clean_lifecycle_passes() {
        let (mut sdn, v, e) = fixture();
        let mut mgr = SessionManager::new(1);
        audit(&sdn, mgr.sessions(), mgr.backup_reservations()).unwrap();
        assert!(mgr.admit(&mut sdn, &req(&v, 0)).unwrap());
        assert!(mgr.admit(&mut sdn, &req(&v, 1)).unwrap());
        audit(&sdn, mgr.sessions(), mgr.backup_reservations()).unwrap();
        mgr.depart(&mut sdn, sdn::RequestId(0));
        audit(&sdn, mgr.sessions(), mgr.backup_reservations()).unwrap();
        sdn.fail_link(e[1]).unwrap();
        mgr.repair(&mut sdn);
        audit(&sdn, mgr.sessions(), mgr.backup_reservations()).unwrap();
    }

    #[test]
    fn detects_allocation_behind_the_managers_back() {
        let (mut sdn, v, e) = fixture();
        let mgr = SessionManager::new(1);
        let mut rogue = Allocation::new(sdn::RequestId(99));
        rogue.add_link(e[0], 50.0);
        sdn.allocate(&rogue).unwrap();
        let err = audit(&sdn, mgr.sessions(), mgr.backup_reservations()).unwrap_err();
        assert!(matches!(
            err,
            AuditError::Ledger(SdnError::LedgerMismatch { ref what, .. }) if *what == format!("link {}", e[0])
        ));
        let _ = v;
    }

    #[test]
    fn detects_session_left_on_a_dead_element() {
        let (mut sdn, v, e) = fixture();
        let mut mgr = SessionManager::new(1);
        assert!(mgr.admit(&mut sdn, &req(&v, 0)).unwrap());
        // Failure happened, but repair has not run yet: the tree is dead.
        sdn.fail_link(e[1]).unwrap();
        let err = audit(&sdn, mgr.sessions(), mgr.backup_reservations()).unwrap_err();
        assert!(matches!(err, AuditError::DeadElementInTree { .. }));
        // Repair clears the violation.
        mgr.repair(&mut sdn);
        audit(&sdn, mgr.sessions(), mgr.backup_reservations()).unwrap();
    }
}
