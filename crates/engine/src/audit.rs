//! Invariant auditor for the admission/repair lifecycle.
//!
//! After every commit, release, or repair the network ledger, the session
//! bookkeeping, and the planner caches must agree. [`audit`] checks:
//!
//! 1. **Residual conservation** — for every link and server, the residual
//!    equals capacity minus the summed load of the live committed
//!    sessions (the [`SessionManager`] is assumed to own every
//!    allocation in the network).
//! 2. **Tree health** — every committed tree passes structural
//!    validation against its (possibly degraded) request and touches no
//!    failed link or server.
//! 3. **Cache freshness** — via [`Auditor::check_caches`], any cache
//!    claiming to be synced with the network (e.g.
//!    `PathCache::synced_version`, `OnlineCp::cached_version`) must
//!    report the current `Sdn::version`; serving from an older version
//!    is exactly the stale-read bug the version counter exists to stop.
//!
//! The checks are `O(sessions × footprint)` — far too slow for the hot
//! path, so [`Auditor`] gates them: on by default in debug builds, opt-in
//! for release builds via the `NFV_AUDIT=1` environment variable (chaos
//! runs set it), and always available unconditionally through [`audit`].

use crate::repair::SessionManager;
use netgraph::{EdgeId, NodeId};
use sdn::{RequestId, Sdn};
use std::collections::BTreeMap;
use std::fmt;

/// An invariant violation found by the auditor. Any variant here is a
/// bug in the engine, never a property of the workload.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// A link's residual disagrees with capacity minus live session load.
    ResidualBandwidthMismatch {
        /// The offending link.
        link: EdgeId,
        /// Capacity minus the summed live loads.
        expected: f64,
        /// What the ledger reports.
        actual: f64,
    },
    /// A server's residual disagrees with capacity minus live load.
    ResidualComputingMismatch {
        /// The offending server.
        server: NodeId,
        /// Capacity minus the summed live loads.
        expected: f64,
        /// What the ledger reports.
        actual: f64,
    },
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
    /// A cache claims to be synced but was built at an older network
    /// version.
    StaleCache {
        /// Which cache (e.g. `"PathCache"`).
        cache: &'static str,
        /// The version the cache was built at.
        cached_version: u64,
        /// The network's current version.
        network_version: u64,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::ResidualBandwidthMismatch {
                link,
                expected,
                actual,
            } => write!(
                f,
                "residual bandwidth of {link} is {actual} but live sessions imply {expected}"
            ),
            AuditError::ResidualComputingMismatch {
                server,
                expected,
                actual,
            } => write!(
                f,
                "residual computing of {server} is {actual} but live sessions imply {expected}"
            ),
            AuditError::InvalidTree { session, reason } => {
                write!(f, "tree of session {session:?} is invalid: {reason}")
            }
            AuditError::DeadElementInTree { session, what } => {
                write!(f, "session {session:?} still occupies failed {what}")
            }
            AuditError::StaleCache {
                cache,
                cached_version,
                network_version,
            } => write!(
                f,
                "cache {cache} was built at version {cached_version} \
                 but the network is at version {network_version}"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// A cache's claim of which network version it is synced with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStamp {
    /// Cache name for diagnostics.
    pub cache: &'static str,
    /// The `Sdn::version` the cache was last rebuilt against.
    pub version: u64,
}

/// Runs every ledger/tree invariant check unconditionally.
///
/// Assumes `manager` owns all allocations currently in `sdn`; an
/// allocation made behind the manager's back is reported as a residual
/// mismatch (that is the point — nothing may bypass the bookkeeping).
///
/// # Errors
///
/// The first violated invariant, see [`AuditError`].
pub fn audit(sdn: &Sdn, manager: &SessionManager) -> Result<(), AuditError> {
    // Accumulate the live load per element across committed sessions.
    let mut link_load: BTreeMap<EdgeId, f64> = BTreeMap::new();
    let mut server_load: BTreeMap<NodeId, f64> = BTreeMap::new();
    for (_, s) in manager.sessions() {
        for (e, l) in s.allocation.links() {
            *link_load.entry(e).or_insert(0.0) += l;
        }
        for (v, l) in s.allocation.servers() {
            *server_load.entry(v).or_insert(0.0) += l;
        }
    }
    // Reserved backup trees hold real ledger capacity too (policy
    // `Reserved`); best-effort backups hold none and contribute nothing.
    for alloc in manager.backup_reservations() {
        for (e, l) in alloc.links() {
            *link_load.entry(e).or_insert(0.0) += l;
        }
        for (v, l) in alloc.servers() {
            *server_load.entry(v).or_insert(0.0) += l;
        }
    }

    for e in sdn.graph().edges() {
        let cap = sdn.bandwidth_capacity(e.id);
        let expected = cap - link_load.get(&e.id).copied().unwrap_or(0.0);
        let actual = sdn.residual_bandwidth(e.id);
        if (expected - actual).abs() > sdn::VALIDATE_REL_TOL * (1.0 + cap) {
            return Err(AuditError::ResidualBandwidthMismatch {
                link: e.id,
                expected,
                actual,
            });
        }
    }
    for &v in sdn.servers() {
        let cap = sdn.computing_capacity(v).expect("listed server"); // lint:allow(P1): v is drawn from servers()
        let expected = cap - server_load.get(&v).copied().unwrap_or(0.0);
        let actual = sdn.residual_computing(v).expect("listed server"); // lint:allow(P1): v is drawn from servers()
        if (expected - actual).abs() > sdn::VALIDATE_REL_TOL * (1.0 + cap) {
            return Err(AuditError::ResidualComputingMismatch {
                server: v,
                expected,
                actual,
            });
        }
    }

    for (id, s) in manager.sessions() {
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

/// Gated auditor: on in debug builds, opt-in (`NFV_AUDIT=1`) in release.
#[derive(Debug, Clone, Copy)]
pub struct Auditor {
    enabled: bool,
}

impl Auditor {
    /// An auditor with explicit gating.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Auditor { enabled }
    }

    /// Default gating: enabled in debug builds, or when the
    /// `NFV_AUDIT` environment variable is `1` (chaos/CI runs).
    #[must_use]
    pub fn from_env() -> Self {
        // lint:allow(D2): one-shot opt-in gate read at construction; it toggles
        // whether invariants are *checked*, never what the planners compute.
        let opted_in = std::env::var("NFV_AUDIT")
            .map(|v| v == "1")
            .unwrap_or(false);
        Auditor::new(cfg!(debug_assertions) || opted_in)
    }

    /// Whether checks actually run.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Runs [`audit`] when enabled; a no-op otherwise.
    ///
    /// # Errors
    ///
    /// See [`audit`].
    pub fn check(&self, sdn: &Sdn, manager: &SessionManager) -> Result<(), AuditError> {
        if !self.enabled {
            return Ok(());
        }
        audit(sdn, manager)
    }

    /// Verifies that every synced cache stamp matches the live network
    /// version. Only pass stamps for caches that *claim* to be synced —
    /// a cache that will lazily rebuild on next use has no stamp to
    /// check.
    ///
    /// # Errors
    ///
    /// [`AuditError::StaleCache`] for the first mismatched stamp.
    pub fn check_caches(&self, sdn: &Sdn, stamps: &[CacheStamp]) -> Result<(), AuditError> {
        if !self.enabled {
            return Ok(());
        }
        for s in stamps {
            if s.version != sdn.version() {
                return Err(AuditError::StaleCache {
                    cache: s.cache,
                    cached_version: s.version,
                    network_version: sdn.version(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::{RepairConfig, SessionManager};
    use nfv_multicast::ApproScratch;
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
        let mut mgr = SessionManager::new();
        let mut scratch = ApproScratch::new();
        audit(&sdn, &mgr).unwrap();
        assert!(mgr.admit(&mut sdn, &req(&v, 0), 1, &mut scratch).unwrap());
        assert!(mgr.admit(&mut sdn, &req(&v, 1), 1, &mut scratch).unwrap());
        audit(&sdn, &mgr).unwrap();
        mgr.depart(&mut sdn, sdn::RequestId(0));
        audit(&sdn, &mgr).unwrap();
        sdn.fail_link(e[1]).unwrap();
        mgr.repair(&mut sdn, &RepairConfig::new(1), &mut scratch);
        audit(&sdn, &mgr).unwrap();
    }

    #[test]
    fn detects_allocation_behind_the_managers_back() {
        let (mut sdn, v, e) = fixture();
        let mgr = SessionManager::new();
        let mut rogue = Allocation::new(sdn::RequestId(99));
        rogue.add_link(e[0], 50.0);
        sdn.allocate(&rogue).unwrap();
        let err = audit(&sdn, &mgr).unwrap_err();
        assert!(matches!(
            err,
            AuditError::ResidualBandwidthMismatch { link, .. } if link == e[0]
        ));
        let _ = v;
    }

    #[test]
    fn detects_session_left_on_a_dead_element() {
        let (mut sdn, v, e) = fixture();
        let mut mgr = SessionManager::new();
        let mut scratch = ApproScratch::new();
        assert!(mgr.admit(&mut sdn, &req(&v, 0), 1, &mut scratch).unwrap());
        // Failure happened, but repair has not run yet: the tree is dead.
        sdn.fail_link(e[1]).unwrap();
        let err = audit(&sdn, &mgr).unwrap_err();
        assert!(matches!(err, AuditError::DeadElementInTree { .. }));
        // Repair clears the violation.
        mgr.repair(&mut sdn, &RepairConfig::new(1), &mut scratch);
        audit(&sdn, &mgr).unwrap();
    }

    #[test]
    fn stale_cache_stamp_is_reported() {
        let (mut sdn, v, _) = fixture();
        let auditor = Auditor::new(true);
        auditor
            .check_caches(
                &sdn,
                &[CacheStamp {
                    cache: "PathCache",
                    version: sdn.version(),
                }],
            )
            .unwrap();
        // Bump the version; the old stamp is now stale.
        let old = CacheStamp {
            cache: "PathCache",
            version: sdn.version(),
        };
        let mut a = Allocation::new(sdn::RequestId(0));
        a.add_link(netgraph::EdgeId::new(0), 1.0);
        sdn.allocate(&a).unwrap();
        let err = auditor.check_caches(&sdn, &[old]).unwrap_err();
        assert!(matches!(
            err,
            AuditError::StaleCache {
                cache: "PathCache",
                ..
            }
        ));
        let _ = v;
    }

    #[test]
    fn disabled_auditor_is_silent() {
        let (mut sdn, _, e) = fixture();
        let mgr = SessionManager::new();
        let mut rogue = Allocation::new(sdn::RequestId(99));
        rogue.add_link(e[0], 50.0);
        sdn.allocate(&rogue).unwrap();
        let off = Auditor::new(false);
        off.check(&sdn, &mgr).unwrap();
        off.check_caches(
            &sdn,
            &[CacheStamp {
                cache: "x",
                version: 0,
            }],
        )
        .unwrap();
        assert!(Auditor::new(true).check(&sdn, &mgr).is_err());
    }
}
