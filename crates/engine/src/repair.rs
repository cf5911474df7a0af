//! Self-healing admission: session bookkeeping, failure impact detection,
//! and bounded replanning on the surviving residual graph.
//!
//! A [`SessionManager`] owns the set of *committed* sessions together with
//! an inverted membership index (link → sessions, server → sessions), so
//! that after a failure event the set of broken sessions is found without
//! scanning every tree. [`SessionManager::repair`] then:
//!
//! 1. releases every broken session's allocation (the ledger survives
//!    failures — see `Sdn::fail_link` — so releases are exact),
//! 2. replans each one with `Appro_Multi_Cap` on the alive-masked
//!    residual graph, in **ascending request-id order** with a budget of
//!    three attempts per session, so repair storms are byte-reproducible,
//! 3. degrades a session whose full destination set no longer fits: it
//!    is replanned on the subset of destinations still reachable from
//!    the source — only the unreachable ones are shed.
//!
//! Sessions that exhaust their attempt budget are dropped; sessions with
//! budget left stay *pending* inside the manager and are retried on the
//! next [`SessionManager::repair`] call (typically after a recovery
//! event restores some capacity). Every session, committed or pending,
//! ends with an explicit [`SessionManager::depart`]; for a pending one
//! that cancels the queued replan.
//!
//! The manager owns the server budget `K` it plans with.
//!
//! Live sessions sit in one [`ActiveSessions`] table, which releases
//! them, counts departures, and guards against double release.

use crate::resilience::{BackupPolicy, BackupTree};
use netgraph::{EdgeId, NodeId, UnionFind};
use nfv_multicast::{appro_multi_cap, Admission, PseudoMulticastTree};
use nfv_online::{ActiveSession, ActiveSessions};
use sdn::{Allocation, MulticastRequest, RequestId, Sdn, SdnError};
use std::collections::{BTreeMap, BTreeSet};

/// Replanning attempts a broken session gets across [`SessionManager::repair`]
/// calls before it is dropped. `results/chaos.json` was generated with
/// this budget (and with the protection constants in `resilience`).
const REPAIR_ATTEMPTS: usize = 3;

/// What a session table keeps with each live session besides its
/// departure time and allocation: the request and the tree serving it.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedSession {
    /// The admitted request (for degraded sessions, the *reduced* one).
    pub request: MulticastRequest,
    /// The pseudo-multicast tree serving it.
    pub tree: PseudoMulticastTree,
}

/// Outcome of [`SessionManager::depart`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Departure {
    /// The session was committed; its resources were released.
    Released,
    /// The session was awaiting repair (already released); the pending
    /// replan was cancelled.
    Cancelled,
    /// The session was unknown — already torn down (e.g. dropped by the
    /// repair engine) or never admitted. The departure is a no-op.
    Unknown,
}

#[derive(Debug, Clone)]
struct PendingRepair {
    request: MulticastRequest,
    attempts: usize,
}

/// One broken session detached from the network, awaiting either a
/// backup-tree swap or a reactive replan.
struct Casualty {
    id: RequestId,
    request: MulticastRequest,
    backups: Vec<BackupTree>,
}

/// What one [`SessionManager::repair`] call did, in ascending request-id
/// order within each category.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Sessions newly broken by failures since the last call (released
    /// and queued for replanning this call).
    pub broken: Vec<RequestId>,
    /// Sessions restored by swapping to a precomputed backup tree —
    /// O(commit), no planner invocation.
    pub swapped: Vec<RequestId>,
    /// Sessions recommitted with their full destination set.
    pub repaired: Vec<RequestId>,
    /// Sessions recommitted on a reduced destination set, with the number
    /// of destinations shed.
    pub degraded: Vec<(RequestId, usize)>,
    /// Sessions torn down for good (attempt budget exhausted).
    pub dropped: Vec<RequestId>,
    /// Sessions still pending with attempt budget left; retried on the
    /// next call.
    pub deferred: Vec<RequestId>,
    /// Planner invocations spent restoring broken/pending sessions (the
    /// logical repair latency — backup-tree swaps contribute zero;
    /// re-protection planning is not counted).
    pub plan_events: u64,
}

/// Owns committed sessions and heals them across failure events.
///
/// All bookkeeping is `BTreeMap`-backed, so iteration — and therefore
/// every repair decision — is deterministic in request-id order.
#[derive(Debug, Clone)]
pub struct SessionManager {
    /// Server budget `K` of every plan: admission, repair, backups and
    /// re-optimization.
    pub(crate) k: usize,
    pub(crate) sessions: ActiveSessions<CommittedSession>,
    link_members: BTreeMap<EdgeId, BTreeSet<RequestId>>,
    server_members: BTreeMap<NodeId, BTreeSet<RequestId>>,
    pending: BTreeMap<RequestId, PendingRepair>,
    /// Capacity discipline of backup trees; `None` disables backups and
    /// drift re-optimization (reactive repair only).
    pub(crate) backup_policy: Option<BackupPolicy>,
    /// Precomputed backup trees per protected session.
    pub(crate) backups: BTreeMap<RequestId, Vec<BackupTree>>,
    /// Accumulated graft/prune cost drift per session, vs the cost of its
    /// last full plan.
    pub(crate) drift: BTreeMap<RequestId, f64>,
}

impl SessionManager {
    /// An empty manager that plans with server budget `k` and heals
    /// broken sessions reactively (no backup trees).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "at least one server is required (K >= 1)");
        SessionManager {
            k,
            sessions: ActiveSessions::default(),
            link_members: BTreeMap::new(),
            server_members: BTreeMap::new(),
            pending: BTreeMap::new(),
            backup_policy: None,
            backups: BTreeMap::new(),
            drift: BTreeMap::new(),
        }
    }

    /// Number of committed sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no session is committed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// `true` when `id` is committed (not merely pending repair).
    #[must_use]
    pub fn contains(&self, id: RequestId) -> bool {
        self.sessions.contains(id)
    }

    /// The committed session for `id`, if any.
    #[must_use]
    pub fn session(&self, id: RequestId) -> Option<&ActiveSession<CommittedSession>> {
        self.sessions.get(id)
    }

    /// Iterates committed sessions in ascending request-id order.
    pub fn sessions(&self) -> impl Iterator<Item = (RequestId, &ActiveSession<CommittedSession>)> {
        self.sessions.iter()
    }

    /// Request ids currently awaiting a repair attempt.
    #[must_use]
    pub fn pending_repairs(&self) -> Vec<RequestId> {
        self.pending.keys().copied().collect()
    }

    /// How many departures arrived for sessions that no longer held any
    /// resources (the double-release guard fired).
    #[must_use]
    pub fn double_release_count(&self) -> u64 {
        self.sessions.double_release_count()
    }

    /// Runs `Appro_Multi_Cap` for `request` and commits the tree on
    /// success, to hold until an explicit [`depart`](Self::depart).
    /// Returns `Ok(true)` if admitted and committed.
    ///
    /// # Errors
    ///
    /// Propagates ledger errors from [`Sdn::allocate`], and rejects a
    /// request whose id is already committed or pending.
    // lint:entry(api)
    pub fn admit(&mut self, sdn: &mut Sdn, request: &MulticastRequest) -> Result<bool, SdnError> {
        match appro_multi_cap(sdn, request, self.k) {
            Admission::Admitted(tree) => {
                self.commit(sdn, request.clone(), tree)?;
                Ok(true)
            }
            Admission::Rejected => Ok(false),
        }
    }

    /// Allocates `tree`'s resources and records the session until an
    /// explicit [`depart`](Self::depart).
    ///
    /// # Errors
    ///
    /// Returns [`SdnError::InfeasibleRequest`] for a duplicate session id,
    /// and propagates allocation errors (in which case nothing is
    /// recorded).
    pub(crate) fn commit(
        &mut self,
        sdn: &mut Sdn,
        request: MulticastRequest,
        tree: PseudoMulticastTree,
    ) -> Result<(), SdnError> {
        let id = request.id;
        if self.sessions.contains(id) || self.pending.contains_key(&id) {
            return Err(SdnError::InfeasibleRequest {
                reason: format!("session {id:?} is already tracked"),
            });
        }
        let allocation = tree.allocation(&request);
        sdn.allocate(&allocation)?;
        self.index(id, &allocation);
        self.sessions.insert_with(
            id,
            f64::INFINITY,
            allocation,
            CommittedSession { request, tree },
        );
        Ok(())
    }

    /// Tears a session down. Committed sessions release their resources;
    /// pending ones only cancel the queued replan (their resources were
    /// released when the failure broke them); unknown ids are a guarded
    /// no-op — never a double release (see [`ActiveSessions::depart`]).
    pub fn depart(&mut self, sdn: &mut Sdn, id: RequestId) -> Departure {
        if self.pending.remove(&id).is_some() {
            // A pending session holds no allocation, backups or drift:
            // the repair pass that broke it removed all three.
            telemetry::gauge_set(telemetry::Gauge::PendingRepairs, self.pending.len() as u64);
            return Departure::Cancelled;
        }
        match self.sessions.depart(sdn, id) {
            Some(s) => {
                self.unindex(id, &s.allocation);
                self.discard_backups(sdn, id);
                self.drift.remove(&id);
                Departure::Released
            }
            None => Departure::Unknown,
        }
    }

    /// Committed sessions whose footprint touches a failed link or
    /// server, in ascending request-id order.
    #[must_use]
    pub fn broken_sessions(&self, sdn: &Sdn) -> Vec<RequestId> {
        let mut broken: BTreeSet<RequestId> = BTreeSet::new();
        for e in sdn.failed_links() {
            if let Some(members) = self.link_members.get(&e) {
                broken.extend(members.iter().copied());
            }
        }
        for v in sdn.failed_servers() {
            if let Some(members) = self.server_members.get(&v) {
                broken.extend(members.iter().copied());
            }
        }
        broken.into_iter().collect()
    }

    /// Detects sessions broken by failures, releases them, and restores
    /// them (plus any still-pending earlier casualties): a backup-tree
    /// swap when one fits, otherwise a full replan, then a degraded one.
    ///
    /// Deterministic: sessions are processed in ascending request-id
    /// order and the planner itself is deterministic, so the same network
    /// state and failure history yield a byte-identical report.
    // lint:entry(api)
    pub fn repair(&mut self, sdn: &mut Sdn) -> RepairReport {
        let mut report = RepairReport {
            broken: self.broken_sessions(sdn),
            ..RepairReport::default()
        };
        telemetry::add(telemetry::Counter::RepairBroken, report.broken.len() as u64);
        if !report.broken.is_empty() {
            telemetry::observe(
                telemetry::Hist::RepairBatchBroken,
                report.broken.len() as u64,
            );
        }
        // Detach every casualty first: release its allocation *and* its
        // reserved backup capacity, so the swap/replan phase below sees the
        // full surviving residual.
        let mut casualties: Vec<Casualty> = Vec::with_capacity(report.broken.len());
        for &id in &report.broken {
            let s = self
                .sessions
                .detach(sdn, id)
                .expect("invariant: broken_sessions only lists committed sessions"); // lint:allow(P1): broken_sessions is built from the committed-session index
            self.unindex(id, &s.allocation);
            self.drift.remove(&id);
            let backups = self.backups.remove(&id).unwrap_or_default();
            for b in &backups {
                if b.reserved {
                    sdn.release(&b.allocation)
                        // lint:allow(P1): the reservation was applied at protect time, so release balances
                        .expect("invariant: a charged reservation releases cleanly");
                }
            }
            casualties.push(Casualty {
                id,
                request: s.payload.request,
                backups,
            });
        }

        // Failover phase: swap each casualty to its precomputed backup
        // tree when one avoids every dead element and still fits — an
        // O(commit) restore, zero planner invocations. The rest falls back
        // to the reactive pending-repair queue.
        for c in casualties {
            let candidates = c.backups.len();
            let chosen = c.backups.into_iter().find(|b| {
                b.allocation.links().all(|(e, _)| sdn.is_link_alive(e))
                    && b.allocation.servers().all(|(v, _)| sdn.is_server_alive(v))
                    && sdn.can_allocate(&b.allocation)
            });
            if let Some(b) = chosen {
                self.commit(sdn, c.request, b.tree)
                    .expect("invariant: a fitting backup tree commits cleanly"); // lint:allow(P1): fit was just checked against the live residual
                telemetry::hit(telemetry::Counter::BackupHits);
                telemetry::add(
                    telemetry::Counter::BackupDiscarded,
                    candidates.saturating_sub(1) as u64,
                );
                telemetry::observe(telemetry::Hist::FailoverPlanEvents, 0);
                telemetry::record(telemetry::Event::SessionFailedOver { request: c.id.0 });
                report.swapped.push(c.id);
            } else {
                if self.backup_policy.is_some() {
                    telemetry::hit(telemetry::Counter::BackupMisses);
                }
                telemetry::add(telemetry::Counter::BackupDiscarded, candidates as u64);
                self.pending.insert(
                    c.id,
                    PendingRepair {
                        request: c.request,
                        attempts: 0,
                    },
                );
            }
        }
        self.update_reserved_gauge();

        let queue: Vec<RequestId> = self.pending.keys().copied().collect();
        for id in queue {
            let request = self.pending[&id].request.clone();

            report.plan_events += 1;
            if let Admission::Admitted(tree) = appro_multi_cap(sdn, &request, self.k) {
                self.pending.remove(&id);
                self.commit(sdn, request, tree)
                    .expect("invariant: a replanned tree fits the residual it was planned on"); // lint:allow(P1): replanning ran on the exact residual being committed
                telemetry::hit(telemetry::Counter::RepairRepaired);
                telemetry::observe(telemetry::Hist::FailoverPlanEvents, 1);
                telemetry::record(telemetry::Event::SessionRepaired { request: id.0 });
                report.repaired.push(id);
                continue;
            }

            if let Some(reduced) = reachable_subrequest(sdn, &request) {
                let shed = request.destinations.len() - reduced.destinations.len();
                report.plan_events += 1;
                if let Admission::Admitted(tree) = appro_multi_cap(sdn, &reduced, self.k) {
                    self.pending.remove(&id);
                    self.commit(sdn, reduced, tree)
                        .expect("invariant: a degraded tree fits the residual"); // lint:allow(P1): the degraded tree was planned on this exact residual
                    telemetry::hit(telemetry::Counter::RepairDegraded);
                    telemetry::observe(telemetry::Hist::FailoverPlanEvents, 2);
                    telemetry::record(telemetry::Event::SessionDegraded {
                        request: id.0,
                        shed_terminals: shed as u64,
                    });
                    report.degraded.push((id, shed));
                    continue;
                }
            }

            let entry = self
                .pending
                .get_mut(&id)
                .expect("invariant: unrepaired session is still pending"); // lint:allow(P1): id was inserted into pending in the detach pass above
            entry.attempts += 1;
            if entry.attempts >= REPAIR_ATTEMPTS {
                self.pending.remove(&id);
                telemetry::hit(telemetry::Counter::RepairDropped);
                telemetry::record(telemetry::Event::SessionDropped { request: id.0 });
                report.dropped.push(id);
            } else {
                telemetry::hit(telemetry::Counter::RepairDeferred);
                telemetry::record(telemetry::Event::SessionDeferred { request: id.0 });
                report.deferred.push(id);
            }
        }
        // Every restored session lost its backups when it broke (or never
        // had any); re-protect so the next failure can swap again.
        if self.backup_policy.is_some() {
            let restored: BTreeSet<RequestId> = report
                .swapped
                .iter()
                .chain(report.repaired.iter())
                .chain(report.degraded.iter().map(|(id, _)| id))
                .copied()
                .collect();
            for id in restored {
                let _ = self.protect(sdn, id);
            }
        }
        telemetry::gauge_set(telemetry::Gauge::PendingRepairs, self.pending.len() as u64);
        report
    }

    pub(crate) fn index(&mut self, id: RequestId, allocation: &Allocation) {
        for (e, _) in allocation.links() {
            self.link_members.entry(e).or_default().insert(id);
        }
        for (v, _) in allocation.servers() {
            self.server_members.entry(v).or_default().insert(id);
        }
    }

    pub(crate) fn unindex(&mut self, id: RequestId, allocation: &Allocation) {
        for (e, _) in allocation.links() {
            if let Some(members) = self.link_members.get_mut(&e) {
                members.remove(&id);
                if members.is_empty() {
                    self.link_members.remove(&e);
                }
            }
        }
        for (v, _) in allocation.servers() {
            if let Some(members) = self.server_members.get_mut(&v) {
                members.remove(&id);
                if members.is_empty() {
                    self.server_members.remove(&v);
                }
            }
        }
    }
}

/// The sub-request keeping only destinations still connected to the
/// source through links that fit `b` ([`Sdn::link_fits`]). Returns `None`
/// when nothing would be shed (degradation cannot help) or when no
/// destination survives.
fn reachable_subrequest(sdn: &Sdn, request: &MulticastRequest) -> Option<MulticastRequest> {
    let g = sdn.graph();
    let mut uf = UnionFind::new(g.node_count());
    for e in g.edges() {
        if sdn.link_fits(e.id, request.bandwidth) {
            uf.union(e.u.index(), e.v.index());
        }
    }
    let reachable: Vec<NodeId> = request
        .destinations
        .iter()
        .copied()
        .filter(|d| uf.connected(request.source.index(), d.index()))
        .collect();
    if reachable.is_empty() || reachable.len() == request.destinations.len() {
        return None;
    }
    MulticastRequest::try_new(
        request.id,
        request.source,
        reachable,
        request.bandwidth,
        request.chain.clone(),
    )
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn::{NfvType, SdnBuilder, ServiceChain};

    fn chain() -> ServiceChain {
        ServiceChain::new(vec![NfvType::Firewall])
    }

    /// s - m1(server) - d with an alternative longer route s - a - m2 - d,
    /// plus a spur d - x reaching a second destination.
    fn fixture() -> (Sdn, Vec<NodeId>, Vec<EdgeId>) {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let m1 = bld.add_server(1_000.0, 1.0);
        let a = bld.add_switch();
        let m2 = bld.add_server(1_000.0, 1.0);
        let d = bld.add_switch();
        let x = bld.add_switch();
        let e0 = bld.add_link(s, m1, 1_000.0, 1.0).unwrap();
        let e1 = bld.add_link(m1, d, 1_000.0, 1.0).unwrap();
        let e2 = bld.add_link(s, a, 1_000.0, 2.0).unwrap();
        let e3 = bld.add_link(a, m2, 1_000.0, 2.0).unwrap();
        let e4 = bld.add_link(m2, d, 1_000.0, 2.0).unwrap();
        let e5 = bld.add_link(d, x, 1_000.0, 1.0).unwrap();
        (
            bld.build().unwrap(),
            vec![s, m1, a, m2, d, x],
            vec![e0, e1, e2, e3, e4, e5],
        )
    }

    fn req(v: &[NodeId], id: u64, dests: Vec<NodeId>) -> MulticastRequest {
        MulticastRequest::new(RequestId(id), v[0], dests, 100.0, chain())
    }

    #[test]
    fn repair_reroutes_a_broken_session() {
        let (mut sdn, v, e) = fixture();
        let mut mgr = SessionManager::new(1);
        let r = req(&v, 0, vec![v[4]]);
        assert!(mgr.admit(&mut sdn, &r).unwrap());
        assert_eq!(
            mgr.session(RequestId(0))
                .unwrap()
                .payload
                .tree
                .servers_used(),
            vec![v[1]]
        );

        sdn.fail_link(e[1]).unwrap();
        let report = mgr.repair(&mut sdn);
        assert_eq!(report.broken, vec![RequestId(0)]);
        assert_eq!(report.repaired, vec![RequestId(0)]);
        assert!(report.dropped.is_empty());
        // Rerouted via m2, and the membership index moved with it.
        let s = mgr.session(RequestId(0)).unwrap();
        assert_eq!(s.payload.tree.servers_used(), vec![v[3]]);
        assert_eq!(mgr.broken_sessions(&sdn), Vec::<RequestId>::new());
    }

    #[test]
    fn repair_is_a_no_op_without_failures() {
        let (mut sdn, v, _) = fixture();
        let mut mgr = SessionManager::new(1);
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4]])).unwrap());
        let before = sdn.clone();
        let report = mgr.repair(&mut sdn);
        assert_eq!(report, RepairReport::default());
        assert_eq!(sdn, before);
    }

    #[test]
    fn attempts_run_out_on_the_third_repair() {
        let (mut sdn, v, e) = fixture();
        let mut mgr = SessionManager::new(1);
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4]])).unwrap());
        // Cut both routes into d: every replan fails, and with a single
        // destination there is nothing to degrade to.
        sdn.fail_link(e[1]).unwrap();
        sdn.fail_link(e[4]).unwrap();
        for call in 1..=2 {
            let report = mgr.repair(&mut sdn);
            assert_eq!(report.deferred, vec![RequestId(0)], "call {call}");
            assert!(report.dropped.is_empty(), "call {call}");
            assert_eq!(report.plan_events, 1, "call {call}");
            assert_eq!(mgr.pending_repairs(), vec![RequestId(0)]);
        }
        let report = mgr.repair(&mut sdn);
        assert!(report.deferred.is_empty());
        assert_eq!(report.dropped, vec![RequestId(0)]);
        assert_eq!(report.plan_events, 1);
        assert!(mgr.pending_repairs().is_empty());
        assert!(mgr.is_empty());
        // The dropped session's hold was released with it.
        assert_eq!(sdn.residual_bandwidth(e[0]), sdn.bandwidth_capacity(e[0]));
    }

    #[test]
    fn degrade_sheds_only_unreachable_destinations() {
        let (mut sdn, v, e) = fixture();
        let mut mgr = SessionManager::new(1);
        // Two destinations: d (v[4]) and the spur x (v[5]).
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4], v[5]])).unwrap());
        // Cut the spur: x becomes unreachable, d is still fine.
        sdn.fail_link(e[5]).unwrap();
        let report = mgr.repair(&mut sdn);
        assert_eq!(report.degraded, vec![(RequestId(0), 1)]);
        let s = mgr.session(RequestId(0)).unwrap();
        assert_eq!(s.payload.request.destinations, vec![v[4]]);
        s.payload.tree.validate(&sdn, &s.payload.request).unwrap();
    }

    #[test]
    fn pending_session_retries_after_recovery() {
        let (mut sdn, v, e) = fixture();
        let mut mgr = SessionManager::new(1);
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4]])).unwrap());
        // Cut both routes into d: no replan can succeed yet.
        sdn.fail_link(e[1]).unwrap();
        sdn.fail_link(e[4]).unwrap();
        let report = mgr.repair(&mut sdn);
        assert_eq!(report.deferred, vec![RequestId(0)]);
        assert_eq!(mgr.pending_repairs(), vec![RequestId(0)]);
        // A recovery event restores the cheap route; the next repair call
        // heals the deferred session.
        sdn.recover_link(e[1]).unwrap();
        let report = mgr.repair(&mut sdn);
        assert_eq!(report.repaired, vec![RequestId(0)]);
        assert!(mgr.pending_repairs().is_empty());
    }

    #[test]
    fn depart_guards_against_double_release() {
        let (mut sdn, v, e) = fixture();
        let mut mgr = SessionManager::new(1);
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4]])).unwrap());
        assert_eq!(mgr.depart(&mut sdn, RequestId(0)), Departure::Released);
        // Second departure for the same id: guarded no-op.
        assert_eq!(mgr.depart(&mut sdn, RequestId(0)), Departure::Unknown);
        assert_eq!(mgr.double_release_count(), 1);
        assert_eq!(sdn.residual_bandwidth(e[0]), sdn.bandwidth_capacity(e[0]));
        // Departing a session the repair engine dropped is also a no-op.
        assert!(mgr.admit(&mut sdn, &req(&v, 1, vec![v[4]])).unwrap());
        sdn.fail_link(e[1]).unwrap();
        sdn.fail_link(e[4]).unwrap();
        for _ in 1..REPAIR_ATTEMPTS {
            assert_eq!(mgr.repair(&mut sdn).deferred, vec![RequestId(1)]);
        }
        assert_eq!(mgr.repair(&mut sdn).dropped, vec![RequestId(1)]);
        assert_eq!(mgr.depart(&mut sdn, RequestId(1)), Departure::Unknown);
        assert_eq!(mgr.double_release_count(), 2);
    }

    #[test]
    fn depart_cancels_a_pending_repair() {
        let (mut sdn, v, e) = fixture();
        let mut mgr = SessionManager::new(1);
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4]])).unwrap());
        sdn.fail_link(e[1]).unwrap();
        sdn.fail_link(e[4]).unwrap();
        mgr.repair(&mut sdn);
        assert_eq!(mgr.pending_repairs(), vec![RequestId(0)]);
        assert_eq!(mgr.depart(&mut sdn, RequestId(0)), Departure::Cancelled);
        assert!(mgr.pending_repairs().is_empty());
        assert_eq!(mgr.double_release_count(), 0);
    }

    #[test]
    fn departed_pending_session_is_never_replanned_after_recovery() {
        let (mut sdn, v, e) = fixture();
        let fresh = sdn.clone();
        let mut mgr = SessionManager::new(1);
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4]])).unwrap());
        // Break the session beyond repair, leaving it pending.
        sdn.fail_link(e[1]).unwrap();
        sdn.fail_link(e[4]).unwrap();
        mgr.repair(&mut sdn);
        assert_eq!(mgr.pending_repairs(), vec![RequestId(0)]);
        // The user departs while the session awaits repair.
        assert_eq!(mgr.depart(&mut sdn, RequestId(0)), Departure::Cancelled);
        // Capacity comes back — the repair pass must not resurrect the
        // departed session.
        sdn.recover_link(e[1]).unwrap();
        sdn.recover_link(e[4]).unwrap();
        let report = mgr.repair(&mut sdn);
        assert_eq!(report, RepairReport::default());
        assert!(mgr.is_empty());
        assert!(mgr.pending_repairs().is_empty());
        assert_eq!(sdn, fresh);
    }

    #[test]
    fn duplicate_commit_is_rejected() {
        let (mut sdn, v, _) = fixture();
        let mut mgr = SessionManager::new(1);
        let r = req(&v, 0, vec![v[4]]);
        assert!(mgr.admit(&mut sdn, &r).unwrap());
        let err = mgr.admit(&mut sdn, &r).unwrap_err();
        assert!(matches!(err, SdnError::InfeasibleRequest { .. }));
    }
}
