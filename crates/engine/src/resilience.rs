//! Proactive fault tolerance: precomputed backup trees and live
//! join/leave grafting for committed sessions.
//!
//! Reactive repair ([`SessionManager::repair`]) replans a broken session
//! from scratch — correct, but the planner invocation *is* the failover
//! latency. SDN-ResilientMulticast-style protection moves that work to
//! admission time: [`SessionManager::protect`] precomputes, for each of
//! the two most-loaded links of a session's tree, an alternate
//! pseudo-multicast tree on the link-excluded alive subgraph
//! ([`nfv_multicast::appro_multi_cap_plan_excluding`]). When a failure
//! breaks the session, `repair` swaps to the first precomputed tree that
//! avoids every dead element and still fits — an O(commit) restore with
//! zero planner invocations — and only falls back to the reactive replan
//! queue when no backup covers the failure.
//!
//! Backups are on for a manager built with
//! [`SessionManager::with_backups`], under one of two capacity
//! disciplines ([`BackupPolicy`]):
//!
//! * **`Reserved`** — the backup's allocation is charged to the ledger at
//!   protect time, so the swap can never fail a capacity check. The
//!   standing cost is the reserved bandwidth (tracked by the
//!   `reserved_backup_bandwidth` gauge) crowding out admissions.
//! * **`BestEffort`** — the backup is planned on a *post-release view*
//!   (the session's own allocation removed), i.e. exactly the state a
//!   reactive replan would see if the network is otherwise unchanged, and
//!   holds no capacity. The swap re-checks fit at failover time and may
//!   miss if later admissions consumed the slack. When nothing else
//!   changed between protect and failure, the swapped tree is
//!   byte-identical to what a reactive replan would have produced — the
//!   property `tests/tests/resilience_properties.rs` pins.
//!
//! **Dynamic membership**: [`SessionManager::graft`] attaches a new
//! destination via its cheapest alive path from the existing tree
//! ([`steiner::join`] — one Dijkstra, not a re-solve), and
//! [`SessionManager::prune`] detaches one by leaf-pruning the
//! distribution structure with exact residual release. Both accumulate
//! *drift* — the cost added/removed relative to the session's last full
//! plan. On a manager with backups, once drift exceeds 30% of the
//! current tree cost, the session is transparently re-optimized with a
//! fresh `Appro_Multi_Cap` plan (keeping the drifted tree if the fresh
//! plan no longer fits the fragmented residual).
//!
//! Every path keeps the [`audit`](mod@crate::audit) invariants green: reserved
//! backup capacity is part of the auditor's expected load, grafts/prunes
//! rewrite the ledger release-then-allocate on allocations that fit by
//! construction, and all iteration is BTree-ordered so decisions are
//! byte-reproducible.

use crate::repair::{CommittedSession, SessionManager};
use netgraph::{EdgeId, NodeId};
use nfv_multicast::{
    appro_multi_cap, appro_multi_cap_plan_excluding, Admission, CapPlan, PseudoMulticastTree,
};
use sdn::{Allocation, FeasibleGraph, MulticastRequest, RequestId, Sdn};
use std::collections::BTreeSet;

/// Capacity discipline for precomputed backup trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackupPolicy {
    /// Backup allocations are charged to the ledger at protect time; the
    /// swap never fails a capacity check, at the cost of standing
    /// reserved bandwidth.
    Reserved,
    /// Backups are planned on the session's post-release view and hold no
    /// capacity; the swap re-checks fit at failover time.
    BestEffort,
}

// `results/chaos.json` was generated with these two values (and with the
// repair attempt budget in `repair`).
/// How many of a session's most-loaded links get a backup tree each.
const PROTECTED_LINKS: usize = 2;
/// Re-optimize a session once its graft/prune drift exceeds this
/// fraction of its current tree cost.
const DRIFT_BOUND: f64 = 0.3;

/// A precomputed alternate tree protecting one link of a session's
/// primary tree.
#[derive(Debug, Clone, PartialEq)]
pub struct BackupTree {
    /// The primary-tree link whose failure this backup covers (the
    /// backup's plan excluded it).
    pub protected: EdgeId,
    /// The alternate pseudo-multicast tree.
    pub tree: PseudoMulticastTree,
    /// The allocation the swap will charge (precomputed once).
    pub allocation: Allocation,
    /// Whether `allocation` is currently charged to the ledger
    /// ([`BackupPolicy::Reserved`]).
    pub reserved: bool,
}

/// Outcome of [`SessionManager::graft`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraftOutcome {
    /// The destination was attached.
    Grafted {
        /// Bandwidth cost added to the session's tree (0 when the new
        /// destination was already covered by the existing structure).
        attach_cost: f64,
        /// Distribution edges added.
        attach_edges: usize,
    },
    /// The node already receives the session (source or existing
    /// destination); nothing changed.
    AlreadyMember,
    /// No alive path with enough residual bandwidth connects the node to
    /// the session's tree; nothing changed.
    Unreachable,
    /// The session id is not committed; nothing changed.
    UnknownSession,
}

/// Outcome of [`SessionManager::prune`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruneOutcome {
    /// The destination was detached and its exclusive tree segments
    /// released.
    Pruned {
        /// Bandwidth cost released back to the network.
        released_cost: f64,
        /// Distribution-edge instances removed.
        removed_edges: usize,
    },
    /// The node is not a destination of the session; nothing changed.
    NotAMember,
    /// The node is the session's last destination — depart the session
    /// instead of pruning it empty; nothing changed.
    LastDestination,
    /// The session id is not committed; nothing changed.
    UnknownSession,
}

impl SessionManager {
    /// An empty manager that plans with server budget `k`, keeps backup
    /// trees under `policy` for the sessions it [`protect`](Self::protect)s,
    /// and re-optimizes sessions that grafts and prunes drift too far.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn with_backups(k: usize, policy: BackupPolicy) -> Self {
        let mut mgr = SessionManager::new(k);
        mgr.backup_policy = Some(policy);
        mgr
    }

    /// The precomputed backup trees currently held for `id`, in ascending
    /// protected-link order (the failover preference order).
    #[must_use]
    pub fn session_backups(&self, id: RequestId) -> &[BackupTree] {
        self.backups.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Every reserved backup allocation currently charged to the ledger,
    /// in ascending (session, protected-link) order. The auditor folds
    /// these into its expected load.
    pub fn backup_reservations(&self) -> impl Iterator<Item = &Allocation> {
        self.backups
            .values()
            .flatten()
            .filter(|b| b.reserved)
            .map(|b| &b.allocation)
    }

    /// Total bandwidth currently held by reserved backup trees — the
    /// standing capacity overhead of proactive protection.
    #[must_use]
    pub fn reserved_backup_bandwidth(&self) -> f64 {
        self.backup_reservations()
            .map(Allocation::total_bandwidth)
            .sum()
    }

    /// The accumulated graft/prune drift of session `id` (0 when never
    /// grafted or freshly re-planned).
    #[must_use]
    pub fn session_drift(&self, id: RequestId) -> f64 {
        self.drift.get(&id).copied().unwrap_or(0.0)
    }

    /// Precomputes backup trees for the committed session `id`: one for
    /// each of the two most-loaded links of its tree (load ties broken by
    /// ascending link id), each planned on the link-excluded alive
    /// subgraph. Under
    /// [`BackupPolicy::Reserved`] each backup's allocation is charged to
    /// the ledger immediately, and the newly charged reservations are
    /// returned. Existing backups for `id` are discarded first.
    ///
    /// A no-op (returning no reservations) for a manager without backups
    /// or when `id` is not committed. Links for which no feasible
    /// alternate tree exists simply get no backup.
    // lint:entry(api)
    pub fn protect(&mut self, sdn: &mut Sdn, id: RequestId) -> Vec<Allocation> {
        let Some(policy) = self.backup_policy else {
            return Vec::new();
        };
        let Some(s) = self.sessions.get(id) else {
            return Vec::new();
        };
        let request = s.payload.request.clone();
        let primary = s.allocation.clone();
        self.discard_backups(sdn, id);

        let mut loaded: Vec<(EdgeId, f64)> = primary.links().collect();
        loaded.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        loaded.truncate(PROTECTED_LINKS);

        let mut planned: Vec<BackupTree> = Vec::new();
        let mut charged: Vec<Allocation> = Vec::new();
        match policy {
            BackupPolicy::BestEffort => {
                // Plan on the post-release view: with the primary's own
                // hold removed, this is the exact state a reactive replan
                // would see right after the failure releases the session
                // (assuming nothing else changed). Best-effort backups
                // charge nothing, so one view serves every protected link.
                let mut view = sdn.clone();
                view.release(&primary)
                    .expect("a committed allocation releases from its own clone"); // lint:allow(P1): primary was applied to sdn, so the clone balances
                for (link, _) in loaded {
                    let excluded: BTreeSet<EdgeId> = [link].into_iter().collect();
                    if let Admission::Admitted(tree) =
                        appro_multi_cap_plan_excluding(&view, &request, self.k, &excluded)
                            .admit(&view, &request)
                    {
                        let allocation = tree.allocation(&request);
                        planned.push(BackupTree {
                            protected: link,
                            tree,
                            allocation,
                            reserved: false,
                        });
                    }
                }
            }
            BackupPolicy::Reserved => {
                // Plan on the live state — the reservation must coexist
                // with the primary allocation.
                for (link, _) in loaded {
                    let excluded: BTreeSet<EdgeId> = [link].into_iter().collect();
                    let plan = appro_multi_cap_plan_excluding(sdn, &request, self.k, &excluded);
                    if let CapPlan::Tree(tree) = plan {
                        let allocation = tree.allocation(&request);
                        if sdn.can_allocate(&allocation) {
                            sdn.allocate(&allocation)
                                .expect("fit was checked by can_allocate"); // lint:allow(P1): guarded by the can_allocate check above
                            charged.push(allocation.clone());
                            planned.push(BackupTree {
                                protected: link,
                                tree,
                                allocation,
                                reserved: true,
                            });
                        }
                    }
                }
            }
        }
        telemetry::add(telemetry::Counter::BackupPlanned, planned.len() as u64);
        if !planned.is_empty() {
            planned.sort_by_key(|b| b.protected);
            self.backups.insert(id, planned);
        }
        self.update_reserved_gauge();
        charged
    }

    /// Drops every backup held for `id`, releasing reserved capacity.
    pub(crate) fn discard_backups(&mut self, sdn: &mut Sdn, id: RequestId) {
        let Some(backups) = self.backups.remove(&id) else {
            return;
        };
        telemetry::add(telemetry::Counter::BackupDiscarded, backups.len() as u64);
        for b in backups.iter().filter(|b| b.reserved) {
            sdn.release(&b.allocation)
                .expect("a charged reservation releases cleanly"); // lint:allow(P1): the reservation was applied at protect time, so release balances
        }
        self.update_reserved_gauge();
    }

    pub(crate) fn update_reserved_gauge(&self) {
        telemetry::gauge_set(
            telemetry::Gauge::ReservedBackupBandwidth,
            self.reserved_backup_bandwidth().round() as u64,
        );
    }

    /// Attaches destination `v` to the committed session `id` via its
    /// cheapest alive path from the existing tree (dynamic-Steiner join:
    /// one Dijkstra, no re-solve). The session's request, tree, and
    /// ledger allocation are updated in place; its backups are discarded
    /// (they covered the old destination set); accumulated drift grows by
    /// the attach cost and, on a manager with backups, may trigger a
    /// transparent re-optimization.
    // lint:entry(api)
    pub fn graft(&mut self, sdn: &mut Sdn, id: RequestId, v: NodeId) -> GraftOutcome {
        let Some(s) = self.sessions.get(id) else {
            return GraftOutcome::UnknownSession;
        };
        let (request, tree) = (&s.payload.request, &s.payload.tree);
        if v == request.source || request.destinations.contains(&v) {
            return GraftOutcome::AlreadyMember;
        }
        let g = sdn.graph();
        if !g.contains_node(v) {
            return GraftOutcome::Unreachable;
        }
        // Nodes already on the delivery structure: servers plus every
        // endpoint of the distribution/extra edges. (Ingress-path interior
        // nodes carry only the unprocessed stream and are *not* covered.)
        let mut covered: BTreeSet<NodeId> = tree.servers.iter().map(|su| su.server).collect();
        for &e in tree.distribution_edges.iter().chain(&tree.extra_traversals) {
            let er = g.edge(e);
            covered.insert(er.u);
            covered.insert(er.v);
        }
        let b = request.bandwidth;
        let request = request.clone();
        let old_alloc = s.allocation.clone();
        let mut tree = tree.clone();

        let (attach_cost, attach_edges);
        if covered.contains(&v) {
            // Free graft: the structure already delivers to v.
            attach_cost = 0.0;
            attach_edges = 0;
        } else {
            // Cheapest attach on the alive subgraph with one more unit of
            // headroom per edge (the path may re-traverse edges the
            // session already charges — ingress overlap — and each new
            // distribution instance costs another b).
            let feasible = FeasibleGraph::new(sdn, b, |e| Some(sdn.unit_bandwidth_cost(e)));
            let tree_nodes: Vec<NodeId> = covered.iter().copied().collect();
            let Some(path) = steiner::join(feasible.graph(), &tree_nodes, v) else {
                return GraftOutcome::Unreachable;
            };
            let new_edges: Vec<EdgeId> = path
                .edges()
                .iter()
                .map(|&e| feasible.parent_edge(e))
                .collect();
            debug_assert!(
                new_edges
                    .iter()
                    .all(|e| !tree.distribution_edges.contains(e)
                        && !tree.extra_traversals.contains(e)),
                "an attach path stops at the first covered node, so it \
                 cannot duplicate a distribution edge"
            );
            attach_cost = path.cost() * b;
            attach_edges = new_edges.len();
            tree.distribution_edges.extend(new_edges);
            tree.bandwidth_cost += attach_cost;
        }

        let mut dests = request.destinations.clone();
        dests.push(v);
        let Ok(new_request) = MulticastRequest::try_new(
            id,
            request.source,
            dests,
            request.bandwidth,
            request.chain.clone(),
        ) else {
            return GraftOutcome::Unreachable;
        };

        if attach_edges > 0 {
            let new_alloc = tree.allocation(&new_request);
            sdn.release(&old_alloc)
                .expect("a committed allocation releases cleanly"); // lint:allow(P1): the allocation was applied at commit, so release balances
            sdn.allocate(&new_alloc)
                .expect("the attach path was planned on exactly these residuals"); // lint:allow(P1): every new edge passed the residual-headroom filter above
            self.unindex(id, &old_alloc);
            self.index(id, &new_alloc);
            if let Some(sess) = self.sessions.get_mut(id) {
                sess.payload = CommittedSession {
                    request: new_request,
                    tree,
                };
                sess.allocation = new_alloc;
            }
        } else if let Some(sess) = self.sessions.get_mut(id) {
            // Allocation unchanged; only the request grows.
            sess.payload.request = new_request;
        }

        *self.drift.entry(id).or_insert(0.0) += attach_cost;
        // Backups were planned for the old destination set; a swap to one
        // of them could strand the new destination.
        self.discard_backups(sdn, id);
        telemetry::hit(telemetry::Counter::Grafts);
        telemetry::observe(telemetry::Hist::GraftAttachEdges, attach_edges as u64);
        telemetry::record(telemetry::Event::SessionGrafted {
            request: id.0,
            destination: v.index() as u64,
        });
        self.maybe_reoptimize(sdn, id);
        GraftOutcome::Grafted {
            attach_cost,
            attach_edges,
        }
    }

    /// Detaches destination `v` from the committed session `id`,
    /// leaf-pruning the distribution structure down to the segments the
    /// remaining destinations and servers still need and releasing the
    /// freed bandwidth exactly. Server placements (and their computing
    /// hold) are kept until the next re-optimization.
    // lint:entry(api)
    pub fn prune(&mut self, sdn: &mut Sdn, id: RequestId, v: NodeId) -> PruneOutcome {
        let Some(s) = self.sessions.get(id) else {
            return PruneOutcome::UnknownSession;
        };
        if !s.payload.request.destinations.contains(&v) {
            return PruneOutcome::NotAMember;
        }
        if s.payload.request.destinations.len() == 1 {
            return PruneOutcome::LastDestination;
        }
        let g = sdn.graph();
        let request = s.payload.request.clone();
        let old_alloc = s.allocation.clone();
        let mut tree = s.payload.tree.clone();
        let b = request.bandwidth;

        // Keep set: servers plus the surviving destinations. Everything
        // else may be leaf-pruned off the instance multigraph of
        // distribution + extra-traversal edges.
        let mut keep: BTreeSet<NodeId> = tree.servers.iter().map(|su| su.server).collect();
        keep.extend(request.destinations.iter().copied().filter(|&d| d != v));

        // (edge, is_extra) instances, pruned round by round: each round
        // removes every instance incident to a degree-1 node outside the
        // keep set, deterministically (BTree node order).
        let mut instances: Vec<(EdgeId, bool)> = tree
            .distribution_edges
            .iter()
            .map(|&e| (e, false))
            .chain(tree.extra_traversals.iter().map(|&e| (e, true)))
            .collect();
        let mut removed: Vec<EdgeId> = Vec::new();
        loop {
            let mut degree: std::collections::BTreeMap<NodeId, usize> =
                std::collections::BTreeMap::new();
            for &(e, _) in &instances {
                let er = g.edge(e);
                *degree.entry(er.u).or_insert(0) += 1;
                *degree.entry(er.v).or_insert(0) += 1;
            }
            let leaves: BTreeSet<NodeId> = degree
                .iter()
                .filter(|&(n, &d)| d == 1 && !keep.contains(n))
                .map(|(&n, _)| n)
                .collect();
            if leaves.is_empty() {
                break;
            }
            instances.retain(|&(e, _)| {
                let er = g.edge(e);
                let cut = leaves.contains(&er.u) || leaves.contains(&er.v);
                if cut {
                    removed.push(e);
                }
                !cut
            });
        }

        let removed_edges = removed.len();
        let released_cost: f64 = removed
            .iter()
            .map(|&e| sdn.unit_bandwidth_cost(e) * b)
            .sum();
        tree.distribution_edges = instances
            .iter()
            .filter(|&&(_, extra)| !extra)
            .map(|&(e, _)| e)
            .collect();
        tree.extra_traversals = instances
            .iter()
            .filter(|&&(_, extra)| extra)
            .map(|&(e, _)| e)
            .collect();
        tree.bandwidth_cost -= released_cost;

        let dests: Vec<NodeId> = request
            .destinations
            .iter()
            .copied()
            .filter(|&d| d != v)
            .collect();
        let new_request = MulticastRequest::try_new(
            id,
            request.source,
            dests,
            request.bandwidth,
            request.chain.clone(),
        )
        .expect("at least one destination survives the prune"); // lint:allow(P1): the LastDestination guard above keeps dests non-empty

        let new_alloc = tree.allocation(&new_request);
        sdn.release(&old_alloc)
            .expect("a committed allocation releases cleanly"); // lint:allow(P1): the allocation was applied at commit, so release balances
        sdn.allocate(&new_alloc)
            .expect("the pruned allocation is a subset of the released one"); // lint:allow(P1): pruning only removes edge instances, never adds load
        self.unindex(id, &old_alloc);
        self.index(id, &new_alloc);
        if let Some(sess) = self.sessions.get_mut(id) {
            sess.payload = CommittedSession {
                request: new_request,
                tree,
            };
            sess.allocation = new_alloc;
        }

        *self.drift.entry(id).or_insert(0.0) += released_cost;
        self.discard_backups(sdn, id);
        telemetry::hit(telemetry::Counter::Prunes);
        telemetry::record(telemetry::Event::SessionPruned {
            request: id.0,
            destination: v.index() as u64,
        });
        self.maybe_reoptimize(sdn, id);
        PruneOutcome::Pruned {
            released_cost,
            removed_edges,
        }
    }

    /// Re-optimizes session `id` from scratch when the manager keeps
    /// backups and the session's accumulated drift exceeds
    /// [`DRIFT_BOUND`] of its current tree cost. Keeps the drifted tree
    /// when a fresh plan no longer fits the fragmented residual; resets
    /// drift either way (no thrashing). Returns whether a fresh plan was
    /// committed.
    pub(crate) fn maybe_reoptimize(&mut self, sdn: &mut Sdn, id: RequestId) -> bool {
        if self.backup_policy.is_none() {
            return false;
        }
        let Some(s) = self.sessions.get(id) else {
            return false;
        };
        let drift = self.drift.get(&id).copied().unwrap_or(0.0);
        let cost = s.payload.tree.total_cost();
        let ratio_pct = if cost > 0.0 {
            (drift / cost * 100.0).round() as u64
        } else {
            0
        };
        telemetry::observe(telemetry::Hist::DriftRatioPct, ratio_pct);
        if drift <= DRIFT_BOUND * cost {
            return false;
        }

        let s = self
            .sessions
            .detach(sdn, id)
            .expect("checked committed just above"); // lint:allow(P1): the session was fetched two statements earlier
        self.unindex(id, &s.allocation);
        self.drift.remove(&id);
        self.discard_backups(sdn, id);
        let CommittedSession {
            request,
            tree: old_tree,
        } = s.payload;
        match appro_multi_cap(sdn, &request, self.k) {
            Admission::Admitted(tree) => {
                self.commit(sdn, request, tree)
                    .expect("a fresh plan fits the residual it was planned on"); // lint:allow(P1): replanning ran on the exact residual being committed
                telemetry::hit(telemetry::Counter::Reoptimizations);
                telemetry::record(telemetry::Event::SessionReoptimized { request: id.0 });
                let _ = self.protect(sdn, id);
                true
            }
            Admission::Rejected => {
                // Fragmented capacity: the drifted tree is still the best
                // feasible implementation — recommit it unchanged.
                self.commit(sdn, request, old_tree)
                    .expect("the just-released tree refits its own hold"); // lint:allow(P1): the identical allocation was released one statement earlier
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn::{NfvType, SdnBuilder, ServiceChain};

    fn chain() -> ServiceChain {
        ServiceChain::new(vec![NfvType::Firewall])
    }

    /// s - m1(server) - d with an alternative longer route s - a - m2 - d,
    /// plus a spur d - x and a second spur x - y.
    fn fixture() -> (Sdn, Vec<NodeId>, Vec<EdgeId>) {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let m1 = bld.add_server(1_000.0, 1.0);
        let a = bld.add_switch();
        let m2 = bld.add_server(1_000.0, 1.0);
        let d = bld.add_switch();
        let x = bld.add_switch();
        let y = bld.add_switch();
        let e0 = bld.add_link(s, m1, 1_000.0, 1.0).unwrap();
        let e1 = bld.add_link(m1, d, 1_000.0, 1.0).unwrap();
        let e2 = bld.add_link(s, a, 1_000.0, 2.0).unwrap();
        let e3 = bld.add_link(a, m2, 1_000.0, 2.0).unwrap();
        let e4 = bld.add_link(m2, d, 1_000.0, 2.0).unwrap();
        let e5 = bld.add_link(d, x, 1_000.0, 1.0).unwrap();
        let e6 = bld.add_link(x, y, 1_000.0, 1.0).unwrap();
        (
            bld.build().unwrap(),
            vec![s, m1, a, m2, d, x, y],
            vec![e0, e1, e2, e3, e4, e5, e6],
        )
    }

    fn req(v: &[NodeId], id: u64, dests: Vec<NodeId>) -> MulticastRequest {
        MulticastRequest::new(RequestId(id), v[0], dests, 100.0, chain())
    }

    fn audit(sdn: &Sdn, mgr: &SessionManager) {
        crate::audit::audit(sdn, mgr.sessions(), mgr.backup_reservations()).unwrap();
    }

    #[test]
    fn protect_plans_a_backup_and_repair_swaps_to_it() {
        for policy in [BackupPolicy::BestEffort, BackupPolicy::Reserved] {
            let (mut sdn, v, e) = fixture();
            let mut mgr = SessionManager::with_backups(1, policy);
            let r = req(&v, 0, vec![v[4]]);
            assert!(mgr.admit(&mut sdn, &r).unwrap());
            let charged = mgr.protect(&mut sdn, RequestId(0));
            assert!(!mgr.session_backups(RequestId(0)).is_empty());
            if policy == BackupPolicy::Reserved {
                assert!(!charged.is_empty());
                assert!(mgr.reserved_backup_bandwidth() > 0.0);
            } else {
                assert!(charged.is_empty());
                assert_eq!(mgr.reserved_backup_bandwidth(), 0.0);
            }
            audit(&sdn, &mgr);

            // Fail the protected cheap link: the repair must swap, not
            // replan.
            sdn.fail_link(e[1]).unwrap();
            let report = mgr.repair(&mut sdn);
            assert_eq!(report.swapped, vec![RequestId(0)], "{policy:?}");
            assert!(report.repaired.is_empty());
            assert_eq!(report.plan_events, 0, "a swap needs no planner");
            let s = mgr.session(RequestId(0)).unwrap();
            assert_eq!(s.payload.tree.servers_used(), vec![v[3]]);
            audit(&sdn, &mgr);
        }
    }

    #[test]
    fn best_effort_swap_matches_the_reactive_replan() {
        let (mut sdn, v, e) = fixture();
        let mut proactive = SessionManager::with_backups(1, BackupPolicy::BestEffort);
        let mut reactive = SessionManager::new(1);
        let r = req(&v, 0, vec![v[4]]);
        let mut sdn2 = sdn.clone();
        assert!(proactive.admit(&mut sdn, &r).unwrap());
        proactive.protect(&mut sdn, RequestId(0));
        assert!(reactive.admit(&mut sdn2, &r).unwrap());

        sdn.fail_link(e[1]).unwrap();
        sdn2.fail_link(e[1]).unwrap();
        let rp = proactive.repair(&mut sdn);
        let rr = reactive.repair(&mut sdn2);
        assert_eq!(rp.swapped, vec![RequestId(0)]);
        assert_eq!(rr.repaired, vec![RequestId(0)]);
        // Identical restored tree => identical residual state.
        assert_eq!(
            proactive.session(RequestId(0)).unwrap().payload.tree,
            reactive.session(RequestId(0)).unwrap().payload.tree
        );
        assert_eq!(sdn, sdn2);
    }

    #[test]
    fn swap_falls_back_to_replan_when_the_backup_is_dead_too() {
        let (mut sdn, v, e) = fixture();
        let mut mgr = SessionManager::with_backups(1, BackupPolicy::BestEffort);
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4]])).unwrap());
        mgr.protect(&mut sdn, RequestId(0));
        // Both backups (protecting e0 and e1) detour via m2. Fail e1
        // *and* the detour's last hop: the backups are dead, reactive
        // replan must also fail, and the session defers.
        sdn.fail_link(e[1]).unwrap();
        sdn.fail_link(e[4]).unwrap();
        let report = mgr.repair(&mut sdn);
        assert!(report.swapped.is_empty());
        assert_eq!(report.deferred, vec![RequestId(0)]);
        assert!(report.plan_events > 0);
        audit(&sdn, &mgr);
        // Recovery heals it through the pending queue, and the restored
        // session is re-protected (both routes are back, so an alternate
        // tree exists again).
        sdn.recover_link(e[1]).unwrap();
        sdn.recover_link(e[4]).unwrap();
        let report = mgr.repair(&mut sdn);
        assert_eq!(report.repaired, vec![RequestId(0)]);
        assert!(!mgr.session_backups(RequestId(0)).is_empty());
        audit(&sdn, &mgr);
    }

    #[test]
    fn reserved_depart_releases_the_reservation() {
        let (mut sdn, v, _) = fixture();
        let fresh = sdn.clone();
        let mut mgr = SessionManager::with_backups(1, BackupPolicy::Reserved);
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4]])).unwrap());
        mgr.protect(&mut sdn, RequestId(0));
        assert!(mgr.reserved_backup_bandwidth() > 0.0);
        audit(&sdn, &mgr);
        mgr.depart(&mut sdn, RequestId(0));
        assert_eq!(mgr.reserved_backup_bandwidth(), 0.0);
        audit(&sdn, &mgr);
        sdn.reset();
        assert_eq!(sdn, fresh);
    }

    #[test]
    fn graft_attaches_via_the_cheapest_alive_path() {
        let (mut sdn, v, e) = fixture();
        // No backups, so no re-optimization: the grafted tree stays.
        let mut mgr = SessionManager::new(1);
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4]])).unwrap());
        // Graft y (two hops from d): the attach path is d-x-y.
        let out = mgr.graft(&mut sdn, RequestId(0), v[6]);
        let GraftOutcome::Grafted {
            attach_cost,
            attach_edges,
        } = out
        else {
            panic!("expected a graft, got {out:?}");
        };
        assert_eq!(attach_edges, 2);
        assert!((attach_cost - 2.0 * 100.0).abs() < 1e-9);
        let s = mgr.session(RequestId(0)).unwrap();
        assert_eq!(s.payload.request.destinations, vec![v[4], v[6]]);
        s.payload.tree.validate(&sdn, &s.payload.request).unwrap();
        assert!(s.payload.tree.distribution_edges.contains(&e[5]));
        assert!(s.payload.tree.distribution_edges.contains(&e[6]));
        assert!(mgr.session_drift(RequestId(0)) > 0.0);
        audit(&sdn, &mgr);
        // Idempotent: the node is now a member.
        assert_eq!(
            mgr.graft(&mut sdn, RequestId(0), v[6]),
            GraftOutcome::AlreadyMember
        );
        // A node already on the structure grafts for free.
        let out = mgr.graft(&mut sdn, RequestId(0), v[5]);
        assert_eq!(
            out,
            GraftOutcome::Grafted {
                attach_cost: 0.0,
                attach_edges: 0
            }
        );
        audit(&sdn, &mgr);
    }

    #[test]
    fn graft_reports_unreachable_nodes() {
        let (mut sdn, v, e) = fixture();
        let mut mgr = SessionManager::with_backups(1, BackupPolicy::BestEffort);
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4]])).unwrap());
        sdn.fail_link(e[5]).unwrap();
        assert_eq!(
            mgr.graft(&mut sdn, RequestId(0), v[6]),
            GraftOutcome::Unreachable
        );
        assert_eq!(
            mgr.graft(&mut sdn, RequestId(7), v[6]),
            GraftOutcome::UnknownSession
        );
        audit(&sdn, &mgr);
    }

    #[test]
    fn prune_releases_exactly_the_exclusive_segments() {
        let (mut sdn, v, e) = fixture();
        // No backups, so no re-optimization: the pruned tree stays.
        let mut mgr = SessionManager::new(1);
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4], v[6]])).unwrap());
        let before_x = sdn.residual_bandwidth(e[5]);
        let before_y = sdn.residual_bandwidth(e[6]);
        // Prune y: the spur x-y is released; d-x stays only if some
        // destination still needs it — d remains, x is just a relay, so
        // both spur links go.
        let out = mgr.prune(&mut sdn, RequestId(0), v[6]);
        let PruneOutcome::Pruned {
            released_cost,
            removed_edges,
        } = out
        else {
            panic!("expected a prune, got {out:?}");
        };
        assert_eq!(removed_edges, 2);
        assert!((released_cost - 2.0 * 100.0).abs() < 1e-9);
        assert_eq!(sdn.residual_bandwidth(e[5]), before_x + 100.0);
        assert_eq!(sdn.residual_bandwidth(e[6]), before_y + 100.0);
        let s = mgr.session(RequestId(0)).unwrap();
        assert_eq!(s.payload.request.destinations, vec![v[4]]);
        s.payload.tree.validate(&sdn, &s.payload.request).unwrap();
        audit(&sdn, &mgr);
        // Guards.
        assert_eq!(
            mgr.prune(&mut sdn, RequestId(0), v[6]),
            PruneOutcome::NotAMember
        );
        assert_eq!(
            mgr.prune(&mut sdn, RequestId(0), v[4]),
            PruneOutcome::LastDestination
        );
        assert_eq!(
            mgr.prune(&mut sdn, RequestId(9), v[4]),
            PruneOutcome::UnknownSession
        );
    }

    #[test]
    fn drift_past_the_bound_triggers_reoptimization() {
        let (mut sdn, v, _) = fixture();
        let mut mgr = SessionManager::with_backups(1, BackupPolicy::BestEffort);
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4]])).unwrap());
        let before = mgr.session(RequestId(0)).unwrap().payload.tree.total_cost();
        // Grafting y costs two hops (d-x-y), more than 30% of the grafted
        // tree's cost.
        let out = mgr.graft(&mut sdn, RequestId(0), v[6]);
        let GraftOutcome::Grafted { attach_cost, .. } = out else {
            panic!("expected a graft, got {out:?}");
        };
        assert!(
            attach_cost > DRIFT_BOUND * (before + attach_cost),
            "drift {attach_cost} must exceed {DRIFT_BOUND} of {}",
            before + attach_cost
        );
        // Re-optimization ran: drift is reset and the session matches a
        // fresh plan for the grown destination set.
        assert_eq!(mgr.session_drift(RequestId(0)), 0.0);
        let s = mgr.session(RequestId(0)).unwrap();
        let fresh = {
            let clean = fixture().0;
            let r = req(&v, 1, vec![v[4], v[6]]);
            match nfv_multicast::appro_multi_cap(&clean, &r, 1) {
                Admission::Admitted(tree) => tree.total_cost(),
                Admission::Rejected => panic!("a fresh plan fits an empty network"),
            }
        };
        assert!((s.payload.tree.total_cost() - fresh).abs() < 1e-9);
        audit(&sdn, &mgr);
    }

    #[test]
    fn full_lifecycle_round_trips_the_network() {
        let (mut sdn, v, e) = fixture();
        let fresh = sdn.clone();
        let mut mgr = SessionManager::with_backups(1, BackupPolicy::Reserved);
        assert!(mgr.admit(&mut sdn, &req(&v, 0, vec![v[4]])).unwrap());
        mgr.protect(&mut sdn, RequestId(0));
        mgr.graft(&mut sdn, RequestId(0), v[5]);
        mgr.graft(&mut sdn, RequestId(0), v[6]);
        mgr.protect(&mut sdn, RequestId(0));
        sdn.fail_link(e[1]).unwrap();
        mgr.repair(&mut sdn);
        audit(&sdn, &mgr);
        sdn.recover_link(e[1]).unwrap();
        mgr.prune(&mut sdn, RequestId(0), v[6]);
        audit(&sdn, &mgr);
        mgr.depart(&mut sdn, RequestId(0));
        audit(&sdn, &mgr);
        sdn.reset();
        assert_eq!(sdn, fresh);
    }
}
