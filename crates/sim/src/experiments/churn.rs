//! Membership churn under fire: live joins/leaves grafted onto running
//! sessions, interleaved with single-link failures, healed either
//! reactively (replan on failure) or proactively (precomputed backup-tree
//! swap), with the invariant auditor checking after **every** event.
//!
//! One deterministic timeline merges four event sources:
//!
//! * session arrivals (Poisson, exponential holding) and their
//!   pre-scheduled departures — the same shape the chaos replay uses,
//! * membership churn ([`workload::MembershipChurn`]): joins grafted via
//!   [`SessionManager::graft`], leaves pruned via
//!   [`SessionManager::prune`], landed round-robin on the live sessions,
//! * fault events: **fail-heaviest** (the alive link carrying the most
//!   load goes down — the worst single-link failure for the committed
//!   trees) alternating with **recover-oldest** once two links are down.
//!
//! The proactive and reactive replays consume byte-identical workloads,
//! so their outcome rows compare failover cost directly: `plan_events`
//! (planner invocations spent restoring sessions — the logical repair
//! latency) versus `backup_swaps` (O(commit) restores), plus the
//! standing reserved-bandwidth overhead the `Reserved` policy pays for
//! its zero-miss swaps.

use super::timeline::{session_timeline, settle, SessionEvent};
use crate::waxman_sdn;
use netgraph::EdgeId;
use nfv_engine::{audit, BackupPolicy, GraftOutcome, PruneOutcome, RepairReport, SessionManager};
use rand::Rng;
use sdn::{RequestId, Sdn};
use std::collections::{BTreeSet, VecDeque};
use workload::{ChurnAction, MembershipChurn};

/// Protection discipline of one churn replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnMode {
    /// No backups: failures are healed by reactive replanning only.
    Reactive,
    /// Backup trees precomputed at admission under the given policy.
    Proactive(BackupPolicy),
}

impl ChurnMode {
    /// Stable label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ChurnMode::Reactive => "reactive",
            ChurnMode::Proactive(BackupPolicy::BestEffort) => "proactive-best-effort",
            ChurnMode::Proactive(BackupPolicy::Reserved) => "proactive-reserved",
        }
    }
}

/// Knobs of one churn replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnParams {
    /// Switches in the Waxman topology.
    pub n: usize,
    /// Timed sessions offered.
    pub sessions: usize,
    /// Membership churn events (joins + leaves).
    pub churn_events: usize,
    /// Fault events (fail-heaviest / recover-oldest alternation).
    pub faults: usize,
    /// Master seed for topology, workload, churn, and fault times.
    pub seed: u64,
    /// Protection discipline.
    pub mode: ChurnMode,
}

impl ChurnParams {
    /// The CI-scale default: 60 switches, 80 sessions, 60 churn events,
    /// 12 faults.
    #[must_use]
    pub fn ci_scale(seed: u64, mode: ChurnMode) -> Self {
        ChurnParams {
            n: 60,
            sessions: 80,
            churn_events: 60,
            faults: 12,
            seed,
            mode,
        }
    }
}

/// Counters of one churn replay. Every field is derived from return
/// values (`RepairReport`, graft/prune outcomes), never from telemetry,
/// so the double-run determinism check compares real engine behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// The seed the replay used.
    pub seed: u64,
    /// The protection discipline (see [`ChurnMode::label`]).
    pub mode: &'static str,
    /// Sessions offered / admitted / rejected at arrival.
    pub offered: usize,
    /// Sessions admitted at arrival.
    pub admitted: usize,
    /// Sessions rejected at arrival.
    pub rejected: usize,
    /// Destinations grafted onto live sessions.
    pub grafts: usize,
    /// Destinations pruned off live sessions.
    pub prunes: usize,
    /// Churn events that found no applicable live session (already a
    /// member, unreachable, last destination, or nothing live).
    pub churn_noops: usize,
    /// Failures injected (fail-heaviest events).
    pub failures: usize,
    /// Recoveries injected (recover-oldest events).
    pub recoveries: usize,
    /// Sessions restored by a precomputed backup-tree swap (0 reactive).
    pub backup_swaps: usize,
    /// Sessions restored by reactive replanning.
    pub replanned: usize,
    /// Sessions that lost destinations or were torn down.
    pub degraded_or_dropped: usize,
    /// Planner invocations spent restoring broken sessions — the logical
    /// failover latency (swaps contribute zero).
    pub plan_events: u64,
    /// Peak bandwidth held by reserved backup trees (0 unless the
    /// `Reserved` policy runs).
    pub peak_reserved_bandwidth: f64,
    /// Arrivals offered / admitted after the first failure — the
    /// post-failure admission rate numerator and denominator.
    pub offered_after_first_failure: usize,
    /// Arrivals admitted after the first failure.
    pub admitted_after_first_failure: usize,
    /// Auditor passes (one per event, plus the final settle).
    pub audit_checks: usize,
}

impl ChurnOutcome {
    /// Adds what one repair pass restored, degraded or dropped.
    fn absorb(&mut self, report: &RepairReport) {
        self.backup_swaps += report.swapped.len();
        self.replanned += report.repaired.len();
        self.degraded_or_dropped += report.degraded.len() + report.dropped.len();
        self.plan_events += report.plan_events;
    }

    /// Renders the outcome as a JSON object (hand-rolled; the workspace
    /// has no serde_json).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seed\": {}, \"mode\": \"{}\", \"offered\": {}, \"admitted\": {}, \
             \"rejected\": {}, \"grafts\": {}, \"prunes\": {}, \"churn_noops\": {}, \
             \"failures\": {}, \"recoveries\": {}, \"backup_swaps\": {}, \
             \"replanned\": {}, \"degraded_or_dropped\": {}, \"plan_events\": {}, \
             \"peak_reserved_bandwidth\": {:.3}, \"offered_after_first_failure\": {}, \
             \"admitted_after_first_failure\": {}, \"audit_checks\": {}}}",
            self.seed,
            self.mode,
            self.offered,
            self.admitted,
            self.rejected,
            self.grafts,
            self.prunes,
            self.churn_noops,
            self.failures,
            self.recoveries,
            self.backup_swaps,
            self.replanned,
            self.degraded_or_dropped,
            self.plan_events,
            self.peak_reserved_bandwidth,
            self.offered_after_first_failure,
            self.admitted_after_first_failure,
            self.audit_checks,
        )
    }
}

enum Event {
    Churn(ChurnAction),
    Fault,
}

/// The alive link carrying the most allocated bandwidth (capacity minus
/// residual), ties broken by ascending link id — the most disruptive
/// single-link failure for the current commitments.
fn heaviest_alive_link(sdn: &Sdn) -> Option<EdgeId> {
    let mut best: Option<(f64, EdgeId)> = None;
    for e in sdn.graph().edges() {
        if !sdn.is_link_alive(e.id) {
            continue;
        }
        let load = sdn.bandwidth_capacity(e.id) - sdn.residual_bandwidth(e.id);
        let better = match best {
            None => true,
            Some((bl, _)) => load > bl + 1e-12,
        };
        if better {
            best = Some((load, e.id));
        }
    }
    best.map(|(_, e)| e)
}

/// Replays one churn timeline. Panics if any invariant audit fails or
/// the network does not round-trip to idle.
#[must_use]
pub fn run_churn(params: &ChurnParams) -> ChurnOutcome {
    let mut sdn = waxman_sdn(params.n, params.seed);
    let fresh = sdn.clone();
    let timeline = session_timeline(
        params.n,
        params.sessions,
        params.seed ^ 0xC4_0211,
        |rng, horizon| {
            let churn_rate = (params.churn_events.max(1) as f64 / horizon).max(1e-6);
            let mut extra: Vec<(f64, Event)> = MembershipChurn::new(churn_rate, 0.6)
                .events_for(params.n, params.churn_events, rng)
                .into_iter()
                .map(|ev| (ev.time.min(horizon), Event::Churn(ev.action)))
                .collect();
            for _ in 0..params.faults {
                extra.push((rng.gen_range(0.0..horizon), Event::Fault));
            }
            extra
        },
    );
    let mut mgr = match params.mode {
        ChurnMode::Reactive => SessionManager::new(super::K),
        ChurnMode::Proactive(policy) => SessionManager::with_backups(super::K, policy),
    };

    let mut out = ChurnOutcome {
        seed: params.seed,
        mode: params.mode.label(),
        offered: 0,
        admitted: 0,
        rejected: 0,
        grafts: 0,
        prunes: 0,
        churn_noops: 0,
        failures: 0,
        recoveries: 0,
        backup_swaps: 0,
        replanned: 0,
        degraded_or_dropped: 0,
        plan_events: 0,
        peak_reserved_bandwidth: 0.0,
        offered_after_first_failure: 0,
        admitted_after_first_failure: 0,
        audit_checks: 0,
    };
    let mut ever_admitted: BTreeSet<RequestId> = BTreeSet::new();
    let mut failed_links: VecDeque<EdgeId> = VecDeque::new();
    let mut churn_cursor = 0usize;

    for event in timeline {
        match event {
            SessionEvent::Arrival(tr) => {
                out.offered += 1;
                let after_failure = out.failures > 0;
                if after_failure {
                    out.offered_after_first_failure += 1;
                }
                let ok = mgr
                    .admit(&mut sdn, &tr.request)
                    .expect("fresh ids never collide");
                if ok {
                    out.admitted += 1;
                    if after_failure {
                        out.admitted_after_first_failure += 1;
                    }
                    ever_admitted.insert(tr.request.id);
                    // A no-op for the reactive manager.
                    let _ = mgr.protect(&mut sdn, tr.request.id);
                } else {
                    out.rejected += 1;
                }
            }
            SessionEvent::Departure(id) => {
                if ever_admitted.contains(&id) {
                    mgr.depart(&mut sdn, id);
                }
            }
            SessionEvent::Other(Event::Churn(action)) => {
                // Land the event on a live session, round-robin so churn
                // spreads instead of hammering the smallest id.
                let live: Vec<RequestId> = mgr.sessions().map(|(id, _)| id).collect();
                if live.is_empty() {
                    out.churn_noops += 1;
                } else {
                    let target = live[churn_cursor % live.len()];
                    churn_cursor += 1;
                    match action {
                        ChurnAction::Join(v) => match mgr.graft(&mut sdn, target, v) {
                            GraftOutcome::Grafted { .. } => out.grafts += 1,
                            _ => out.churn_noops += 1,
                        },
                        ChurnAction::Leave(idx) => {
                            let victim = mgr.session(target).and_then(|s| {
                                let d = &s.payload.request.destinations;
                                d.get(idx % d.len()).copied()
                            });
                            match victim.map(|v| mgr.prune(&mut sdn, target, v)) {
                                Some(PruneOutcome::Pruned { .. }) => out.prunes += 1,
                                _ => out.churn_noops += 1,
                            }
                        }
                    }
                }
            }
            SessionEvent::Other(Event::Fault) => {
                // Recover the oldest dead link once two are down; fail the
                // heaviest-loaded alive link otherwise.
                if failed_links.len() >= 2 {
                    let e = failed_links.pop_front().expect("len checked");
                    sdn.recover_link(e).expect("tracked failed link");
                    out.recoveries += 1;
                } else if let Some(e) = heaviest_alive_link(&sdn) {
                    sdn.fail_link(e).expect("alive link");
                    failed_links.push_back(e);
                    out.failures += 1;
                }
                out.absorb(&mgr.repair(&mut sdn));
            }
        }
        out.peak_reserved_bandwidth = out
            .peak_reserved_bandwidth
            .max(mgr.reserved_backup_bandwidth());
        audit(&sdn, mgr.sessions(), mgr.backup_reservations())
            .expect("invariant audit after event");
        out.audit_checks += 1;
    }

    out.absorb(&settle(&mut sdn, &fresh, &mut mgr).0);
    out.audit_checks += 1;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, mode: ChurnMode) -> ChurnParams {
        ChurnParams {
            n: 40,
            sessions: 30,
            churn_events: 25,
            faults: 8,
            seed,
            mode,
        }
    }

    #[test]
    fn replay_is_deterministic_per_mode() {
        for mode in [
            ChurnMode::Reactive,
            ChurnMode::Proactive(BackupPolicy::BestEffort),
            ChurnMode::Proactive(BackupPolicy::Reserved),
        ] {
            let p = small(7, mode);
            let a = run_churn(&p);
            let b = run_churn(&p);
            assert_eq!(a, b, "{mode:?}");
            assert_eq!(a.admitted + a.rejected, a.offered);
        }
    }

    #[test]
    fn churn_exercises_grafts_and_prunes() {
        let out = run_churn(&small(3, ChurnMode::Reactive));
        assert!(out.grafts > 0, "no grafts landed: {out:?}");
        assert!(out.prunes > 0, "no prunes landed: {out:?}");
        assert_eq!(out.backup_swaps, 0, "reactive mode must never swap");
    }

    #[test]
    fn proactive_swaps_where_reactive_replans() {
        let reactive = run_churn(&small(5, ChurnMode::Reactive));
        let proactive = run_churn(&small(5, ChurnMode::Proactive(BackupPolicy::BestEffort)));
        assert!(proactive.backup_swaps > 0, "no swap landed: {proactive:?}");
        assert!(
            proactive.plan_events < reactive.plan_events || reactive.plan_events == 0,
            "proactive ({}) must beat reactive ({}) on plan events",
            proactive.plan_events,
            reactive.plan_events
        );
    }

    #[test]
    fn reserved_policy_holds_capacity() {
        let out = run_churn(&small(9, ChurnMode::Proactive(BackupPolicy::Reserved)));
        assert!(out.peak_reserved_bandwidth > 0.0);
        let best_effort = run_churn(&small(9, ChurnMode::Proactive(BackupPolicy::BestEffort)));
        assert_eq!(best_effort.peak_reserved_bandwidth, 0.0);
    }

    #[test]
    fn json_has_all_fields() {
        let out = run_churn(&small(1, ChurnMode::Proactive(BackupPolicy::Reserved)));
        for key in [
            "seed",
            "mode",
            "offered",
            "admitted",
            "grafts",
            "prunes",
            "backup_swaps",
            "replanned",
            "plan_events",
            "peak_reserved_bandwidth",
            "offered_after_first_failure",
            "admitted_after_first_failure",
            "audit_checks",
        ] {
            assert!(
                out.to_json().contains(&format!("\"{key}\"")),
                "missing {key}"
            );
        }
    }
}
