//! Chaos replay: a timed session workload interleaved with seeded link
//! and server failure/recovery events, healed by the repair engine and
//! checked by the invariant auditor after **every** event.
//!
//! One deterministic timeline merges three event sources:
//!
//! * session arrivals (Poisson, exponential holding — the same workload
//!   the dynamics experiment uses),
//! * session departures, pre-scheduled at `arrival + duration` for every
//!   *admitted* session — including ones the repair engine tears down
//!   first, so the double-release guard is exercised on purpose,
//! * element toggles at seeded times: a dead element recovers, a live
//!   one fails.
//!
//! Everything is replayed single-threaded in one fixed order, so the
//! survived/repaired/degraded/dropped counts are byte-identical for a
//! given `(params, seed)` regardless of the host's core count. The run
//! ends by recovering all elements, settling pending repairs, departing
//! every survivor, and asserting the network round-trips to its idle
//! state — the residual-conservation property the auditor enforces
//! throughout.

use super::timeline::{session_timeline, settle, SessionEvent};
use crate::waxman_sdn;
use nfv_engine::{audit, RepairReport, SessionManager};
use rand::Rng;
use sdn::RequestId;
use std::collections::BTreeSet;

/// Knobs of one chaos replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosParams {
    /// Switches in the Waxman topology (fig5-scale: 100).
    pub n: usize,
    /// Timed sessions offered.
    pub sessions: usize,
    /// Failure/recovery toggle events injected.
    pub events: usize,
    /// Master seed for topology, workload, and chaos events.
    pub seed: u64,
}

impl ChaosParams {
    /// The fig5-scale default: 100 switches and a 500-event timeline
    /// (200 arrivals + 200 departures + 100 toggles).
    #[must_use]
    pub fn fig5_scale(seed: u64) -> Self {
        ChaosParams {
            n: 100,
            sessions: 200,
            events: 100,
            seed,
        }
    }
}

/// Final per-session dispositions of one replay. The four disposition
/// counts partition the admitted sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// The seed the replay used.
    pub seed: u64,
    /// Sessions offered.
    pub offered: usize,
    /// Sessions admitted at arrival.
    pub admitted: usize,
    /// Sessions rejected at arrival.
    pub rejected: usize,
    /// Admitted sessions never disturbed by a failure.
    pub survived: usize,
    /// Sessions rerouted at least once, full destination set intact.
    pub repaired: usize,
    /// Sessions that lost at least one destination to degradation.
    pub degraded: usize,
    /// Sessions the repair engine tore down for good.
    pub dropped: usize,
    /// Times the double-release guard fired (departures of torn-down
    /// sessions).
    pub double_release_guards: u64,
    /// Failure events applied (toggles that took an element down).
    pub failures: usize,
    /// Recovery events applied (toggles that brought one back).
    pub recoveries: usize,
    /// Auditor passes (one per event, plus the final settle).
    pub audit_checks: usize,
}

impl ChaosOutcome {
    /// Renders the outcome as a JSON object (hand-rolled; the workspace
    /// has no serde_json).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seed\": {}, \"offered\": {}, \"admitted\": {}, \"rejected\": {}, \
             \"survived\": {}, \"repaired\": {}, \"degraded\": {}, \"dropped\": {}, \
             \"double_release_guards\": {}, \"failures\": {}, \"recoveries\": {}, \
             \"audit_checks\": {}}}",
            self.seed,
            self.offered,
            self.admitted,
            self.rejected,
            self.survived,
            self.repaired,
            self.degraded,
            self.dropped,
            self.double_release_guards,
            self.failures,
            self.recoveries,
            self.audit_checks,
        )
    }
}

/// Toggle element liveness: fail if alive, recover if dead.
enum Toggle {
    Link(netgraph::EdgeId),
    Server(netgraph::NodeId),
}

/// Replays one chaos timeline. Panics if any invariant audit fails or
/// the network does not round-trip to idle — chaos runs double as the
/// strictest integration test of the failure model.
#[must_use]
pub fn run_chaos(params: &ChaosParams) -> ChaosOutcome {
    let mut sdn = waxman_sdn(params.n, params.seed);
    let fresh = sdn.clone();
    // Seeded chaos toggles, biased towards links (servers are scarcer
    // and a server failure is far more disruptive).
    let link_count = sdn.link_count();
    let server_list: Vec<_> = sdn.servers().to_vec();
    let timeline = session_timeline(
        params.n,
        params.sessions,
        params.seed ^ 0xC4A0_5EED,
        |rng, horizon| {
            (0..params.events)
                .map(|_| {
                    let t = rng.gen_range(0.0..horizon);
                    let toggle = if rng.gen_bool(0.7) {
                        Toggle::Link(netgraph::EdgeId::new(rng.gen_range(0..link_count)))
                    } else {
                        Toggle::Server(server_list[rng.gen_range(0..server_list.len())])
                    };
                    (t, toggle)
                })
                .collect()
        },
    );
    let mut mgr = SessionManager::new(super::K);

    let mut outcome = ChaosOutcome {
        seed: params.seed,
        offered: 0,
        admitted: 0,
        rejected: 0,
        survived: 0,
        repaired: 0,
        degraded: 0,
        dropped: 0,
        double_release_guards: 0,
        failures: 0,
        recoveries: 0,
        audit_checks: 0,
    };
    let mut ever_admitted: BTreeSet<RequestId> = BTreeSet::new();
    let mut was_repaired: BTreeSet<RequestId> = BTreeSet::new();
    let mut was_degraded: BTreeSet<RequestId> = BTreeSet::new();
    let mut was_dropped: BTreeSet<RequestId> = BTreeSet::new();
    let mut absorb = |report: &RepairReport| {
        was_repaired.extend(report.repaired.iter().copied());
        was_degraded.extend(report.degraded.iter().map(|&(id, _)| id));
        was_dropped.extend(report.dropped.iter().copied());
    };

    for event in timeline {
        match event {
            SessionEvent::Arrival(tr) => {
                outcome.offered += 1;
                let ok = mgr
                    .admit(&mut sdn, &tr.request)
                    .expect("fresh ids never collide");
                if ok {
                    outcome.admitted += 1;
                    ever_admitted.insert(tr.request.id);
                } else {
                    outcome.rejected += 1;
                }
            }
            SessionEvent::Departure(id) => {
                // Only sessions that were actually admitted depart; a
                // session the repair engine already dropped trips the
                // double-release guard here, on purpose.
                if ever_admitted.contains(&id) {
                    mgr.depart(&mut sdn, id);
                }
            }
            SessionEvent::Other(toggle) => {
                let failed = match toggle {
                    Toggle::Link(e) if sdn.is_link_alive(e) => {
                        sdn.fail_link(e).expect("valid link id");
                        true
                    }
                    Toggle::Link(e) => {
                        sdn.recover_link(e).expect("valid link id");
                        false
                    }
                    Toggle::Server(v) if sdn.is_server_alive(v) => {
                        sdn.fail_server(v).expect("valid server");
                        true
                    }
                    Toggle::Server(v) => {
                        sdn.recover_server(v).expect("valid server");
                        false
                    }
                };
                if failed {
                    outcome.failures += 1;
                } else {
                    outcome.recoveries += 1;
                }
                absorb(&mgr.repair(&mut sdn));
            }
        }
        audit(&sdn, mgr.sessions(), mgr.backup_reservations())
            .expect("invariant audit after event");
        outcome.audit_checks += 1;
    }

    // Settle; sessions still pending after a full recovery lack
    // capacity for good: count them as dropped.
    let (report, pending) = settle(&mut sdn, &fresh, &mut mgr);
    absorb(&report);
    was_dropped.extend(pending);
    outcome.audit_checks += 1;

    outcome.double_release_guards = mgr.double_release_count();
    // Disjoint final dispositions, most severe wins.
    for &id in &ever_admitted {
        if was_dropped.contains(&id) {
            outcome.dropped += 1;
        } else if was_degraded.contains(&id) {
            outcome.degraded += 1;
        } else if was_repaired.contains(&id) {
            outcome.repaired += 1;
        } else {
            outcome.survived += 1;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> ChaosParams {
        ChaosParams {
            n: 40,
            sessions: 30,
            events: 20,
            seed,
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let p = small(7);
        let a = run_chaos(&p);
        let b = run_chaos(&p);
        assert_eq!(a, b);
        assert_eq!(a.admitted + a.rejected, a.offered);
        assert_eq!(
            a.survived + a.repaired + a.degraded + a.dropped,
            a.admitted,
            "dispositions partition the admitted sessions"
        );
    }

    #[test]
    fn different_seeds_differ() {
        // Not a hard guarantee, but two seeds agreeing on every count
        // would mean chaos injection is inert.
        let a = run_chaos(&small(1));
        let b = run_chaos(&small(2));
        assert!(a.failures > 0);
        assert!(a != b || a.offered != b.offered);
    }

    #[test]
    fn json_has_all_fields() {
        let out = run_chaos(&small(5));
        let json = out.to_json();
        for key in [
            "seed",
            "offered",
            "admitted",
            "rejected",
            "survived",
            "repaired",
            "degraded",
            "dropped",
            "double_release_guards",
            "failures",
            "recoveries",
            "audit_checks",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }
}
