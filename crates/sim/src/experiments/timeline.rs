//! The session timeline and the settle step the chaos and churn replays
//! share.

use nfv_engine::{audit, RepairReport, SessionManager};
use nfv_online::TimedRequest;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdn::{RequestId, Sdn};
use workload::{PoissonWorkload, RequestGenerator};

/// One event of a chaos or churn replay: a session arrival, its
/// departure, or a replay-specific event.
pub(super) enum SessionEvent<X> {
    Arrival(Box<TimedRequest>),
    Departure(RequestId),
    Other(X),
}

/// `sessions` Poisson arrivals on `n` switches (mean inter-arrival 4,
/// mean holding 25, `Dmax/|V|` = 0.2), each followed by its departure,
/// then the events `extra` draws from the same RNG given the horizon
/// (last arrival + mean holding). Sorted by time; ties keep generation
/// order, so the timeline is a pure function of its arguments.
pub(super) fn session_timeline<X>(
    n: usize,
    sessions: usize,
    rng_seed: u64,
    extra: impl FnOnce(&mut StdRng, f64) -> Vec<(f64, X)>,
) -> Vec<SessionEvent<X>> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut gen = RequestGenerator::new(n).with_dmax_ratio(0.2);
    let workload = PoissonWorkload::new(4.0, 25.0);
    let sessions = workload.generate(&mut gen, sessions, &mut rng);
    let horizon = sessions.last().map_or(1.0, |s| s.1) + workload.mean_holding;

    let mut timeline: Vec<(f64, SessionEvent<X>)> = Vec::new();
    for (request, arrival, duration) in sessions {
        let id = request.id;
        let tr = TimedRequest::try_new(request, arrival, duration)
            .expect("generated workloads are well-formed");
        timeline.push((arrival, SessionEvent::Arrival(Box::new(tr))));
        timeline.push((arrival + duration, SessionEvent::Departure(id)));
    }
    timeline.extend(
        extra(&mut rng, horizon)
            .into_iter()
            .map(|(t, x)| (t, SessionEvent::Other(x))),
    );
    // A stable sort: equal times keep their push order.
    timeline.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    timeline.into_iter().map(|(_, ev)| ev).collect()
}

/// Ends a replay: recovers every element, gives pending repairs one last
/// chance, departs the sessions still pending after it and every
/// survivor, audits, and asserts the network round-trips to `fresh`.
/// Returns that last repair report and the sessions departed while still
/// pending (they lack capacity for good).
pub(super) fn settle(
    sdn: &mut Sdn,
    fresh: &Sdn,
    mgr: &mut SessionManager,
) -> (RepairReport, Vec<RequestId>) {
    sdn.recover_all();
    let report = mgr.repair(sdn);
    let pending = mgr.pending_repairs();
    for &id in &pending {
        mgr.depart(sdn, id);
    }
    let survivors: Vec<RequestId> = mgr.sessions().map(|(id, _)| id).collect();
    for id in survivors {
        mgr.depart(sdn, id);
    }
    // With no live sessions, the audit's conservation check asserts the
    // residuals round-tripped to full capacity (within float tolerance —
    // interleaved allocate/release reorders the sums).
    audit(sdn, mgr.sessions(), mgr.backup_reservations()).expect("invariant audit after settle");
    sdn.reset();
    assert_eq!(*sdn, *fresh, "liveness and ledger must round-trip to idle");
    (report, pending)
}
