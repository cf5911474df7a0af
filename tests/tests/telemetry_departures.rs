//! Time-driven departures are counted once each.
//!
//! Replays a seeded Poisson stream through `run_dynamic` and checks the
//! `sessions_departed` counter against the departures the stream
//! implies, and the `active_sessions` gauge against the sessions still
//! live after the last arrival.
//!
//! This file deliberately holds a single `#[test]`: the registry is
//! process-global, and each integration-test file is its own process,
//! so nothing else can race these counters.

use integration_tests::waxman_fixture;
use nfv_online::{run_dynamic, OnlineCp, TimedRequest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use workload::{PoissonWorkload, RequestGenerator};

#[test]
fn run_dynamic_counts_every_departure_once() {
    let mut sdn = waxman_fixture(30, 7);
    let mut rng = StdRng::seed_from_u64(7);
    let mut gen = RequestGenerator::new(sdn.node_count());
    let stream: Vec<TimedRequest> = PoissonWorkload::new(1.0, 20.0)
        .generate(&mut gen, 200, &mut rng)
        .into_iter()
        .map(|(req, arrival, duration)| TimedRequest::new(req, arrival, duration))
        .collect();

    telemetry::enable();
    telemetry::reset();
    let result = run_dynamic(&mut sdn, &mut OnlineCp::new(), &stream);

    // A session departs once the last arrival reaches its departure time.
    let departures: BTreeMap<_, f64> = stream
        .iter()
        .map(|t| (t.request.id, t.arrival + t.duration))
        .collect();
    let last_arrival = stream.iter().map(|t| t.arrival).fold(0.0, f64::max);
    let departed = result
        .admitted_ids()
        .filter(|id| departures[id] <= last_arrival)
        .count() as u64;
    let live = result.admitted as u64 - departed;
    assert!(departed > 0 && live > 0, "the stream must leave both kinds");

    assert_eq!(
        telemetry::counter_value(telemetry::Counter::SessionsDeparted),
        departed
    );
    assert_eq!(
        telemetry::gauge_value(telemetry::Gauge::ActiveSessions),
        live
    );
    assert_eq!(
        telemetry::counter_value(telemetry::Counter::DoubleRelease),
        0
    );
    telemetry::disable();
}
