//! Infinite-holding workloads: sessions that never depart.
//!
//! [`workload::OpenLoopWorkload`] with `mean_holding = ∞` emits
//! `duration = f64::MAX` sessions, and `arrival + f64::MAX` saturates at
//! `f64::MAX` (still finite), so such a session passes
//! [`nfv_online::TimedRequest`] validation yet no realistic clock ever
//! releases it. These tests pin the end-to-end consequences across both
//! execution paths: the dynamic replay must never release capacity
//! mid-run, and the streaming pipeline must report zero departures while
//! keeping a ledger that an explicit drain balances back to fresh.

use nfv_engine::{AdmissionPipeline, PipelineConfig};
use nfv_online::{run_dynamic, OnlineCp, TimedRequest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdn::{RequestId, Sdn, SdnBuilder};
use workload::{OpenLoopWorkload, RequestGenerator};

fn ring_sdn(n: usize) -> Sdn {
    let mut bld = SdnBuilder::new();
    let nodes: Vec<_> = (0..n).map(|_| bld.add_switch()).collect();
    for i in 0..n {
        bld.add_link(nodes[i], nodes[(i + 1) % n], 2_000.0, 1.0)
            .unwrap();
    }
    for i in (0..n).step_by(4) {
        bld.attach_server(nodes[i], 4_000.0, 1.0).unwrap();
    }
    bld.build().unwrap()
}

fn infinite_stream(n_nodes: usize, count: usize, seed: u64) -> Vec<TimedRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = RequestGenerator::new(n_nodes);
    OpenLoopWorkload::new(1.0, f64::INFINITY)
        .generate(&mut gen, count, &mut rng)
        .into_iter()
        .map(|(req, arrival, duration)| {
            // The generator saturates infinite holding to f64::MAX, which
            // the validating constructor must accept (finite, positive).
            assert_eq!(duration, f64::MAX);
            TimedRequest::try_new(req, arrival, duration).expect("f64::MAX duration is valid")
        })
        .collect()
}

#[test]
fn dynamic_replay_never_releases_infinite_sessions() {
    let requests = infinite_stream(16, 40, 3);
    let mut sdn = ring_sdn(16);
    let fresh = sdn.clone();
    let result = run_dynamic(&mut sdn, &mut OnlineCp::new(), &requests);

    // No session ever departs, so the active set only grows: the peak
    // concurrency must equal the total admission count, and at least one
    // admission must have stuck (the fresh ring has room).
    assert!(result.admitted > 0, "fresh ring must admit something");
    assert_eq!(result.peak_concurrent, result.admitted);
    assert_ne!(sdn, fresh, "held capacity must still be allocated");
}

#[test]
fn pipeline_reports_zero_departures_and_drains_back_to_fresh() {
    let requests = infinite_stream(16, 40, 3);
    let fresh = ring_sdn(16);
    let mut pipeline = AdmissionPipeline::launch(fresh.clone(), PipelineConfig::new(2));
    for tr in requests {
        pipeline.push(tr);
    }
    let mut outcome = pipeline.finish();

    assert_eq!(
        outcome.report.departed, 0,
        "infinite-holding sessions must never depart inside the run"
    );
    assert!(outcome.report.admitted > 0);
    assert_eq!(outcome.sessions.len(), outcome.report.admitted);
    assert_ne!(outcome.sdn, fresh);

    // Explicitly drain every live session: the ledger must balance back
    // to the untouched network. Overlapping sessions release in a
    // different order than they allocated, so the comparison is
    // per-resource within float tolerance rather than bit-exact.
    let ids: Vec<RequestId> = outcome.sessions.iter().map(|(id, _)| id).collect();
    for id in ids {
        assert!(outcome.sessions.depart(&mut outcome.sdn, id).is_some());
    }
    assert!(outcome.sessions.is_empty());
    for e in fresh.graph().edges() {
        let drained = outcome.sdn.residual_bandwidth(e.id);
        let original = fresh.residual_bandwidth(e.id);
        assert!(
            (drained - original).abs() < 1e-6,
            "link {:?} residual {drained} != fresh {original}",
            e.id
        );
    }
    for &v in fresh.servers() {
        let drained = outcome.sdn.residual_computing(v).unwrap();
        let original = fresh.residual_computing(v).unwrap();
        assert!(
            (drained - original).abs() < 1e-6,
            "server {v:?} residual {drained} != fresh {original}"
        );
    }
}
