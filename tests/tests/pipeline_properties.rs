//! Property tests for the streaming admission pipeline: decisions, trees,
//! and the final residual state must be byte-identical to an independent
//! sequential replay of the same timed stream — across random seeds,
//! window sizes, worker counts, snapshot refresh thresholds, and
//! interleaved departures — and shutdown must drain the in-flight window
//! (exactly one decision per pushed arrival, in arrival order). A
//! bottleneck generator puts a departure between a plan's snapshot and
//! its commit, so a committer that misses a released link speculates on
//! a stale feasible subgraph and diverges.
//!
//! The reference below is deliberately *not* the pipeline's own inline
//! mode: it replays the stream with `ActiveSessions::release_due` and
//! `appro_multi_cap`, sharing no speculation or snapshot
//! machinery with the code under test.

use integration_tests::waxman_fixture;
use netgraph::NodeId;
use nfv_engine::{AdmissionPipeline, PipelineConfig};
use nfv_multicast::{appro_multi_cap, Admission};
use nfv_online::{ActiveSessions, TimedRequest};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdn::{MulticastRequest, NfvType, RequestId, Sdn, SdnBuilder, ServiceChain};
use workload::{PoissonWorkload, RequestGenerator};

/// A seeded Poisson stream: exponential interarrivals and holding times,
/// so departures genuinely interleave with arrivals.
fn timed_stream(n: usize, count: usize, seed: u64, mean_holding: f64) -> Vec<TimedRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = RequestGenerator::new(n);
    PoissonWorkload::new(1.0, mean_holding)
        .generate(&mut gen, count, &mut rng)
        .into_iter()
        .map(|(req, arrival, duration)| TimedRequest::new(req, arrival, duration))
        .collect()
}

/// Independent sequential replay: release due departures, plan on the
/// live state, commit. This is the semantics the pipeline must reproduce
/// byte-for-byte.
fn reference_stream(mut sdn: Sdn, stream: &[TimedRequest], k: usize) -> (Sdn, Vec<Admission>) {
    let mut active = ActiveSessions::new();
    let mut decisions = Vec::with_capacity(stream.len());
    for tr in stream {
        active.release_due(&mut sdn, tr.arrival);
        let adm = appro_multi_cap(&sdn, &tr.request, k);
        if let Admission::Admitted(tree) = &adm {
            let alloc = tree.allocation(&tr.request);
            sdn.allocate(&alloc).expect("admitted tree fits");
            active.insert(tr.request.id, tr.arrival + tr.duration, alloc);
        }
        decisions.push(adm);
    }
    (sdn, decisions)
}

/// A bottleneck network: source `s`, one server `m` behind a cheap link
/// `s–m` that carries one session of bandwidth `b` but not two (its
/// capacity is `b·(1 + slack)`, `slack < 1`), a detour `s–x–m` at
/// `detour` per hop (`2·detour > 1`) that never fills, and `dests`
/// destinations hanging off `m`. Returns the network, `s` and the
/// destinations.
fn bottleneck_sdn(b: f64, slack: f64, detour: f64, dests: usize) -> (Sdn, NodeId, Vec<NodeId>) {
    let mut bld = SdnBuilder::new();
    let s = bld.add_switch();
    let m = bld.add_server(1e9, 1.0);
    let x = bld.add_switch();
    bld.add_link(s, m, b * (1.0 + slack), 1.0).unwrap();
    bld.add_link(s, x, 1e9, detour).unwrap();
    bld.add_link(x, m, 1e9, detour).unwrap();
    let d = (0..dests)
        .map(|_| {
            let d = bld.add_switch();
            bld.add_link(m, d, 1e9, 1.0).unwrap();
            d
        })
        .collect();
    (bld.build().unwrap(), s, d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rounds of a loader then a victim, both of bandwidth `b` over the
    /// bottleneck. The loader is committed (`drain`) before the victim
    /// is pushed, so the victim is planned on a snapshot where the
    /// bottleneck no longer fits `b`. The loader departs before the
    /// victim arrives, so the victim's commit first releases the
    /// bottleneck: the plan's feasible subgraph is stale and must be
    /// replanned, as the sequential replay plans the victim over the
    /// cheap link.
    #[test]
    fn departure_between_snapshot_and_commit_forces_a_replan(
        b in 20.0f64..200.0,
        slack in 0.0f64..0.9,
        detour in 0.6f64..3.0,
        dests in 1usize..4,
        rounds in 1usize..5,
        workers in 1usize..4,
        window in 1usize..6,
    ) {
        let (fresh, s, d) = bottleneck_sdn(b, slack, detour, dests);
        let chain = ServiceChain::new(vec![NfvType::Firewall]);
        let stream: Vec<TimedRequest> = (0..2 * rounds as u64)
            .map(|i| {
                let req = MulticastRequest::new(RequestId(i), s, d.clone(), b, chain.clone());
                TimedRequest::new(req, i as f64, 0.5)
            })
            .collect();
        let (ref_net, ref_decisions) = reference_stream(fresh.clone(), &stream, 2);

        let config = PipelineConfig::new(2)
            .with_workers(workers)
            .with_window(window)
            .with_refresh(1);
        let mut pipeline = AdmissionPipeline::launch(fresh, config);
        for (i, tr) in stream.iter().enumerate() {
            pipeline.push(tr.clone());
            if i % 2 == 0 {
                pipeline.drain(); // commit the loader
            }
        }
        let out = pipeline.finish();

        prop_assert!(ref_decisions.iter().all(|a| matches!(a, Admission::Admitted(_))));
        prop_assert_eq!(&out.decisions, &ref_decisions);
        prop_assert_eq!(&out.sdn, &ref_net);
        prop_assert!(
            out.report.replanned >= rounds,
            "each victim's plan is disturbed by the departure inside its window"
        );
    }

    /// Pipelined decisions, trees, and the final residual state are
    /// byte-identical to the sequential replay for every worker count
    /// (0 = inline reference mode), window size, and refresh threshold,
    /// on streams whose departures interleave with arrivals.
    #[test]
    fn pipeline_equals_sequential_replay(
        seed in 0u64..500,
        count in 1usize..36,
        workers in 0usize..4,
        window in 1usize..10,
        refresh in 1usize..4,
    ) {
        let n = 30;
        let fresh = waxman_fixture(n, 420);
        // Mean holding of 4 interarrival times: sessions overlap and
        // plenty depart mid-stream.
        let stream = timed_stream(n, count, seed, 4.0);

        let (ref_net, ref_decisions) = reference_stream(fresh.clone(), &stream, 2);

        let config = PipelineConfig::new(2)
            .with_workers(workers)
            .with_window(window)
            .with_refresh(refresh);
        let mut pipeline = AdmissionPipeline::launch(fresh, config);
        for tr in stream {
            pipeline.push(tr);
        }
        let out = pipeline.finish();

        prop_assert_eq!(&out.decisions, &ref_decisions);
        prop_assert_eq!(&out.sdn, &ref_net);
        prop_assert_eq!(out.decisions.len(), count);
        prop_assert_eq!(out.report.admitted + out.report.rejected, count);
        if workers > 0 {
            prop_assert_eq!(
                out.report.speculative_hits + out.report.replanned,
                count,
                "every arrival is either a speculative hit or an inline replan"
            );
        }
    }

    /// Shutdown drains the window: finishing with every arrival still in
    /// flight (window larger than the stream) loses and duplicates
    /// nothing.
    #[test]
    fn finish_drains_a_full_window(
        seed in 0u64..500,
        count in 1usize..20,
        workers in 1usize..4,
    ) {
        let n = 30;
        let fresh = waxman_fixture(n, 421);
        let stream = timed_stream(n, count, seed, 4.0);
        let (ref_net, ref_decisions) = reference_stream(fresh.clone(), &stream, 2);

        // Window of 64 > count: push never commits, finish() must.
        let config = PipelineConfig::new(2).with_workers(workers).with_window(64);
        let mut pipeline = AdmissionPipeline::launch(fresh, config);
        for tr in stream {
            pipeline.push(tr);
        }
        let committed = pipeline.report().admitted + pipeline.report().rejected;
        prop_assert_eq!(committed, 0, "nothing committed before finish");
        let out = pipeline.finish();
        prop_assert_eq!(&out.decisions, &ref_decisions);
        prop_assert_eq!(&out.sdn, &ref_net);
        prop_assert_eq!(out.decisions.len(), count);
    }
}
