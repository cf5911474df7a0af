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
//! machinery with the code under test. On unit link costs, where
//! equal-cost paths abound, it plans with `appro_multi_cap_cached`
//! instead: the pipeline decides every request with the cached planner,
//! whose tie rule may pick other ingress paths than the uncached one.

use integration_tests::waxman_fixture;
use netgraph::NodeId;
use nfv_engine::{AdmissionPipeline, PipelineConfig, PipelineOutcome};
use nfv_multicast::{appro_multi_cap, appro_multi_cap_cached, Admission, PathCache};
use nfv_online::{ActiveSessions, TimedRequest};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdn::{MulticastRequest, NfvType, RequestId, Sdn, SdnBuilder, ServiceChain};
use topology::{annotate, barabasi_albert, place_servers_random, AnnotationParams};
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
/// live state with `plan`, commit. This is the semantics the pipeline
/// must reproduce byte-for-byte.
fn replay(
    mut sdn: Sdn,
    stream: &[TimedRequest],
    mut plan: impl FnMut(&Sdn, &MulticastRequest) -> Admission,
) -> (Sdn, Vec<Admission>) {
    let mut active = ActiveSessions::new();
    let mut decisions = Vec::with_capacity(stream.len());
    for tr in stream {
        active.release_due(&mut sdn, tr.arrival);
        let adm = plan(&sdn, &tr.request);
        if let Admission::Admitted(tree) = &adm {
            let alloc = tree.allocation(&tr.request);
            sdn.allocate(&alloc).expect("admitted tree fits");
            active.insert(tr.request.id, tr.arrival + tr.duration, alloc);
        }
        decisions.push(adm);
    }
    (sdn, decisions)
}

/// [`replay`] with the paper's uncached `Appro_Multi_Cap`.
fn reference_stream(sdn: Sdn, stream: &[TimedRequest], k: usize) -> (Sdn, Vec<Admission>) {
    replay(sdn, stream, |sdn, req| appro_multi_cap(sdn, req, k))
}

/// [`replay`] with the cached planner over one fresh `PathCache`.
fn cached_reference_stream(sdn: Sdn, stream: &[TimedRequest], k: usize) -> (Sdn, Vec<Admission>) {
    let mut cache = PathCache::new(&sdn);
    replay(sdn, stream, |sdn, req| {
        appro_multi_cap_cached(sdn, req, k, &mut cache)
    })
}

/// A Barabási–Albert network (two links per new node) with 10 % servers
/// and every link cost 1: shortest paths are hop counts, so a source
/// often reaches a server along several equal-cost paths.
fn unit_cost_network(n: usize, seed: u64) -> Sdn {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = barabasi_albert(n, 2, &mut rng);
    let servers = place_servers_random(&g, 0.1, &mut rng);
    let params = AnnotationParams {
        link_cost: (1.0, 1.0),
        ..AnnotationParams::default()
    };
    annotate(&g, &servers, &params, &mut rng).expect("annotation is well-formed")
}

/// Unit link costs make the two planners' tie rules part of the
/// decisions: on some streams the uncached replay routes an ingress
/// differently from the cached one. The pipeline follows the cached
/// planner in inline mode and with workers alike.
#[test]
fn unit_cost_ties_follow_the_cached_planner_in_every_mode() {
    let n = 30;
    let fresh = unit_cost_network(n, 420);
    let mut diverged = 0;
    for seed in 0..8 {
        let stream = timed_stream(n, 30, seed, 4.0);
        let (_, uncached) = reference_stream(fresh.clone(), &stream, 2);
        let (ref_net, cached) = cached_reference_stream(fresh.clone(), &stream, 2);
        diverged += usize::from(uncached != cached);
        for workers in [0, 1, 3] {
            let config = PipelineConfig::new(2).with_workers(workers).with_window(4);
            let mut pipeline = AdmissionPipeline::launch(fresh.clone(), config);
            for tr in &stream {
                pipeline.push(tr.clone());
            }
            let out = pipeline.finish();
            assert_eq!(out.decisions, cached, "seed {seed}, workers {workers}");
            assert_eq!(out.sdn, ref_net, "seed {seed}, workers {workers}");
        }
    }
    assert!(diverged > 0, "unit costs must give the tie rule a say");
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

/// An equal-cost diamond in front of one server `m`: `s–a–m` costs
/// `1 + 2` and `s–b–m` costs `2 + 1`, so a run at `s` reaches `m` through
/// `a` while the run at `m` reaches `s` through `b` — the uncached and
/// the cached planner route the ingress differently. `dests`
/// destinations hang off `m` at cost 1. Every link carries one session
/// of bandwidth `b` but not two (capacity `b·(1 + slack)`, `slack < 1`).
/// Returns the network, `s` and the destinations.
fn tie_diamond_sdn(b: f64, slack: f64, dests: usize) -> (Sdn, NodeId, Vec<NodeId>) {
    let cap = b * (1.0 + slack);
    let mut bld = SdnBuilder::new();
    let s = bld.add_switch();
    let m = bld.add_server(1e9, 1.0);
    let a = bld.add_switch();
    let c = bld.add_switch();
    bld.add_link(s, a, cap, 1.0).unwrap();
    bld.add_link(a, m, cap, 2.0).unwrap();
    bld.add_link(s, c, cap, 2.0).unwrap();
    bld.add_link(c, m, cap, 1.0).unwrap();
    let d = (0..dests)
        .map(|_| {
            let d = bld.add_switch();
            bld.add_link(m, d, cap, 1.0).unwrap();
            d
        })
        .collect();
    (bld.build().unwrap(), s, d)
}

/// `rounds` pairs of a loader then a victim: identical requests from
/// `s` to `d` of bandwidth `b`, one time unit apart, each held for half
/// a unit, so every loader departs before its victim arrives.
fn loader_victim_stream(s: NodeId, d: &[NodeId], b: f64, rounds: usize) -> Vec<TimedRequest> {
    let chain = ServiceChain::new(vec![NfvType::Firewall]);
    (0..2 * rounds as u64)
        .map(|i| {
            let req = MulticastRequest::new(RequestId(i), s, d.to_vec(), b, chain.clone());
            TimedRequest::new(req, i as f64, 0.5)
        })
        .collect()
}

/// Pushes a [`loader_victim_stream`] through a pipeline that republishes
/// its snapshot on every mutation, committing (`drain`) each loader
/// before its victim is pushed: the victim is planned on a snapshot that
/// holds the loader's load, and its commit first releases it.
fn run_rounds(
    fresh: Sdn,
    stream: &[TimedRequest],
    workers: usize,
    window: usize,
) -> PipelineOutcome {
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
    pipeline.finish()
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
        let stream = loader_victim_stream(s, &d, b, rounds);
        let (ref_net, ref_decisions) = reference_stream(fresh.clone(), &stream, 2);
        let out = run_rounds(fresh, &stream, workers, window);

        prop_assert!(ref_decisions.iter().all(|a| matches!(a, Admission::Admitted(_))));
        prop_assert_eq!(&out.decisions, &ref_decisions);
        prop_assert_eq!(&out.sdn, &ref_net);
        prop_assert!(
            out.report.replanned >= rounds,
            "each victim's plan is disturbed by the departure inside its window"
        );
    }

    /// The loader/victim rounds over the equal-cost diamond. The loader
    /// fills every link it crosses, so the victim's snapshot has no tree;
    /// the loader departs before the victim's commit, which re-plans on
    /// the full network. That re-plan must break the tie as the cached
    /// replay does, not as the uncached planner would.
    #[test]
    fn a_replan_breaks_ties_by_the_cached_rule(
        b in 20.0f64..200.0,
        slack in 0.0f64..0.9,
        dests in 1usize..4,
        rounds in 1usize..4,
        workers in 1usize..4,
        window in 1usize..6,
    ) {
        let (fresh, s, d) = tie_diamond_sdn(b, slack, dests);
        let stream = loader_victim_stream(s, &d, b, rounds);
        let (ref_net, ref_decisions) = cached_reference_stream(fresh.clone(), &stream, 2);
        let (_, uncached) = reference_stream(fresh.clone(), &stream, 2);
        // The diamond's tie matters: the uncached planner routes through `a`.
        prop_assert_ne!(&uncached, &ref_decisions);
        let out = run_rounds(fresh, &stream, workers, window);

        prop_assert!(ref_decisions.iter().all(|a| matches!(a, Admission::Admitted(_))));
        prop_assert_eq!(&out.decisions, &ref_decisions);
        prop_assert_eq!(&out.sdn, &ref_net);
        prop_assert!(out.report.replanned >= rounds);
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
        unit_costs in any::<bool>(),
    ) {
        let n = 30;
        // Mean holding of 4 interarrival times: sessions overlap and
        // plenty depart mid-stream.
        let stream = timed_stream(n, count, seed, 4.0);
        // On unit costs the reference is the cached replay: the
        // pipeline's tie rule.
        let (fresh, (ref_net, ref_decisions)) = if unit_costs {
            let fresh = unit_cost_network(n, 422);
            let reference = cached_reference_stream(fresh.clone(), &stream, 2);
            (fresh, reference)
        } else {
            let fresh = waxman_fixture(n, 420);
            let reference = reference_stream(fresh.clone(), &stream, 2);
            (fresh, reference)
        };

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
