//! Host-independent work bounds for the two planners' hot scans, counted
//! with the telemetry counters instead of timed.
//!
//! * `Online_CP` on the 5 120-node k = 64 fat-tree: the exact candidate
//!   scan runs at most `Σ (1 + |D_k|)` Dijkstras (one per source and
//!   destination, none per server, since each admission shares one tree
//!   per anchor terminal and puts the server last in KMB), and the
//!   landmark-oracle scan decides exactly like it, request by request.
//! * `Appro_Multi` on the paper's Fig. 5 setting (250-switch Waxman,
//!   K = 3): the pruned scan plans exactly like the unpruned audit scan,
//!   evaluates at most [`FIG5_PRUNED_COMBOS`] combinations, and both of
//!   its skips — the lower bounds and winner-vector dedup — fire.
//! * The cached `Appro_Multi` on the k = 64 fat-tree: once the server
//!   trees are resident, a decision runs at most `|D_k|` Dijkstras (one
//!   per destination, none for the source, whose ingress row is read up
//!   the server trees), and plans exactly like the uncached `appro_multi`.
//!
//! One `#[test]` only: `DijkstraRuns` and the `Combos*` counters are
//! process-wide, which a concurrently running test would inflate.

use nfv_multicast::{appro_multi, appro_multi_cached, appro_multi_unpruned, PathCache};
use nfv_online::{OnlineAlgorithm, OnlineCp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use telemetry::Counter;
use workload::RequestGenerator;

/// Combinations the pruned fig5 scan evaluates over its 12 requests, out
/// of 12 × Σ_{i≤3} C(25, i) = 31 500 that the unpruned scan evaluates.
/// A one-way ratchet: lower it when pruning improves, never raise it.
const FIG5_PRUNED_COMBOS: u64 = 7_655;

/// Runs `f` and returns its result with how far `counter` moved.
fn counted<T>(counter: Counter, f: impl FnOnce() -> T) -> (T, u64) {
    let before = telemetry::counter_value(counter);
    let out = f();
    (out, telemetry::counter_value(counter) - before)
}

fn fat_tree_online_cp_within_anchor_bound() {
    let sdn = sim::fat_tree_sdn(64, 32, 0);
    let n = sdn.node_count();
    assert_eq!(n, 5_120);
    let mut rng = StdRng::seed_from_u64(3);
    let requests = RequestGenerator::new(n)
        .with_dmax_ratio(0.001)
        .generate_batch(6, &mut rng);

    let (mut exact_net, mut oracle_net) = (sdn.clone(), sdn);
    let mut exact = OnlineCp::new();
    let mut oracle = OnlineCp::new().with_oracle(8);
    let (mut runs, mut bound, mut admitted) = (0, 0, 0);
    for req in &requests {
        bound += 1 + req.destinations.len() as u64;
        let (tree, r) = counted(Counter::DijkstraRuns, || exact.admit(&exact_net, req));
        runs += r;
        assert_eq!(
            oracle.admit(&oracle_net, req),
            tree,
            "oracle scan diverged from the exact scan on request {}",
            req.id
        );
        if let Some(tree) = tree {
            let alloc = tree.allocation(req);
            exact_net.allocate(&alloc).expect("admitted tree allocates");
            oracle_net
                .allocate(&alloc)
                .expect("admitted tree allocates");
            admitted += 1;
        }
    }
    assert!(
        runs <= bound,
        "the exact scan ran {runs} Dijkstras, above the anchor bound {bound}"
    );
    assert!(admitted > 0, "the fat-tree fixture admits nothing");
}

fn fig5_pruned_scan_within_combination_budget() {
    let sdn = sim::waxman_sdn(250, 0);
    let skipped = || {
        let pruned = telemetry::counter_value(Counter::CombosPrunedLb1)
            + telemetry::counter_value(Counter::CombosPrunedLb2);
        (pruned, telemetry::counter_value(Counter::CombosDeduped))
    };
    let before = skipped();
    let mut evaluated = 0;
    for ratio in [0.10, 0.15, 0.20] {
        let mut rng = StdRng::seed_from_u64(5);
        let requests = RequestGenerator::new(250)
            .with_dmax_ratio(ratio)
            .generate_batch(4, &mut rng);
        for req in &requests {
            let (pruned, combos) = counted(Counter::CombosEvaluated, || appro_multi(&sdn, req, 3));
            evaluated += combos;
            assert_eq!(
                pruned,
                appro_multi_unpruned(&sdn, req, 3),
                "pruned and unpruned scans diverged at ratio {ratio}, request {}",
                req.id
            );
        }
    }
    assert!(
        evaluated <= FIG5_PRUNED_COMBOS,
        "the pruned scan evaluated {evaluated} combinations, above {FIG5_PRUNED_COMBOS}"
    );
    // The unpruned scan skips nothing, so every skip is the pruned one's.
    let after = skipped();
    let (pruned, deduped) = (after.0 - before.0, after.1 - before.1);
    assert!(pruned > 0, "the lower bounds never pruned a combination");
    assert!(deduped > 0, "winner-vector dedup never fired");
}

fn fat_tree_cached_appro_multi_runs_no_source_tree() {
    let sdn = sim::fat_tree_sdn(64, 32, 0);
    let n = sdn.node_count();
    let mut cache = PathCache::new(&sdn);
    for &v in sdn.servers() {
        let _ = cache.spt(v);
    }
    let mut rng = StdRng::seed_from_u64(7);
    let requests = RequestGenerator::new(n)
        .with_dmax_ratio(0.001)
        .generate_batch(6, &mut rng);
    for req in &requests {
        let (tree, runs) = counted(Counter::DijkstraRuns, || {
            appro_multi_cached(&sdn, req, 2, &mut cache)
        });
        let dests = req.destinations.len() as u64;
        assert!(
            runs <= dests,
            "request {} ran {runs} Dijkstras for {dests} destinations",
            req.id
        );
        assert_eq!(
            tree,
            appro_multi(&sdn, req, 2),
            "the cached plan diverged from the uncached one on request {}",
            req.id
        );
    }
}

#[test]
fn planner_scans_stay_within_their_work_bounds() {
    telemetry::enable();
    fat_tree_online_cp_within_anchor_bound();
    fig5_pruned_scan_within_combination_budget();
    fat_tree_cached_appro_multi_runs_no_source_tree();
}
