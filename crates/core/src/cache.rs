//! Per-source shortest-path caching for the admission hot path.
//!
//! `Appro_Multi` spends almost all of its time in Dijkstra runs whose
//! inputs are *unit costs* — which never change — yet the sequential
//! admission loop recomputes them for every request. [`PathCache`] holds
//! a CSR snapshot of the topology plus one full [`ShortestPathTree`] per
//! requested source, and [`appro_multi_cached`] /
//! [`appro_multi_cap_cached`] drive the algorithms from it.
//!
//! ## Why the cached results are byte-identical
//!
//! * The CSR snapshot preserves adjacency order, so its Dijkstra relaxes
//!   edges in the same order as [`netgraph::dijkstra`] and produces
//!   bit-identical distance/predecessor arrays.
//! * `appro_multi` normally runs *early-exit* Dijkstra from each
//!   destination; the cache substitutes *full* trees. A settled node's
//!   distance and predecessor are final, and the algorithm only reads
//!   nodes that the early-exit run settles (destinations, source,
//!   candidate servers), so both variants agree exactly on every value
//!   read.
//! * Topology trees ignore residual capacities, so
//!   [`appro_multi_cap_cached`] may use them only when the request's
//!   residual-feasible subgraph *is* the full topology. The cache keeps a
//!   feasibility fingerprint — the minimum residual bandwidth over all
//!   links and minimum residual computing over all servers, keyed by
//!   [`Sdn::version`] and recomputed whenever residual capacities change
//!   (the invalidation rule) — making that check `O(1)` per request.
//!   Requests whose feasible subgraph is strictly smaller fall back to
//!   the uncached [`appro_multi_cap`], which is the definition of the
//!   sequential result.

use crate::appro_multi::appro_multi_with_spts;
use crate::{
    appro_multi_cap_plan_with_scratch, Admission, ApproScratch, CapPlan, PseudoMulticastTree,
};
use netgraph::{CsrGraph, DijkstraScratch, LandmarkOracle, NodeId, ShortestPathTree, SptCache};
use sdn::{MulticastRequest, Sdn};
use std::sync::Arc;

/// Residual-capacity fingerprint of one [`Sdn::version`].
#[derive(Debug, Clone, Copy)]
struct Fingerprint {
    version: u64,
    /// `min_e B_e(k)`: a request with `b_k` at most this loses no link.
    min_residual_bandwidth: f64,
    /// `min_{v ∈ V_S} C_v(k)`: a chain demanding at most this loses no
    /// server.
    min_residual_computing: f64,
    /// `false` while any link or server is failed — the full topology is
    /// then never the feasible subgraph, regardless of demands.
    all_alive: bool,
}

impl Fingerprint {
    /// Minima are taken over the **alive-masked** residual view: a failed
    /// link or server contributes `0.0`, so any request with positive
    /// demand fails the full-graph test and falls back to the (alive-aware)
    /// uncached algorithm. Topology trees never see dead elements.
    fn of(sdn: &Sdn) -> Self {
        Fingerprint {
            version: sdn.version(),
            min_residual_bandwidth: sdn.min_usable_bandwidth(),
            min_residual_computing: sdn.min_usable_computing(),
            all_alive: sdn.all_alive(),
        }
    }
}

/// A per-source shortest-path tree cache over one network's topology.
///
/// Build it once per network (or per worker over a shared snapshot) and
/// pass it to the `*_cached` admission entry points. The topology trees
/// themselves never go stale — unit costs are immutable — while the
/// residual-capacity fingerprint is re-read whenever [`Sdn::version`]
/// moves.
#[derive(Debug, Clone)]
pub struct PathCache {
    cache: SptCache,
    /// Optional landmark oracle over the same unit-cost snapshot; used to
    /// pre-select a promising server combination and seed the scan's
    /// branch-and-bound with its exact cost. Decisions stay byte-identical
    /// (the seed bound only prunes strictly-worse combinations).
    oracle: Option<LandmarkOracle>,
    fingerprint: Fingerprint,
    /// Combination-scan working memory, reused across requests.
    scratch: ApproScratch,
    /// Requests answered entirely from cached trees.
    fast_path: u64,
    /// Requests that fell back to the uncached capacitated algorithm.
    slow_path: u64,
}

/// Scaling knobs for [`PathCache`]. The default (`None` capacity, zero
/// landmarks) reproduces the original unbounded, oracle-free cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCacheOptions {
    /// Bound on resident shortest-path trees (`None` = unbounded). At 10k+
    /// nodes one tree is `Θ(n)` memory, so bound this to keep the cache
    /// from growing towards `Θ(n²)`.
    pub capacity: Option<usize>,
    /// Number of landmarks for the ALT distance oracle (0 = no oracle).
    /// 8–16 is plenty; construction costs one Dijkstra per landmark.
    pub landmarks: usize,
}

impl PathCache {
    /// Creates an unbounded, oracle-free cache over `sdn`'s topology.
    #[must_use]
    pub fn new(sdn: &Sdn) -> Self {
        PathCache::with_options(sdn, PathCacheOptions::default())
    }

    /// Creates a cache over `sdn`'s topology with explicit scaling knobs.
    #[must_use]
    pub fn with_options(sdn: &Sdn, options: PathCacheOptions) -> Self {
        let csr = CsrGraph::from_graph(sdn.graph());
        let oracle = (options.landmarks > 0)
            .then(|| LandmarkOracle::build(&csr, options.landmarks, &mut DijkstraScratch::new()));
        let cache = match options.capacity {
            Some(cap) => SptCache::with_capacity(csr, cap),
            None => SptCache::new(csr),
        };
        PathCache {
            cache,
            oracle,
            fingerprint: Fingerprint::of(sdn),
            scratch: ApproScratch::new(),
            fast_path: 0,
            slow_path: 0,
        }
    }

    /// Pins `source`'s tree against eviction in a bounded cache (no-op
    /// when unbounded). Pin the hot multicast sources — e.g. a session's
    /// ingress — so churn in destination queries cannot evict them.
    pub fn pin_source(&mut self, source: NodeId) {
        self.cache.pin(source);
    }

    /// Trees evicted from the bounded SPT cache since creation.
    #[must_use]
    pub fn spt_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Refreshes the residual fingerprint if `sdn` mutated since the last
    /// query.
    fn sync(&mut self, sdn: &Sdn) {
        if sdn.version() != self.fingerprint.version {
            self.fingerprint = Fingerprint::of(sdn);
        }
    }

    /// Returns `true` when a request with bandwidth `b` and computing
    /// demand `demand` keeps every link and server of `sdn` — i.e. its
    /// residual-feasible subgraph is the full topology.
    fn full_graph_feasible(&mut self, sdn: &Sdn, b: f64, demand: f64) -> bool {
        self.sync(sdn);
        self.fingerprint.all_alive
            && self.fingerprint.min_residual_bandwidth + sdn::CAPACITY_EPS >= b
            && self.fingerprint.min_residual_computing + sdn::CAPACITY_EPS >= demand
    }

    /// The [`Sdn::version`] the cache's residual fingerprint was last
    /// synced at. The invariant auditor compares this against the live
    /// network right after a cached admission is served.
    #[must_use]
    pub fn synced_version(&self) -> u64 {
        self.fingerprint.version
    }

    /// The cached full shortest-path tree rooted at `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a node of the cached topology.
    pub fn spt(&mut self, source: NodeId) -> Arc<ShortestPathTree> {
        self.cache.spt(source)
    }

    /// Shortest-path tree cache hits (per-source queries answered without
    /// a Dijkstra run).
    #[must_use]
    pub fn spt_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Shortest-path tree cache misses.
    #[must_use]
    pub fn spt_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Requests served entirely from cached trees by
    /// [`appro_multi_cap_cached`].
    #[must_use]
    pub fn fast_path_count(&self) -> u64 {
        self.fast_path
    }

    /// Requests that fell back to the uncached algorithm.
    #[must_use]
    pub fn slow_path_count(&self) -> u64 {
        self.slow_path
    }
}

/// [`crate::appro_multi`] driven by cached shortest-path trees.
///
/// Byte-identical to the uncached version; `cache` must have been built
/// from (a clone of) `sdn`'s topology.
///
/// # Panics
///
/// Panics if `k == 0` or if `cache` was built from a different topology.
#[must_use]
pub fn appro_multi_cached(
    sdn: &Sdn,
    request: &MulticastRequest,
    k: usize,
    cache: &mut PathCache,
) -> Option<PseudoMulticastTree> {
    assert!(k >= 1, "at least one server is required (K >= 1)");
    assert_eq!(
        cache.cache.csr().node_count(),
        sdn.node_count(),
        "cache topology does not match the network"
    );
    let spt_source = cache.spt(request.source);
    let spt_dests: Vec<Arc<ShortestPathTree>> =
        request.destinations.iter().map(|&d| cache.spt(d)).collect();
    let dest_refs: Vec<&ShortestPathTree> = spt_dests.iter().map(Arc::as_ref).collect();
    // Oracle mode: pre-evaluate one promising singleton exactly and seed
    // the branch-and-bound with its cost, so pruning fires from the very
    // first combination instead of only after the first evaluation.
    let initial_bound = match &cache.oracle {
        Some(oracle) => match oracle_seed_server(sdn, request, &spt_source, oracle) {
            Some(seed) => appro_multi_with_spts(
                sdn,
                request,
                1,
                &[seed],
                &spt_source,
                &dest_refs,
                &mut cache.scratch,
                f64::INFINITY,
            )
            .map_or(f64::INFINITY, |t| t.total_cost()),
            None => f64::INFINITY,
        },
        None => f64::INFINITY,
    };
    appro_multi_with_spts(
        sdn,
        request,
        k,
        sdn.servers(),
        &spt_source,
        &dest_refs,
        &mut cache.scratch,
        initial_bound,
    )
}

/// Picks the server minimising the oracle's estimate of a singleton
/// pseudo-tree cost: exact ingress (source tree is resident) plus
/// admissible per-destination attach bounds. The estimate only chooses
/// *which* singleton to pre-evaluate — correctness never depends on it.
fn oracle_seed_server(
    sdn: &Sdn,
    request: &MulticastRequest,
    spt_source: &ShortestPathTree,
    oracle: &LandmarkOracle,
) -> Option<NodeId> {
    let b = request.bandwidth;
    let demand = request.computing_demand();
    let mut best: Option<(f64, NodeId)> = None;
    for &v in sdn.servers() {
        let Some(dist) = spt_source.distance(v) else {
            continue;
        };
        let Some(unit) = sdn.unit_computing_cost(v) else {
            continue;
        };
        let mut score = dist * b + unit * demand;
        for &d in &request.destinations {
            score += b * oracle.lower_bound(d, v);
        }
        if best.is_none_or(|(s, _)| score < s) {
            best = Some((score, v));
        }
    }
    best.map(|(_, v)| v)
}

/// [`appro_multi_cap`](crate::appro_multi_cap) driven by cached shortest-path trees where valid.
///
/// Byte-identical to the uncached version: the cached fast path runs only
/// when the request's residual-feasible subgraph equals the full topology
/// (checked in `O(1)` against the version-keyed fingerprint); every other
/// request is delegated to [`appro_multi_cap`](crate::appro_multi_cap) unchanged.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn appro_multi_cap_cached(
    sdn: &Sdn,
    request: &MulticastRequest,
    k: usize,
    cache: &mut PathCache,
) -> Admission {
    // Accumulated loads (ingress overlapping distribution) are resolved
    // against the live residual state, exactly as the uncached path does.
    appro_multi_cap_plan_cached(sdn, request, k, cache).admit(sdn, request)
}

/// The planning pass of [`appro_multi_cap_cached`] alone: the tree (or
/// absence of one) on the residual-feasible subgraph, *without* the final
/// accumulated-load check — see [`CapPlan`]. Byte-identical to
/// [`crate::appro_multi_cap_plan_with_scratch`] on the same state.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
// lint:entry(api)
pub fn appro_multi_cap_plan_cached(
    sdn: &Sdn,
    request: &MulticastRequest,
    k: usize,
    cache: &mut PathCache,
) -> CapPlan {
    assert!(k >= 1, "at least one server is required (K >= 1)");
    let b = request.bandwidth;
    let demand = request.computing_demand();
    if !cache.full_graph_feasible(sdn, b, demand) {
        cache.slow_path += 1;
        telemetry::hit(telemetry::Counter::PathCacheSlowPath);
        return appro_multi_cap_plan_with_scratch(sdn, request, k, &mut cache.scratch);
    }
    cache.fast_path += 1;
    telemetry::hit(telemetry::Counter::PathCacheFastPath);
    // Nothing is filtered: the feasible subgraph is the full network, so
    // Algorithm 1 over cached topology trees reproduces the capacitated
    // run exactly (edge ids map to themselves).
    match appro_multi_cached(sdn, request, k, cache) {
        Some(tree) => CapPlan::Tree(tree),
        None => CapPlan::NoTree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{appro_multi, appro_multi_cap};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sdn::{Allocation, NfvType, RequestId, SdnBuilder, ServiceChain};

    fn chain() -> ServiceChain {
        ServiceChain::new(vec![NfvType::Firewall])
    }

    fn random_net(seed: u64, n: usize) -> Sdn {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bld = SdnBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| bld.add_switch()).collect();
        for i in 0..n {
            bld.add_link(
                nodes[i],
                nodes[(i + 1) % n],
                1_000.0,
                rng.gen_range(0.5..2.0),
            )
            .unwrap();
        }
        for _ in 0..n / 2 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                bld.add_link(nodes[u], nodes[v], 1_000.0, rng.gen_range(0.5..2.0))
                    .unwrap();
            }
        }
        for i in (0..n).step_by(3) {
            bld.attach_server(nodes[i], 4_000.0, rng.gen_range(0.5..2.0))
                .unwrap();
        }
        bld.build().unwrap()
    }

    fn random_request(rng: &mut StdRng, id: u64, n: usize) -> MulticastRequest {
        let src = rng.gen_range(0..n);
        let mut dests = Vec::new();
        while dests.len() < 2 {
            let d = rng.gen_range(0..n);
            if d != src {
                dests.push(NodeId::new(d));
            }
        }
        MulticastRequest::new(
            RequestId(id),
            NodeId::new(src),
            dests,
            rng.gen_range(20.0..120.0),
            chain(),
        )
    }

    #[test]
    fn cached_appro_multi_matches_uncached() {
        for seed in 0..8u64 {
            let sdn = random_net(seed, 15);
            let mut cache = PathCache::new(&sdn);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            for i in 0..12 {
                let req = random_request(&mut rng, i, 15);
                for k in 1..=2 {
                    let fresh = appro_multi(&sdn, &req, k);
                    let cached = appro_multi_cached(&sdn, &req, k, &mut cache);
                    assert_eq!(fresh, cached, "seed {seed} req {i} k {k}");
                }
            }
            assert!(cache.spt_hits() > 0, "repeated sources should hit");
        }
    }

    #[test]
    fn cached_cap_matches_uncached_under_load() {
        for seed in 0..6u64 {
            let mut plain = random_net(seed, 12);
            let mut cached_net = plain.clone();
            let mut cache = PathCache::new(&cached_net);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
            for i in 0..30 {
                let req = random_request(&mut rng, i, 12);
                let fresh = appro_multi_cap(&plain, &req, 2);
                let fast = appro_multi_cap_cached(&cached_net, &req, 2, &mut cache);
                assert_eq!(fresh, fast, "seed {seed} req {i}");
                if let Admission::Admitted(tree) = &fresh {
                    plain.allocate(&tree.allocation(&req)).unwrap();
                    cached_net.allocate(&tree.allocation(&req)).unwrap();
                }
            }
            // As the network fills, both the fast and slow paths must have
            // been exercised for the comparison to mean anything.
            assert!(cache.fast_path_count() > 0, "seed {seed}: no fast path");
        }
    }

    #[test]
    fn fingerprint_invalidates_on_capacity_change() {
        let sdn0 = random_net(1, 9);
        let mut sdn = sdn0.clone();
        let mut cache = PathCache::new(&sdn);
        let req = MulticastRequest::new(
            RequestId(0),
            NodeId::new(1),
            vec![NodeId::new(4)],
            900.0,
            chain(),
        );
        assert!(cache.full_graph_feasible(&sdn, 900.0, 1.0));
        // Saturate one link: the fingerprint must pick it up.
        let mut a = Allocation::new(RequestId(9));
        a.add_link(netgraph::EdgeId::new(0), 500.0);
        sdn.allocate(&a).unwrap();
        assert!(!cache.full_graph_feasible(&sdn, 900.0, 1.0));
        // And the cached admission still equals the fresh one.
        assert_eq!(
            appro_multi_cap(&sdn, &req, 1),
            appro_multi_cap_cached(&sdn, &req, 1, &mut cache)
        );
        assert!(cache.slow_path_count() > 0);
    }

    #[test]
    fn failure_forces_slow_path_and_stays_identical() {
        let mut sdn = random_net(3, 12);
        let mut cache = PathCache::new(&sdn);
        let mut rng = StdRng::seed_from_u64(99);
        let req = random_request(&mut rng, 0, 12);
        // Warm run on the healthy network: fast path.
        let _ = appro_multi_cap_cached(&sdn, &req, 2, &mut cache);
        assert!(cache.fast_path_count() > 0);
        // Fail a link: every subsequent request must take the slow path and
        // still match the uncached decision exactly.
        sdn.fail_link(netgraph::EdgeId::new(0)).unwrap();
        let before_slow = cache.slow_path_count();
        for i in 1..8 {
            let req = random_request(&mut rng, i, 12);
            assert_eq!(
                appro_multi_cap(&sdn, &req, 2),
                appro_multi_cap_cached(&sdn, &req, 2, &mut cache),
                "req {i} diverged on failed network"
            );
        }
        assert_eq!(cache.slow_path_count(), before_slow + 7);
        assert_eq!(cache.synced_version(), sdn.version());
        // Recovery re-enables the fast path.
        sdn.recover_link(netgraph::EdgeId::new(0)).unwrap();
        let fast_before = cache.fast_path_count();
        let req = random_request(&mut rng, 9, 12);
        let _ = appro_multi_cap_cached(&sdn, &req, 2, &mut cache);
        assert_eq!(cache.fast_path_count(), fast_before + 1);
    }

    #[test]
    fn capacity_one_cache_produces_byte_identical_plans() {
        // Regression for unbounded SptCache growth: a capacity-1 cache
        // thrashes on every query yet must plan exactly like the default.
        for seed in 0..4u64 {
            let mut plain_net = random_net(seed, 14);
            let mut bounded_net = plain_net.clone();
            let mut unbounded = PathCache::new(&plain_net);
            let mut bounded = PathCache::with_options(
                &bounded_net,
                PathCacheOptions {
                    capacity: Some(1),
                    landmarks: 0,
                },
            );
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB0B);
            for i in 0..20 {
                let req = random_request(&mut rng, i, 14);
                let a = appro_multi_cap_cached(&plain_net, &req, 2, &mut unbounded);
                let b = appro_multi_cap_cached(&bounded_net, &req, 2, &mut bounded);
                assert_eq!(a, b, "seed {seed} req {i}");
                if let Admission::Admitted(tree) = &a {
                    plain_net.allocate(&tree.allocation(&req)).unwrap();
                    bounded_net.allocate(&tree.allocation(&req)).unwrap();
                }
            }
            assert!(
                bounded.spt_evictions() > 0,
                "seed {seed}: cache never thrashed"
            );
        }
    }

    #[test]
    fn oracle_seeded_cache_matches_default() {
        for seed in 0..4u64 {
            let mut plain_net = random_net(seed, 15);
            let mut oracle_net = plain_net.clone();
            let mut plain = PathCache::new(&plain_net);
            let mut seeded = PathCache::with_options(
                &oracle_net,
                PathCacheOptions {
                    capacity: Some(4),
                    landmarks: 6,
                },
            );
            let mut rng = StdRng::seed_from_u64(seed ^ 0x07AC);
            for i in 0..20 {
                let req = random_request(&mut rng, i, 15);
                for k in 1..=2 {
                    assert_eq!(
                        appro_multi_cached(&plain_net, &req, k, &mut plain),
                        appro_multi_cached(&oracle_net, &req, k, &mut seeded),
                        "seed {seed} req {i} k {k}"
                    );
                }
                let a = appro_multi_cap_cached(&plain_net, &req, 2, &mut plain);
                let b = appro_multi_cap_cached(&oracle_net, &req, 2, &mut seeded);
                assert_eq!(a, b, "seed {seed} req {i} cap");
                if let Admission::Admitted(tree) = &a {
                    plain_net.allocate(&tree.allocation(&req)).unwrap();
                    oracle_net.allocate(&tree.allocation(&req)).unwrap();
                }
            }
        }
    }

    #[test]
    fn pinned_source_survives_thrash() {
        let sdn = random_net(2, 12);
        let mut cache = PathCache::with_options(
            &sdn,
            PathCacheOptions {
                capacity: Some(2),
                landmarks: 0,
            },
        );
        cache.pin_source(NodeId::new(0));
        let _ = cache.spt(NodeId::new(0));
        for i in 1..12 {
            let _ = cache.spt(NodeId::new(i));
        }
        let hits_before = cache.spt_hits();
        let _ = cache.spt(NodeId::new(0));
        assert_eq!(cache.spt_hits(), hits_before + 1, "pinned tree was evicted");
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn topology_mismatch_is_rejected() {
        let small = random_net(0, 6);
        let big = random_net(0, 12);
        let mut cache = PathCache::new(&small);
        let req = MulticastRequest::new(
            RequestId(0),
            NodeId::new(0),
            vec![NodeId::new(5)],
            10.0,
            chain(),
        );
        let _ = appro_multi_cached(&big, &req, 1, &mut cache);
    }
}
