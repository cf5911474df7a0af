//! Per-source shortest-path caching for the admission hot path.
//!
//! `Appro_Multi` spends almost all of its time in Dijkstra runs whose
//! inputs are *unit costs* — which never change — yet the sequential
//! admission loop recomputes them for every request. [`PathCache`] holds
//! a CSR snapshot of the topology plus one [`ShortestPathTree`] per
//! requested root, kept as its predecessor edges, and [`appro_multi_cached`] /
//! [`appro_multi_cap_cached`] drive the algorithms from it. The roots are
//! the servers, whose trees serve every request's ingress side, and the
//! destinations; a request's source needs no tree of its own.
//!
//! ## Why the cached results are byte-identical under unique shortest paths
//!
//! * The CSR snapshot preserves adjacency order, so its Dijkstra relaxes
//!   edges in the same order as [`netgraph::dijkstra`] and produces
//!   bit-identical distance/predecessor arrays. A hit rebuilds a stored
//!   tree's distances from its predecessor edges with the kernel's own
//!   additions in the kernel's own order, so it is bit-identical too.
//! * The ingress row — `dist(s_k, v)` and the `s_k → v` path of every
//!   server `v` — is read from `v`'s resident tree: the walk up `s_k`'s
//!   predecessor chain to `v`, reversed, folding the weights from `s_k`
//!   outward ([`SptCache::path_to_root`]). Whenever the shortest
//!   `s_k`–`v` path is unique, that chain is the path a Dijkstra run at
//!   `s_k` settles `v` along, and the fold repeats its additions in its
//!   order, so both values are bit-identical to the uncached ones
//!   (DESIGN.md §9.1). On equal-cost paths the chain is `v`'s kernel's
//!   tie choice reversed, which may differ from the source kernel's. The
//!   distance then still agrees whenever the weights add exactly
//!   (integer weights, say), but the ingress edges — and with them the
//!   ingress union and possibly the chosen tree — may not.
//! * `appro_multi` normally runs *early-exit* Dijkstra from each
//!   destination; the cache substitutes *full* trees. A settled node's
//!   distance and predecessor are final, and the algorithm only reads
//!   nodes that the early-exit run settles (destinations, source,
//!   candidate servers), so both variants agree exactly on every value
//!   read.
//! * Topology trees ignore residual capacities, so
//!   [`appro_multi_cap_cached`] may use them only when the request's
//!   residual-feasible subgraph *is* the full topology. The cache keeps a
//!   feasibility fingerprint — whether every element is alive, the
//!   minimum residual bandwidth over all links and minimum residual
//!   computing over all servers, keyed by [`Sdn::version`] and recomputed
//!   whenever residual capacities change (the invalidation rule) —
//!   making that check `O(1)` per request: the minima pass
//!   [`sdn::fits`], the predicate behind [`Sdn::link_fits`] and
//!   [`Sdn::server_fits`], exactly when every element does. Requests
//!   whose feasible subgraph is strictly smaller fall back to the
//!   uncached [`appro_multi_cap`], which is the definition of the
//!   sequential result.

use crate::appro_multi::{appro_multi_scan, priced_servers, IngressTable};
use crate::{appro_multi_cap_plan_excluding, Admission, CapPlan, PseudoMulticastTree};
use netgraph::{CsrGraph, NodeId, ShortestPathTree, SptCache};
use sdn::{fits, MulticastRequest, Sdn, Topology};
use std::collections::BTreeSet;
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
    /// Minima are taken over the live residuals (a failed link or server
    /// contributes `0.0`); a failed element also clears `all_alive`, so
    /// any request then falls back to the (alive-aware) uncached
    /// algorithm. Topology trees never see dead elements.
    fn of(sdn: &Sdn) -> Self {
        Fingerprint {
            version: sdn.version(),
            min_residual_bandwidth: sdn.min_live_bandwidth(),
            min_residual_computing: sdn.min_live_computing(),
            all_alive: sdn.all_alive(),
        }
    }
}

/// A per-root shortest-path tree cache over one network's topology.
///
/// Build it once per network and pass it to the `*_cached` admission
/// entry points; planner threads each take a [`PathCache::share`] of one
/// cache, so a tree any of them computed serves them all. The topology
/// trees themselves never go stale — unit costs are immutable — while the
/// residual-capacity fingerprint is re-read whenever [`Sdn::version`]
/// moves. `Clone` is a deep copy (see [`SptCache`]).
///
/// Each resident tree costs 4 bytes a node, its predecessor edge ids
/// (see [`SptCache`]): 20 KiB on the 5 120-node fat-tree, where one
/// 400-request pipeline pass keeps about 1 400 of them — the 32 server
/// trees, built once, and the destinations' — and builds no tree for a
/// request's source. A hit rebuilds a destination tree's distances bit
/// for bit; the ingress side reads the server trees' predecessor chains
/// alone. Paths are read against `sdn.graph()`, whose ids the CSR
/// snapshot shares.
#[derive(Debug, Clone)]
pub struct PathCache {
    cache: SptCache,
    /// The current request's ingress row, refilled per request.
    ingress: IngressTable,
    /// The topology the trees were computed on; a query on any other
    /// network panics rather than plan on the wrong trees.
    topology: Arc<Topology>,
    fingerprint: Fingerprint,
    /// Requests answered entirely from cached trees.
    fast_path: u64,
    /// Requests that fell back to the uncached capacitated algorithm.
    slow_path: u64,
}

impl PathCache {
    /// Creates an empty cache over `sdn`'s topology.
    #[must_use]
    pub fn new(sdn: &Sdn) -> Self {
        PathCache {
            cache: SptCache::new(CsrGraph::from_graph(sdn.graph())),
            ingress: IngressTable::default(),
            topology: Arc::clone(sdn.topology()),
            fingerprint: Fingerprint::of(sdn),
            fast_path: 0,
            slow_path: 0,
        }
    }

    /// A sibling handle on the same tree store: trees either handle
    /// computes are hits for the other. The new handle starts its
    /// counters at zero.
    #[must_use]
    pub fn share(&self) -> Self {
        PathCache {
            cache: self.cache.share(),
            ingress: IngressTable::default(),
            topology: Arc::clone(&self.topology),
            fingerprint: self.fingerprint,
            fast_path: 0,
            slow_path: 0,
        }
    }

    /// Returns `true` when `sdn` has the topology this cache was built
    /// on: the same shared [`Topology`] (every clone of one network), or
    /// failing that an equal one.
    fn serves(&self, sdn: &Sdn) -> bool {
        Arc::ptr_eq(&self.topology, sdn.topology()) || *self.topology == **sdn.topology()
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
    /// residual-feasible subgraph is the full topology: every
    /// [`Sdn::link_fits`] and [`Sdn::server_fits`] holds.
    fn full_graph_feasible(&mut self, sdn: &Sdn, b: f64, demand: f64) -> bool {
        self.sync(sdn);
        self.fingerprint.all_alive
            && fits(self.fingerprint.min_residual_bandwidth, b)
            && fits(self.fingerprint.min_residual_computing, demand)
    }

    /// The cached full shortest-path tree rooted at `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a node of the cached topology.
    pub fn spt(&mut self, source: NodeId) -> ShortestPathTree {
        self.cache.spt(source)
    }

    /// Shortest-path tree cache hits: per-root tree queries answered
    /// without a Dijkstra run. An ingress read of a resident server tree
    /// fetches no tree and counts nothing.
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

/// [`crate::appro_multi`] driven by cached shortest-path trees: the
/// ingress side from the resident server trees, the distribution side
/// from the destinations' trees. No tree is built for the source.
///
/// Byte-identical to the uncached version whenever every shortest path
/// from the source to a server is unique. On equal-cost paths a server's
/// ingress is the server's own tree path, reversed, which may differ
/// from the path a run at the source picks (DESIGN.md §9.1). `cache`
/// must have been built from (a clone of) `sdn`'s topology.
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
    assert!(
        cache.serves(sdn),
        "cache topology does not match the network"
    );
    let servers = priced_servers(sdn);
    let PathCache {
        cache: trees,
        ingress,
        ..
    } = cache;
    ingress.fill(&servers, |v, path| {
        trees.path_to_root(v, request.source, path)
    });
    let dest_refs: Vec<&ShortestPathTree> = trees.trees(&request.destinations).iter().collect();
    appro_multi_scan(sdn.graph(), request, k, &servers, ingress, &dest_refs, true)
}

/// [`appro_multi_cap`](crate::appro_multi_cap) driven by cached shortest-path trees where valid.
///
/// The cached fast path runs only when the request's residual-feasible
/// subgraph equals the full topology (checked in `O(1)` against the
/// version-keyed fingerprint), and is then [`appro_multi_cached`]:
/// byte-identical to the uncached version whenever every shortest path
/// from the source to a server is unique, and otherwise following the
/// tie rule of [`appro_multi_cached`]. Every other request is delegated to
/// [`appro_multi_cap`](crate::appro_multi_cap) unchanged.
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
/// [`appro_multi_cap_plan_excluding`] with nothing excluded on the same
/// state under the same condition as [`appro_multi_cap_cached`]: every
/// shortest source–server path unique.
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
        return appro_multi_cap_plan_excluding(sdn, request, k, &BTreeSet::new());
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
        assert_eq!(cache.fingerprint.version, sdn.version());
        // Recovery re-enables the fast path.
        sdn.recover_link(netgraph::EdgeId::new(0)).unwrap();
        let fast_before = cache.fast_path_count();
        let req = random_request(&mut rng, 9, 12);
        let _ = appro_multi_cap_cached(&sdn, &req, 2, &mut cache);
        assert_eq!(cache.fast_path_count(), fast_before + 1);
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

    #[test]
    #[should_panic(expected = "does not match")]
    fn same_size_topology_mismatch_is_rejected() {
        let built_on = random_net(0, 12);
        let other = random_net(1, 12);
        assert_eq!(built_on.node_count(), other.node_count());
        let mut cache = PathCache::new(&built_on);
        let req = MulticastRequest::new(
            RequestId(0),
            NodeId::new(0),
            vec![NodeId::new(5)],
            10.0,
            chain(),
        );
        let _ = appro_multi_cached(&other, &req, 1, &mut cache);
    }

    #[test]
    fn shared_handles_plan_alike_and_share_trees() {
        let sdn = random_net(4, 15);
        let mut first = PathCache::new(&sdn);
        let mut second = first.share();
        let snapshot = sdn.clone();
        let mut rng = StdRng::seed_from_u64(0x5A1E);
        for i in 0..10 {
            let req = random_request(&mut rng, i, 15);
            let a = appro_multi_cap_cached(&sdn, &req, 2, &mut first);
            let b = appro_multi_cap_cached(&snapshot, &req, 2, &mut second);
            assert_eq!(a, b, "req {i}");
            assert_eq!(a, appro_multi_cap(&sdn, &req, 2), "req {i}");
        }
        // Every tree the second handle needed, the first had computed.
        assert_eq!(second.spt_misses(), 0);
        assert!(first.spt_misses() > 0);
    }
}
