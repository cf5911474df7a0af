//! Read-only compressed-sparse-row snapshot of a [`Graph`] and the
//! allocation-free Dijkstra that runs against it.
//!
//! [`Graph`] stores adjacency as `Vec<Vec<Neighbor>>` — one heap
//! allocation per node, and every relaxation chases `edges[..]` for the
//! weight. [`CsrGraph`] flattens that into an `offsets` array and one
//! packed arc array: each arc is a 16-byte `(head, edge, weight)` record,
//! so relaxing a node's arcs reads one contiguous run of memory. Paired
//! with a [`DijkstraScratch`], a shortest-path run performs **zero
//! allocations after warm-up** apart from the tree it returns. Arc order
//! within a node is exactly the adjacency order of the source graph, and
//! [`dijkstra_csr`] runs the same kernel as [`crate::dijkstra`], so the
//! two produce bit-identical distance and predecessor arrays.
//!
//! [`SptCache`] memoizes full shortest-path trees per source on top of a
//! snapshot; callers invalidate it when the weights they derived the
//! snapshot from change.

use crate::paths::{shortest_paths, Adjacency, DijkstraScratch, ShortestPathTree, Stop};
use crate::{EdgeId, Graph, NodeId};
use std::sync::Arc;

/// One directed arc of a [`CsrGraph`], packed into 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackedArc {
    /// Head node of the arc.
    head: NodeId,
    /// Edge id (both arcs of an undirected edge share it).
    edge: EdgeId,
    /// Weight, copied from the edge.
    weight: f64,
}

/// A read-only compressed-sparse-row view of a [`Graph`].
///
/// Node and edge ids are shared with the source graph; only the adjacency
/// layout differs. Building the snapshot is `O(n + m)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes the arcs leaving `v`.
    offsets: Vec<usize>,
    /// Every arc, grouped by tail node in node order.
    arcs: Vec<PackedArc>,
}

impl CsrGraph {
    /// Snapshots `g`, preserving the adjacency order of every node.
    #[must_use]
    pub fn from_graph(g: &Graph) -> Self {
        let mut offsets = Vec::with_capacity(g.node_count() + 1);
        let mut arcs = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for v in g.nodes() {
            arcs.extend(g.arcs_from(v).map(|(head, edge, weight)| PackedArc {
                head,
                edge,
                weight,
            }));
            offsets.push(arcs.len());
        }
        CsrGraph { offsets, arcs }
    }

    /// Builds a snapshot directly from an undirected edge list, without an
    /// intermediate [`Graph`]: edge `i` of the list gets [`EdgeId`] `i`,
    /// and the arc order within each node is the order its edges appear in
    /// the list — exactly the adjacency order [`Graph::add_edge`] would
    /// have produced, so this is equivalent to
    /// `CsrGraph::from_graph(&g)` for the graph built from the same list.
    ///
    /// Two counting-sort passes, `O(n + m)`, no per-node allocations; this
    /// is the entry point the scalable topology generators stream into.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or an edge is a self-loop.
    #[must_use]
    pub fn from_edge_list(nodes: usize, edges: &[(NodeId, NodeId, f64)]) -> Self {
        let mut degree = vec![0usize; nodes];
        for &(u, v, _) in edges {
            assert!(
                u.index() < nodes && v.index() < nodes,
                "edge endpoint out of range"
            );
            assert!(u != v, "self-loops are not supported");
            for end in [u, v] {
                if let Some(d) = degree.get_mut(end.index()) {
                    *d += 1;
                }
            }
        }
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        let mut acc = 0usize;
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        // cursor[v] = next free arc slot for v.
        let mut cursor: Vec<usize> = offsets
            .get(..nodes)
            .map(<[usize]>::to_vec)
            .unwrap_or_default();
        let blank = PackedArc {
            head: NodeId::new(0),
            edge: EdgeId::new(0),
            weight: 0.0,
        };
        let mut arcs = vec![blank; 2 * edges.len()];
        for (i, &(u, v, weight)) in edges.iter().enumerate() {
            let edge = EdgeId::new(i);
            for (from, head) in [(u, v), (v, u)] {
                let Some(c) = cursor.get_mut(from.index()) else {
                    continue;
                };
                if let Some(arc) = arcs.get_mut(*c) {
                    *arc = PackedArc { head, edge, weight };
                }
                *c += 1;
            }
        }
        CsrGraph { offsets, arcs }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed arcs (twice the undirected edge count).
    #[must_use]
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Returns `true` if `n` is a node of this snapshot.
    #[must_use]
    pub fn contains_node(&self, n: NodeId) -> bool {
        n.index() < self.node_count()
    }

    /// The arcs leaving `n`, as `(head, edge, weight)` triples in the
    /// source graph's adjacency order. Empty for a node outside the
    /// snapshot.
    pub fn arcs(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, f64)> + '_ {
        let i = n.index();
        let range = match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&lo), Some(&hi)) => lo..hi,
            _ => 0..0,
        };
        self.arcs
            .get(range)
            .unwrap_or_default()
            .iter()
            .map(|a| (a.head, a.edge, a.weight))
    }
}

impl Adjacency for CsrGraph {
    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    #[inline]
    fn arcs_from(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, f64)> {
        self.arcs(u)
    }
}

/// Dijkstra over a CSR snapshot: identical results to [`crate::dijkstra`]
/// on the source graph (one kernel serves both), with all working memory
/// drawn from `scratch`.
///
/// # Panics
///
/// Panics if `source` is not a node of `csr`.
#[must_use]
pub fn dijkstra_csr(
    csr: &CsrGraph,
    source: NodeId,
    scratch: &mut DijkstraScratch,
) -> ShortestPathTree {
    shortest_paths(csr, source, Stop::Never, scratch);
    scratch.tree(source)
}

/// [`dijkstra_csr`] with early exit once every node in `targets` is
/// settled — the CSR analogue of [`crate::dijkstra_with_targets`], with
/// the same rule: targets that are not nodes of `csr` are ignored.
///
/// # Panics
///
/// Panics if `source` is not a node of `csr`.
#[must_use]
pub fn dijkstra_csr_with_targets(
    csr: &CsrGraph,
    source: NodeId,
    targets: &[NodeId],
    scratch: &mut DijkstraScratch,
) -> ShortestPathTree {
    shortest_paths(csr, source, Stop::AllOf(targets), scratch);
    scratch.tree(source)
}

/// A per-source cache of full shortest-path trees over one CSR snapshot.
///
/// The cache answers every source with an `Arc` so workers can hold trees
/// across further queries without cloning the arrays. It knows nothing
/// about *why* its snapshot might go stale — the owner calls
/// [`SptCache::invalidate`] when the weights underlying the snapshot
/// change (in the SDN crates: when residual capacities move).
///
/// ## Bounded mode
///
/// [`SptCache::new`] is unbounded — fine at the paper's n=250, but one
/// full tree is `Θ(n)` memory, so at 10k+ nodes an unbounded cache grows
/// towards `Θ(n²)`. [`SptCache::with_capacity`] bounds the number of
/// resident trees: on a miss at capacity, the **unpinned** resident tree
/// with the oldest last-use tick is evicted (deterministic — ticks are a
/// monotone counter, never wall clock). Sources pinned via
/// [`SptCache::pin`] (e.g. a session's multicast source that every
/// request re-queries) are never evicted; when every resident tree is
/// pinned, the freshly computed tree is returned *uncached* rather than
/// displacing a pin. Eviction never changes answers — a re-computed tree
/// is bit-identical to the evicted one.
#[derive(Debug, Clone)]
pub struct SptCache {
    csr: CsrGraph,
    scratch: DijkstraScratch,
    trees: Vec<Option<Arc<ShortestPathTree>>>,
    /// Max resident trees; `None` = unbounded.
    capacity: Option<usize>,
    pinned: Vec<bool>,
    /// Last-use tick per source (valid only while resident).
    stamp: Vec<u64>,
    tick: u64,
    resident: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SptCache {
    /// Creates an empty unbounded cache over `csr`.
    #[must_use]
    pub fn new(csr: CsrGraph) -> Self {
        SptCache::build(csr, None)
    }

    /// Creates an empty cache over `csr` holding at most `capacity`
    /// resident trees (LRU eviction, see the type-level docs). A capacity
    /// of zero caches nothing and degrades to plain repeated Dijkstra.
    #[must_use]
    pub fn with_capacity(csr: CsrGraph, capacity: usize) -> Self {
        SptCache::build(csr, Some(capacity))
    }

    fn build(csr: CsrGraph, capacity: Option<usize>) -> Self {
        let n = csr.node_count();
        SptCache {
            csr,
            scratch: DijkstraScratch::new(),
            trees: vec![None; n],
            capacity,
            pinned: vec![false; n],
            stamp: vec![0; n],
            tick: 0,
            resident: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Convenience: snapshot `g` and cache over it (unbounded).
    #[must_use]
    pub fn for_graph(g: &Graph) -> Self {
        SptCache::new(CsrGraph::from_graph(g))
    }

    /// The underlying snapshot.
    #[must_use]
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// The resident-tree bound (`None` = unbounded).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Marks `source` as never-evictable while resident. Pinning is
    /// advisory: it does not force computation, and an out-of-range id is
    /// ignored.
    pub fn pin(&mut self, source: NodeId) {
        if let Some(p) = self.pinned.get_mut(source.index()) {
            *p = true;
        }
    }

    /// Clears a pin set by [`SptCache::pin`].
    pub fn unpin(&mut self, source: NodeId) {
        if let Some(p) = self.pinned.get_mut(source.index()) {
            *p = false;
        }
    }

    /// The full shortest-path tree rooted at `source`, computing it on
    /// first request. Identical to `dijkstra(g, source)` on the snapshot's
    /// source graph, whether the tree was cached, evicted-and-recomputed,
    /// or (all-pins case) returned uncached.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a node of the snapshot.
    pub fn spt(&mut self, source: NodeId) -> Arc<ShortestPathTree> {
        self.tick += 1;
        if let Some(Some(t)) = self.trees.get(source.index()) {
            let t = Arc::clone(t);
            if let Some(s) = self.stamp.get_mut(source.index()) {
                *s = self.tick;
            }
            self.hits += 1;
            telemetry::hit(telemetry::Counter::SptCacheHits);
            return t;
        }
        self.misses += 1;
        telemetry::hit(telemetry::Counter::SptCacheMisses);
        let tree = Arc::new(dijkstra_csr(&self.csr, source, &mut self.scratch));
        if let Some(cap) = self.capacity {
            if self.resident >= cap && !self.evict_one() {
                // At capacity with every resident tree pinned (or cap 0):
                // hand the tree out without displacing anything.
                return tree;
            }
        }
        if let Some(slot) = self.trees.get_mut(source.index()) {
            *slot = Some(Arc::clone(&tree));
            self.resident += 1;
        }
        if let Some(s) = self.stamp.get_mut(source.index()) {
            *s = self.tick;
        }
        tree
    }

    /// Evicts the unpinned resident tree with the oldest last-use tick.
    /// Returns `false` when nothing is evictable.
    fn evict_one(&mut self) -> bool {
        let mut victim: Option<(u64, usize)> = None;
        for (i, slot) in self.trees.iter().enumerate() {
            if slot.is_none() || self.pinned.get(i).copied().unwrap_or(false) {
                continue;
            }
            let s = self.stamp.get(i).copied().unwrap_or(0);
            if victim.is_none_or(|(vs, _)| s < vs) {
                victim = Some((s, i));
            }
        }
        match victim {
            Some((_, i)) => {
                if let Some(slot) = self.trees.get_mut(i) {
                    *slot = None;
                }
                self.resident = self.resident.saturating_sub(1);
                self.evictions += 1;
                telemetry::hit(telemetry::Counter::SptCacheEvictions);
                true
            }
            None => false,
        }
    }

    /// Drops every cached tree (the snapshot itself is retained — edge
    /// weights in this codebase are immutable unit costs). Pins survive.
    pub fn invalidate(&mut self) {
        for t in &mut self.trees {
            *t = None;
        }
        self.resident = 0;
    }

    /// Number of sources currently cached.
    #[must_use]
    pub fn cached_sources(&self) -> usize {
        self.resident
    }

    /// Cache hits since creation.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses since creation.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Trees evicted since creation (always zero for unbounded caches).
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra, dijkstra_with_targets};

    fn diamond() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        g.add_edge(v[0], v[1], 1.0).unwrap();
        g.add_edge(v[0], v[2], 4.0).unwrap();
        g.add_edge(v[1], v[2], 2.0).unwrap();
        g.add_edge(v[1], v[3], 6.0).unwrap();
        g.add_edge(v[2], v[3], 3.0).unwrap();
        (g, v)
    }

    fn assert_same_tree(a: &ShortestPathTree, b: &ShortestPathTree, n: usize) {
        for i in 0..n {
            let v = NodeId::new(i);
            assert_eq!(a.distance(v), b.distance(v), "distance to {v}");
            assert_eq!(a.predecessor(v), b.predecessor(v), "predecessor of {v}");
        }
    }

    #[test]
    fn csr_preserves_adjacency_order() {
        let (g, v) = diamond();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.arc_count(), 2 * g.edge_count());
        for node in g.nodes() {
            let flat: Vec<(NodeId, EdgeId)> = csr.arcs(node).map(|(t, e, _)| (t, e)).collect();
            let orig: Vec<(NodeId, EdgeId)> = g
                .neighbors(node)
                .iter()
                .map(|nb| (nb.node, nb.edge))
                .collect();
            assert_eq!(flat, orig, "adjacency order of {node}");
        }
        assert!(csr.contains_node(v[4]));
        assert!(!csr.contains_node(NodeId::new(5)));
    }

    #[test]
    fn csr_dijkstra_matches_graph_dijkstra() {
        let (g, v) = diamond();
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = DijkstraScratch::new();
        for &s in &v {
            let fresh = dijkstra(&g, s);
            let flat = dijkstra_csr(&csr, s, &mut scratch);
            assert_same_tree(&fresh, &flat, g.node_count());
        }
    }

    #[test]
    fn csr_targets_match_graph_targets() {
        let (g, v) = diamond();
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = DijkstraScratch::new();
        let targets = [v[1], v[3]];
        let fresh = dijkstra_with_targets(&g, v[0], &targets);
        let flat = dijkstra_csr_with_targets(&csr, v[0], &targets, &mut scratch);
        for &t in &targets {
            assert_eq!(fresh.distance(t), flat.distance(t));
            assert_eq!(
                fresh.path_to(t).map(|p| p.edges().to_vec()),
                flat.path_to(t).map(|p| p.edges().to_vec())
            );
        }
    }

    #[test]
    fn csr_unknown_targets_are_ignored() {
        let (g, v) = diamond();
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = DijkstraScratch::new();
        let outside = NodeId::new(99);
        let full = dijkstra_csr(&csr, v[0], &mut scratch);
        let all_unknown = dijkstra_csr_with_targets(&csr, v[0], &[outside], &mut scratch);
        assert_same_tree(&all_unknown, &full, g.node_count());
        let mixed = dijkstra_csr_with_targets(&csr, v[0], &[outside, v[2]], &mut scratch);
        assert_same_tree(
            &mixed,
            &dijkstra_with_targets(&g, v[0], &[outside, v[2]]),
            g.node_count(),
        );
        assert_eq!(mixed.distance(v[2]), Some(3.0));
        assert_eq!(mixed.distance(outside), None);
        assert!(csr.arcs(outside).next().is_none());
    }

    #[test]
    fn scratch_is_reusable_across_sizes() {
        let (g1, _) = diamond();
        let mut g2 = Graph::new();
        let a = g2.add_node();
        let b = g2.add_node();
        g2.add_edge(a, b, 1.5).unwrap();
        let csr1 = CsrGraph::from_graph(&g1);
        let csr2 = CsrGraph::from_graph(&g2);
        let mut scratch = DijkstraScratch::new();
        let t1 = dijkstra_csr(&csr1, NodeId::new(0), &mut scratch);
        let t2 = dijkstra_csr(&csr2, a, &mut scratch);
        let t1_again = dijkstra_csr(&csr1, NodeId::new(0), &mut scratch);
        assert_eq!(t2.distance(b), Some(1.5));
        assert_same_tree(&t1, &t1_again, g1.node_count());
    }

    #[test]
    fn cache_hits_and_invalidation() {
        let (g, v) = diamond();
        let mut cache = SptCache::for_graph(&g);
        let a = cache.spt(v[0]);
        let b = cache.spt(v[0]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.cached_sources(), 1);
        cache.invalidate();
        assert_eq!(cache.cached_sources(), 0);
        let c = cache.spt(v[0]);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_same_tree(&a, &c, g.node_count());
    }

    #[test]
    fn cache_matches_fresh_dijkstra_for_every_source() {
        let (g, v) = diamond();
        let mut cache = SptCache::for_graph(&g);
        for &s in &v {
            let cached = cache.spt(s);
            let fresh = dijkstra(&g, s);
            assert_same_tree(&cached, &fresh, g.node_count());
        }
    }

    #[test]
    #[should_panic(expected = "not in graph")]
    fn csr_dijkstra_rejects_unknown_source() {
        let csr = CsrGraph::from_graph(&Graph::new());
        let _ = dijkstra_csr(&csr, NodeId::new(0), &mut DijkstraScratch::new());
    }

    #[test]
    fn from_edge_list_matches_from_graph() {
        let edges = [
            (NodeId::new(0), NodeId::new(1), 1.0),
            (NodeId::new(0), NodeId::new(2), 4.0),
            (NodeId::new(1), NodeId::new(2), 2.0),
            (NodeId::new(1), NodeId::new(3), 6.0),
            (NodeId::new(2), NodeId::new(3), 3.0),
            (NodeId::new(1), NodeId::new(4), 0.5),
        ];
        let mut g = Graph::with_nodes(5);
        for &(u, v, w) in &edges {
            g.add_edge(u, v, w).unwrap();
        }
        let via_graph = CsrGraph::from_graph(&g);
        let direct = CsrGraph::from_edge_list(5, &edges);
        assert_eq!(direct, via_graph);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edge_list_rejects_bad_endpoint() {
        let _ = CsrGraph::from_edge_list(2, &[(NodeId::new(0), NodeId::new(2), 1.0)]);
    }

    #[test]
    fn bounded_cache_evicts_lru_and_respects_pins() {
        let (g, v) = diamond();
        let mut cache = SptCache::with_capacity(CsrGraph::from_graph(&g), 2);
        assert_eq!(cache.capacity(), Some(2));
        let t0 = cache.spt(v[0]);
        let _t1 = cache.spt(v[1]);
        assert_eq!(cache.cached_sources(), 2);
        // Touch v0 so v1 is the LRU victim.
        let _ = cache.spt(v[0]);
        let _t2 = cache.spt(v[2]);
        assert_eq!(cache.cached_sources(), 2);
        assert_eq!(cache.evictions(), 1);
        // v1 was evicted: re-requesting it is a miss but bit-identical.
        // Touch v0 first so v2 (not v0) is the next victim.
        let _ = cache.spt(v[0]);
        let misses_before = cache.misses();
        let t1_again = cache.spt(v[1]);
        assert_eq!(cache.misses(), misses_before + 1);
        assert_eq!(cache.evictions(), 2);
        assert_same_tree(&t1_again, &dijkstra(&g, v[1]), g.node_count());
        // v0 survived both evictions (it was always the freshest).
        let hits_before = cache.hits();
        let t0_again = cache.spt(v[0]);
        assert_eq!(cache.hits(), hits_before + 1);
        assert!(Arc::ptr_eq(&t0, &t0_again));
    }

    #[test]
    fn pinned_trees_are_never_evicted() {
        let (g, v) = diamond();
        let mut cache = SptCache::with_capacity(CsrGraph::from_graph(&g), 1);
        cache.pin(v[0]);
        let t0 = cache.spt(v[0]);
        // All residents pinned: further sources are served uncached, the
        // pin stays resident, nothing is evicted.
        let t1 = cache.spt(v[1]);
        assert_same_tree(&t1, &dijkstra(&g, v[1]), g.node_count());
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.cached_sources(), 1);
        assert!(Arc::ptr_eq(&t0, &cache.spt(v[0])));
        // Unpinning makes v0 evictable again.
        cache.unpin(v[0]);
        let _ = cache.spt(v[2]);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.cached_sources(), 1);
    }

    #[test]
    fn zero_capacity_cache_never_stores() {
        let (g, v) = diamond();
        let mut cache = SptCache::with_capacity(CsrGraph::from_graph(&g), 0);
        for _ in 0..3 {
            let t = cache.spt(v[0]);
            assert_same_tree(&t, &dijkstra(&g, v[0]), g.node_count());
        }
        assert_eq!(cache.cached_sources(), 0);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn bounded_cache_answers_match_unbounded() {
        let (g, v) = diamond();
        let mut bounded = SptCache::with_capacity(CsrGraph::from_graph(&g), 1);
        let mut unbounded = SptCache::for_graph(&g);
        // A query order that thrashes the capacity-1 cache.
        let order = [v[0], v[1], v[0], v[2], v[3], v[0], v[1]];
        for &s in &order {
            let a = bounded.spt(s);
            let b = unbounded.spt(s);
            assert_same_tree(&a, &b, g.node_count());
        }
        assert!(bounded.evictions() > 0);
    }
}
