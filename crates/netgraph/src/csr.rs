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
//! snapshot, in a store that any number of planner threads can share.

use crate::paths::{shortest_paths, Adjacency, DijkstraScratch, ShortestPathTree, Stop, TreeEdge};
use crate::{EdgeId, Graph, NodeId};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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

    /// Every edge's endpoints and weight, indexed by edge id: what a
    /// stored tree is rebuilt from.
    fn tree_edges(&self) -> Vec<TreeEdge> {
        let len = self.arcs.iter().map(|a| a.edge.index() + 1).max();
        let mut table = vec![TreeEdge::default(); len.unwrap_or(0)];
        for tail in (0..self.node_count()).map(NodeId::new) {
            for (head, edge, weight) in self.arcs(tail) {
                if let Some(slot) = table.get_mut(edge.index()) {
                    *slot = TreeEdge::new(tail, head, weight);
                }
            }
        }
        table
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
/// An `SptCache` is a handle on a store of trees. The store holds the
/// snapshot and one slot per resident source; every handle made by
/// [`SptCache::share`] queries the same store, so a tree one planner
/// thread computed is a hit for every other. Each handle keeps its own
/// Dijkstra working memory and its own hit/miss/eviction counters.
/// `Clone` is a deep copy: the clone starts from the same resident trees
/// but gets a store of its own, so neither copy ever sees a tree the
/// other computes afterwards.
///
/// A resident slot keeps only its tree's predecessor edge ids, 4 bytes a
/// node (20 KiB at n = 5 120). A miss hands the caller the kernel's tree
/// and stores a copy of its `pred`; a hit rebuilds the distances from the
/// root outward, `dist[p] + w(pred edge)`, which repeats the kernel's own
/// additions and so is bit-identical to it. The rebuild reads each edge's
/// endpoints and weight from a table the store builds once from the
/// snapshot's arcs (16 bytes an edge). [`SptCache::trees`] writes a
/// request's trees into arrays the handle keeps, so a planner that reads
/// them and moves on allocates nothing per lookup but the slots of its
/// misses. Edge weights in this codebase are
/// immutable unit costs, so a tree never goes stale. A tree's paths are
/// read against the [`Graph`] the snapshot was built from
/// ([`ShortestPathTree::path_to`]), which shares its node and edge ids.
///
/// ## Exactly once, outside the lock
///
/// A slot is an `Arc<OnceLock<_>>`. A query takes the store's lock only to
/// find or insert its source's slot (and to evict, see below), then runs
/// Dijkstra through the slot's `OnceLock` with the lock released: the
/// first handle to reach an empty slot computes the tree, and a concurrent
/// query for the same source waits on that slot alone. Each tree is thus
/// computed once per residency.
///
/// ## Bounded mode
///
/// [`SptCache::new`] is unbounded — fine at the paper's n=250, but one
/// resident tree is `Θ(n)` memory (4 bytes a node), so at large n an
/// unbounded cache grows towards `Θ(n²)`. [`SptCache::with_capacity`] bounds the number of
/// resident trees: a query for a non-resident source at capacity evicts
/// the resident tree with the oldest last-use tick (ties: lowest id;
/// ticks are a monotone counter shared by every handle, never wall
/// clock). Eviction never changes answers — a re-computed tree is
/// bit-identical to the evicted one, and so is a rebuilt one.
#[derive(Debug)]
pub struct SptCache {
    store: Arc<SptStore>,
    scratch: DijkstraScratch,
    /// The trees the last [`SptCache::trees`] call filled, refilled in
    /// place by the next call.
    trees: Vec<ShortestPathTree>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The state every handle of one [`SptCache`] shares.
#[derive(Debug)]
struct SptStore {
    csr: Arc<CsrGraph>,
    /// The snapshot's edges by id, for rebuilding resident trees.
    edges: Arc<[TreeEdge]>,
    /// Max resident trees; `None` = unbounded.
    capacity: Option<usize>,
    slots: Mutex<SlotTable>,
}

/// A tree slot: empty until the first query for its source fills it with
/// the tree's predecessor edge ids ([`ShortestPathTree::rebuild`]).
type Slot = Arc<OnceLock<Box<[u32]>>>;

/// The resident slots of one store, with their last-use ticks.
#[derive(Debug)]
struct SlotTable {
    slots: Vec<Option<Slot>>,
    /// Last-use tick per source (valid only while resident).
    stamp: Vec<u64>,
    tick: u64,
    resident: usize,
}

impl SlotTable {
    /// The slot for `source`, inserted (after evicting the least recently
    /// used slot when the store is full) if `source` is not resident.
    /// Also reports whether a slot was evicted. An out-of-range source, or
    /// a zero capacity, gets a fresh slot that is never stored.
    fn lookup(&mut self, source: NodeId, capacity: Option<usize>) -> (Slot, bool) {
        self.tick += 1;
        let tick = self.tick;
        let i = source.index();
        if let (Some(Some(slot)), Some(stamp)) = (self.slots.get(i), self.stamp.get_mut(i)) {
            *stamp = tick;
            return (Arc::clone(slot), false);
        }
        let slot = Slot::default();
        if i >= self.slots.len() || capacity == Some(0) {
            return (slot, false);
        }
        let evicted = capacity.is_some_and(|cap| self.resident >= cap) && self.evict_lru();
        if let (Some(entry), Some(stamp)) = (self.slots.get_mut(i), self.stamp.get_mut(i)) {
            *entry = Some(Arc::clone(&slot));
            *stamp = tick;
            self.resident += 1;
        }
        (slot, evicted)
    }

    /// Drops the resident slot with the oldest last-use tick (lowest id on
    /// ties). Returns `false` when nothing is resident.
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .slots
            .iter()
            .zip(&self.stamp)
            .enumerate()
            .filter(|(_, (slot, _))| slot.is_some())
            .min_by_key(|&(i, (_, &stamp))| (stamp, i))
            .map(|(i, _)| i);
        match victim.and_then(|i| self.slots.get_mut(i)) {
            Some(slot) => {
                *slot = None;
                self.resident -= 1;
                true
            }
            None => false,
        }
    }
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
        let table = SlotTable {
            slots: vec![None; n],
            stamp: vec![0; n],
            tick: 0,
            resident: 0,
        };
        SptCache::handle(Arc::new(SptStore {
            edges: csr.tree_edges().into(),
            csr: Arc::new(csr),
            capacity,
            slots: Mutex::new(table),
        }))
    }

    /// A fresh handle with zeroed counters on `store`.
    fn handle(store: Arc<SptStore>) -> Self {
        SptCache {
            store,
            scratch: DijkstraScratch::new(),
            trees: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// A sibling handle on the same store: trees either handle computes
    /// are hits for the other. The new handle has its own Dijkstra
    /// working memory and starts its counters at zero.
    #[must_use]
    pub fn share(&self) -> Self {
        SptCache::handle(Arc::clone(&self.store))
    }

    /// Locks the slot table. Nothing under the lock runs a Dijkstra or
    /// user code, and a lookup cut short at any step leaves at worst a
    /// resident count off by one, which never changes an answer — so a
    /// poisoned lock is recovered rather than propagated.
    fn slots(&self) -> MutexGuard<'_, SlotTable> {
        self.store
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The full shortest-path tree rooted at `source`, computing it on
    /// first request. Bit-identical to `dijkstra(g, source)` on the
    /// snapshot's source graph, whether the tree was computed now,
    /// rebuilt from the store, evicted-and-recomputed, or first computed
    /// by another handle on the same store.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a node of the snapshot.
    pub fn spt(&mut self, source: NodeId) -> ShortestPathTree {
        let mut tree = ShortestPathTree::unfilled(source);
        self.fill(source, &mut tree);
        tree
    }

    /// The trees rooted at `roots`, in order, each as [`SptCache::spt`]
    /// returns it. They are written into arrays this handle keeps, which
    /// the next call overwrites, so a handle that asks for trees of one
    /// graph call after call allocates only the resident slots of its
    /// misses.
    ///
    /// # Panics
    ///
    /// Panics if a root is not a node of the snapshot.
    pub fn trees(&mut self, roots: &[NodeId]) -> &[ShortestPathTree] {
        let mut trees = std::mem::take(&mut self.trees);
        if trees.len() < roots.len() {
            trees.resize_with(roots.len(), || ShortestPathTree::unfilled(NodeId::new(0)));
        }
        for (tree, &root) in trees.iter_mut().zip(roots) {
            self.fill(root, tree);
        }
        self.trees = trees;
        self.trees.get(..roots.len()).unwrap_or_default()
    }

    /// Overwrites `tree` with the tree rooted at `source`: on a miss the
    /// kernel's result, swapped out of the scratch, on a hit the rebuild.
    fn fill(&mut self, source: NodeId, tree: &mut ShortestPathTree) {
        let (slot, evicted) = self.slots().lookup(source, self.store.capacity);
        if evicted {
            self.evictions += 1;
            telemetry::hit(telemetry::Counter::SptCacheEvictions);
        }
        let mut computed = false;
        let pred = slot.get_or_init(|| {
            computed = true;
            shortest_paths(&*self.store.csr, source, Stop::Never, &mut self.scratch);
            self.scratch.swap_into(source, tree);
            tree.resident()
        });
        if computed {
            self.misses += 1;
            telemetry::hit(telemetry::Counter::SptCacheMisses);
        } else {
            self.hits += 1;
            telemetry::hit(telemetry::Counter::SptCacheHits);
            tree.rebuild(source, pred, &self.store.edges);
        }
    }

    /// Cache hits on this handle since it was made.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (Dijkstra runs) on this handle since it was made.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Trees this handle's queries evicted (always zero for unbounded
    /// caches).
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

impl Clone for SptCache {
    /// A deep copy: a new store holding the trees resident now (an entry
    /// still being computed by another handle is left out), with this
    /// handle's counters.
    fn clone(&self) -> Self {
        let table = {
            let src = self.slots();
            let slots: Vec<Option<Slot>> = src
                .slots
                .iter()
                .map(|slot| {
                    let pred = slot.as_ref()?.get()?;
                    Some(Arc::new(OnceLock::from(pred.clone())))
                })
                .collect();
            SlotTable {
                resident: slots.iter().filter(|s| s.is_some()).count(),
                slots,
                stamp: src.stamp.clone(),
                tick: src.tick,
            }
        };
        SptCache {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            ..SptCache::handle(Arc::new(SptStore {
                csr: Arc::clone(&self.store.csr),
                edges: Arc::clone(&self.store.edges),
                capacity: self.store.capacity,
                slots: Mutex::new(table),
            }))
        }
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

    fn assert_same_tree(g: &Graph, a: &ShortestPathTree, b: &ShortestPathTree) {
        assert_eq!(a.source(), b.source());
        for v in g.nodes() {
            assert_eq!(
                a.distance(v).map(f64::to_bits),
                b.distance(v).map(f64::to_bits),
                "distance to {v}"
            );
            assert_eq!(
                a.predecessor(g, v),
                b.predecessor(g, v),
                "predecessor of {v}"
            );
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
            assert_same_tree(&g, &fresh, &flat);
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
                fresh.path_to(&g, t).map(|p| p.edges().to_vec()),
                flat.path_to(&g, t).map(|p| p.edges().to_vec())
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
        assert_same_tree(&g, &all_unknown, &full);
        let mixed = dijkstra_csr_with_targets(&csr, v[0], &[outside, v[2]], &mut scratch);
        assert_same_tree(
            &g,
            &mixed,
            &dijkstra_with_targets(&g, v[0], &[outside, v[2]]),
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
        assert_same_tree(&g1, &t1, &t1_again);
    }

    fn cache(g: &Graph) -> SptCache {
        SptCache::new(CsrGraph::from_graph(g))
    }

    #[test]
    fn cache_hits_return_the_same_tree() {
        let (g, v) = diamond();
        let mut cache = cache(&g);
        let a = cache.spt(v[0]);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // The second query is a hit, rebuilt from the resident slot.
        let b = cache.spt(v[0]);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_same_tree(&g, &a, &b);
        assert_same_tree(&g, &a, &dijkstra(&g, v[0]));
    }

    #[test]
    fn cache_matches_fresh_dijkstra_for_every_source() {
        let (g, v) = diamond();
        let mut cache = cache(&g);
        for &s in &v {
            let cached = cache.spt(s);
            let fresh = dijkstra(&g, s);
            assert_same_tree(&g, &cached, &fresh);
        }
    }

    #[test]
    fn trees_are_the_trees_spt_returns() {
        let (g, v) = diamond();
        let mut batch = cache(&g);
        let mut single = cache(&g);
        // Misses, then hits and misses mixed, then fewer roots than the
        // buffers hold: each call answers exactly its own roots.
        let calls: [&[NodeId]; 3] = [&[v[0], v[4]], &[v[4], v[1], v[0]], &[v[1]]];
        for roots in calls {
            let trees = batch.trees(roots);
            assert_eq!(trees.len(), roots.len());
            for (tree, &r) in trees.iter().zip(roots) {
                assert_same_tree(&g, tree, &single.spt(r));
            }
            assert_eq!(
                (batch.hits(), batch.misses()),
                (single.hits(), single.misses())
            );
        }
        assert_eq!((batch.hits(), batch.misses()), (3, 3));
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
    fn bounded_cache_evicts_lru() {
        let (g, v) = diamond();
        let mut cache = SptCache::with_capacity(CsrGraph::from_graph(&g), 2);
        let t0 = cache.spt(v[0]);
        let _t1 = cache.spt(v[1]);
        assert_eq!(cache.evictions(), 0);
        // Touch v0 so v1 is the LRU victim.
        let _ = cache.spt(v[0]);
        let _t2 = cache.spt(v[2]);
        assert_eq!(cache.evictions(), 1);
        // v1 was evicted: re-requesting it is a miss but bit-identical.
        // Touch v0 first so v2 (not v0) is the next victim.
        let _ = cache.spt(v[0]);
        let misses_before = cache.misses();
        let t1_again = cache.spt(v[1]);
        assert_eq!(cache.misses(), misses_before + 1);
        assert_eq!(cache.evictions(), 2);
        assert_same_tree(&g, &t1_again, &dijkstra(&g, v[1]));
        // v0 survived both evictions (it was always the freshest).
        let (hits_before, misses_before) = (cache.hits(), cache.misses());
        let t0_again = cache.spt(v[0]);
        assert_eq!(cache.hits(), hits_before + 1);
        assert_eq!(cache.misses(), misses_before);
        assert_same_tree(&g, &t0, &t0_again);
    }

    #[test]
    fn zero_capacity_cache_never_stores() {
        let (g, v) = diamond();
        let mut cache = SptCache::with_capacity(CsrGraph::from_graph(&g), 0);
        for _ in 0..3 {
            let t = cache.spt(v[0]);
            assert_same_tree(&g, &t, &dijkstra(&g, v[0]));
        }
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn bounded_cache_answers_match_unbounded() {
        let (g, v) = diamond();
        let mut bounded = SptCache::with_capacity(CsrGraph::from_graph(&g), 1);
        let mut unbounded = cache(&g);
        // A query order that thrashes the capacity-1 cache.
        let order = [v[0], v[1], v[0], v[2], v[3], v[0], v[1]];
        for &s in &order {
            let a = bounded.spt(s);
            let b = unbounded.spt(s);
            assert_same_tree(&g, &a, &b);
        }
        assert!(bounded.evictions() > 0);
    }

    #[test]
    fn shared_handles_hit_each_others_trees() {
        let (g, v) = diamond();
        let mut a = cache(&g);
        let mut b = a.share();
        let from_a = a.spt(v[0]);
        let from_b = b.spt(v[0]);
        // b hits the tree a computed.
        assert_eq!((b.hits(), b.misses()), (1, 0));
        assert_same_tree(&g, &from_a, &from_b);
        let _ = b.spt(v[1]);
        let _ = a.spt(v[1]);
        // Counters belong to the handle that queried.
        assert_eq!((a.hits(), a.misses()), (1, 1));
        assert_eq!((b.hits(), b.misses()), (1, 1));
        // A handle shared after the fact sees every resident tree.
        let mut c = b.share();
        let from_c = c.spt(v[0]);
        assert_eq!((c.hits(), c.misses()), (1, 0));
        assert_same_tree(&g, &from_c, &from_a);
    }

    #[test]
    fn concurrent_handles_compute_each_tree_exactly_once() {
        // A 12×12 grid with uneven integer weights: enough work per tree
        // for the threads' queries to overlap.
        let side = 12;
        let mut g = Graph::with_nodes(side * side);
        for r in 0..side {
            for c in 0..side {
                let u = NodeId::new(r * side + c);
                let w = ((r * 7 + c * 3) % 5 + 1) as f64;
                if c + 1 < side {
                    g.add_edge(u, NodeId::new(r * side + c + 1), w).unwrap();
                }
                if r + 1 < side {
                    g.add_edge(u, NodeId::new((r + 1) * side + c), w + 1.0)
                        .unwrap();
                }
            }
        }
        let csr = CsrGraph::from_graph(&g);
        let root = SptCache::new(csr.clone());
        let threads = 4;
        // Thread t queries roots 8t..8t+24 twice: neighbours overlap on 16.
        let roots = |t: usize| (8 * t..8 * t + 24).map(NodeId::new);
        let distinct = 8 * (threads - 1) + 24;
        let barrier = std::sync::Barrier::new(threads);
        let (trees, misses): (Vec<_>, Vec<u64>) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let mut handle = root.share();
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let mut got = Vec::new();
                        for _ in 0..2 {
                            got.extend(roots(t).map(|r| (r, handle.spt(r))));
                        }
                        (got, handle.misses())
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).unzip()
        });
        assert_eq!(misses.iter().sum::<u64>(), distinct as u64);
        let mut scratch = DijkstraScratch::new();
        for (r, tree) in trees.iter().flatten() {
            let fresh = dijkstra_csr(&csr, *r, &mut scratch);
            for i in 0..g.node_count() {
                let n = NodeId::new(i);
                assert_eq!(
                    tree.distance(n).map(f64::to_bits),
                    fresh.distance(n).map(f64::to_bits),
                    "distance {r} → {n}"
                );
                assert_eq!(tree.predecessor(&g, n), fresh.predecessor(&g, n));
            }
        }
    }

    #[test]
    fn shared_bounded_store_evicts_in_lru_order() {
        let (g, v) = diamond();
        let mut a = SptCache::with_capacity(CsrGraph::from_graph(&g), 2);
        let mut b = a.share();
        let t0 = a.spt(v[0]);
        let _ = b.spt(v[1]);
        // a's touch makes v1 (b's tree) the LRU victim of b's next miss.
        let _ = a.spt(v[0]);
        let _ = b.spt(v[2]);
        assert_eq!((a.evictions(), b.evictions()), (0, 1));
        // v0 is still resident: b hits it.
        let t0_from_b = b.spt(v[0]);
        assert_eq!((b.hits(), b.misses()), (1, 2));
        assert_same_tree(&g, &t0_from_b, &t0);
        // v0 was just touched, so v2 goes next.
        let _ = a.spt(v[1]);
        assert_eq!((a.evictions(), a.misses()), (1, 2));
        // v2 is gone; bringing it back evicts v0, now the oldest.
        let misses = b.misses();
        let _ = b.spt(v[2]);
        assert_eq!((b.misses(), b.evictions()), (misses + 1, 2));
        // v0 is gone, so a computes it again, bit-identical.
        let misses = a.misses();
        let t0_again = a.spt(v[0]);
        assert_eq!(a.misses(), misses + 1);
        assert_same_tree(&g, &t0_again, &t0);
    }

    #[test]
    fn clone_is_an_independent_store() {
        let (g, v) = diamond();
        let mut original = cache(&g);
        let t0 = original.spt(v[0]);
        let mut copy = original.clone();
        // The clone starts with the resident trees and the counters…
        let t0_in_copy = copy.spt(v[0]);
        assert_eq!((copy.hits(), copy.misses()), (1, 1));
        assert_same_tree(&g, &t0_in_copy, &t0);
        // …but what either computes afterwards stays its own.
        let in_copy = copy.spt(v[1]);
        assert_eq!((copy.hits(), copy.misses()), (1, 2));
        let misses = original.misses();
        let in_original = original.spt(v[1]);
        assert_eq!(original.misses(), misses + 1);
        assert_same_tree(&g, &in_copy, &in_original);
    }
}
