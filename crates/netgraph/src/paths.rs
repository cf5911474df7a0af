//! Single-source shortest paths: Dijkstra and Bellman–Ford.

use crate::heap::IndexedQuadHeap;
use crate::{EdgeId, Graph, NodeId};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// A concrete path through a graph: an alternating node/edge walk.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    cost: f64,
}

impl Path {
    /// Builds a path from its pieces.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != edges.len() + 1` or `nodes` is empty.
    #[must_use]
    pub fn new(nodes: Vec<NodeId>, edges: Vec<EdgeId>, cost: f64) -> Self {
        assert!(!nodes.is_empty(), "a path has at least one node");
        assert_eq!(
            nodes.len(),
            edges.len() + 1,
            "a path has one more node than edges"
        );
        Path { nodes, edges, cost }
    }

    /// A zero-length path sitting at `n`.
    #[must_use]
    pub fn trivial(n: NodeId) -> Self {
        Path {
            nodes: vec![n],
            edges: Vec::new(),
            cost: 0.0,
        }
    }

    /// The node sequence, source first.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The edge sequence.
    #[must_use]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Total weight of the path.
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// First node of the path.
    #[must_use]
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("path is non-empty") // lint:allow(P1): Path construction guarantees at least one node
    }

    /// Last node of the path.
    #[must_use]
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("path is non-empty") // lint:allow(P1): Path construction guarantees at least one node
    }

    /// Number of edges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the path has no edges.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// The `pred` slot of the source and of every node no edge has reached.
const NO_PRED: u32 = u32::MAX;

/// One undirected edge as [`ShortestPathTree::rebuild`] reads it: the xor
/// of its endpoint ids, so the endpoint opposite `n` is `ends ^ n`, and
/// its weight. 16 bytes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TreeEdge {
    ends: u32,
    weight: f64,
}

impl TreeEdge {
    /// The edge joining `u` and `v` with weight `weight`.
    pub(crate) fn new(u: NodeId, v: NodeId, weight: f64) -> Self {
        TreeEdge {
            ends: u.0 ^ v.0,
            weight,
        }
    }
}

/// The result of a single-source shortest-path computation.
///
/// Stores, for every node, the best known distance (`f64`) and the id of
/// the edge that enters it on a shortest path from the source (`u32`):
/// 12 bytes a node. The predecessor node is not stored — it is that
/// edge's other endpoint, so [`predecessor`](Self::predecessor) and
/// [`path_to`](Self::path_to) take the graph the tree was computed on (a
/// [`crate::CsrGraph`] tree shares its ids with the graph it snapshots).
/// Unreachable nodes have no distance. A [`crate::SptCache`] keeps only
/// the predecessor edges of a resident tree, 4 bytes a node, and rebuilds
/// the distances from them bit for bit on a hit.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    source: NodeId,
    dist: Vec<f64>,
    /// Raw id of the predecessor edge, indexed by node; [`NO_PRED`] for
    /// the source and unreached nodes.
    pred: Vec<u32>,
}

impl ShortestPathTree {
    /// A tree with no storage yet, for a kernel run to fill.
    pub(crate) fn unfilled(source: NodeId) -> Self {
        ShortestPathTree {
            source,
            dist: Vec::new(),
            pred: Vec::new(),
        }
    }

    /// What a tree store keeps of a full kernel run: the predecessor edge
    /// ids, 4 bytes a node. [`rebuild`](Self::rebuild) recovers the rest.
    pub(crate) fn resident(&self) -> Box<[u32]> {
        self.pred.as_slice().into()
    }

    /// Overwrites this tree, reusing its arrays, with the tree rooted at
    /// `source` whose predecessor edges are `pred`, as
    /// [`resident`](Self::resident) kept them from a full kernel run over
    /// a graph whose edges `edges` lists by id.
    ///
    /// Bit-identical to that run. The kernel sets `dist[n]` and `pred[n]`
    /// together, to `dist[p] + w(e)` for the settled parent `p` across
    /// `e = pred[n]`, whose distance is final by then. So each distance
    /// is rebuilt from the root outward as the same sum of the same two
    /// `f64`s: every node's chain of predecessors is climbed up to the
    /// first node whose distance is known, then summed back down. The
    /// source is `0.0`; a node without a predecessor edge is unreached.
    pub(crate) fn rebuild(&mut self, source: NodeId, pred: &[u32], edges: &[TreeEdge]) {
        self.source = source;
        self.pred.clear();
        self.pred.extend_from_slice(pred);
        let dist = &mut self.dist;
        dist.clear();
        // NaN marks a distance not yet rebuilt: the kernel never writes one.
        dist.resize(pred.len(), f64::NAN);
        if let Some(d0) = dist.get_mut(source.index()) {
            *d0 = 0.0;
        }
        // (node, parent, weight) of the climbed nodes, root-most last.
        let mut chain: Vec<(usize, usize, f64)> = Vec::new();
        for start in 0..pred.len() {
            let mut cur = start;
            while dist.get(cur).is_some_and(|d| d.is_nan()) {
                let edge = pred
                    .get(cur)
                    .filter(|&&e| e != NO_PRED)
                    .and_then(|&e| edges.get(e as usize));
                let Some(edge) = edge else {
                    if let Some(d) = dist.get_mut(cur) {
                        *d = f64::INFINITY;
                    }
                    break;
                };
                let parent = (edge.ends ^ cur as u32) as usize;
                chain.push((cur, parent, edge.weight));
                cur = parent;
            }
            while let Some((node, parent, weight)) = chain.pop() {
                let dp = dist.get(parent).copied().unwrap_or(f64::INFINITY);
                if let Some(d) = dist.get_mut(node) {
                    *d = dp + weight;
                }
            }
        }
    }

    /// The source node this tree is rooted at.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Shortest distance from the source to `n`, or `None` if unreachable.
    /// Nodes outside the tree's universe are reported as unreachable.
    #[must_use]
    pub fn distance(&self, n: NodeId) -> Option<f64> {
        let d = self.dist.get(n.index()).copied().unwrap_or(f64::INFINITY);
        if d.is_finite() {
            Some(d)
        } else {
            None
        }
    }

    /// Returns `true` if `n` is reachable from the source.
    #[must_use]
    pub fn is_reachable(&self, n: NodeId) -> bool {
        self.distance(n).is_some()
    }

    /// Predecessor (node, edge) of `n` on its shortest path, if any. `g`
    /// is the graph the tree was computed on: the node is the edge's other
    /// endpoint there.
    ///
    /// Debug builds panic if `g` lacks the edge or the edge does not touch
    /// `n` (a tree read against the wrong graph).
    #[inline]
    #[must_use]
    pub fn predecessor(&self, g: &Graph, n: NodeId) -> Option<(NodeId, EdgeId)> {
        let raw = self
            .pred
            .get(n.index())
            .copied()
            .filter(|&e| e != NO_PRED)?;
        let e = EdgeId(raw);
        let edge = g.try_edge(e);
        debug_assert!(
            edge.is_some_and(|ed| ed.u == n || ed.v == n),
            "edge {e} does not touch {n}: tree read against the wrong graph"
        );
        let edge = edge?;
        Some((NodeId(edge.u.0 ^ edge.v.0 ^ n.0), e))
    }

    /// Reconstructs the full shortest path from the source to `target`
    /// over `g`, the graph the tree was computed on (see
    /// [`predecessor`](Self::predecessor)).
    ///
    /// Returns `None` if `target` is unreachable.
    #[must_use]
    pub fn path_to(&self, g: &Graph, target: NodeId) -> Option<Path> {
        let cost = self.distance(target)?;
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((prev, edge)) = self.predecessor(g, cur) {
            nodes.push(prev);
            edges.push(edge);
            cur = prev;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path::new(nodes, edges, cost))
    }
}

/// Walks the predecessor chain of a full kernel run rooted at `root`
/// (`pred`, as [`ShortestPathTree::resident`] kept it; `edges` lists the
/// graph's edges by id) from `from` up to `root`, without rebuilding any
/// distance. Appends the chain's edges to `path` in `from → root` order
/// and returns the fold `0.0 + w(e₁) + w(e₂) + …` taken from `from`
/// outward; `None`, with `path` as it was, if the run never reached
/// `from`.
///
/// The fold repeats the additions a kernel run rooted at `from` makes
/// along the same edges, in its order. So whenever that run's path to
/// `root` is this chain reversed — always when the shortest
/// `from`–`root` path is unique — the result is bit-identical to its
/// `distance(root)` and `path_to(root)` (DESIGN.md §9.1).
pub(crate) fn walk_to_root(
    pred: &[u32],
    edges: &[TreeEdge],
    root: NodeId,
    from: NodeId,
    path: &mut Vec<EdgeId>,
) -> Option<f64> {
    let start = path.len();
    let mut dist = 0.0;
    let mut cur = from.0;
    // A chain of a full run has at most n − 1 edges; the bound keeps a
    // malformed array from looping.
    for _ in 0..pred.len() {
        if cur == root.0 {
            return Some(dist);
        }
        let Some((e, edge)) = pred
            .get(cur as usize)
            .filter(|&&e| e != NO_PRED)
            .and_then(|&e| Some((e, edges.get(e as usize)?)))
        else {
            break;
        };
        path.push(EdgeId(e));
        dist += edge.weight;
        cur ^= edge.ends;
    }
    path.truncate(start);
    None
}

/// Computes shortest paths from `source` to every node with Dijkstra's
/// algorithm (indexed 4-ary heap with decrease-key). `O((n + m) log n)`.
///
/// # Panics
///
/// Panics if `source` is not a node of `g`.
#[must_use]
pub fn dijkstra(g: &Graph, source: NodeId) -> ShortestPathTree {
    let mut tree = ShortestPathTree::unfilled(source);
    on_thread_scratch(g, source, Stop::Never, &mut tree);
    tree
}

/// Dijkstra with early exit: stops once every node in `targets` has been
/// settled. Exact same results as [`dijkstra`] restricted to the settled
/// region. Targets that are not nodes of `g` are ignored.
///
/// # Panics
///
/// Panics if `source` is not a node of `g`.
#[must_use]
pub fn dijkstra_with_targets(g: &Graph, source: NodeId, targets: &[NodeId]) -> ShortestPathTree {
    let mut tree = ShortestPathTree::unfilled(source);
    dijkstra_with_targets_into(g, source, targets, &mut tree);
    tree
}

/// [`dijkstra_with_targets`] into a caller-owned `tree`, which is
/// overwritten with this run's result. Its old arrays become the next
/// run's working memory, so trees refilled run after run on graphs of
/// one size allocate nothing.
///
/// # Panics
///
/// Panics if `source` is not a node of `g`.
pub fn dijkstra_with_targets_into(
    g: &Graph,
    source: NodeId,
    targets: &[NodeId],
    tree: &mut ShortestPathTree,
) {
    on_thread_scratch(g, source, Stop::AllOf(targets), tree);
}

/// The shortest path from `source` to its nearest node of `targets` in
/// `g` without the edges in `exclude`: Dijkstra that stops at the first
/// target it settles, so among equally near targets the one with the
/// smaller node id wins. A trivial path when `source` is itself a
/// target; `None` when no target is reachable. Targets that are not
/// nodes of `g` are ignored.
///
/// # Panics
///
/// Panics if `source` is not a node of `g`.
#[must_use]
pub fn nearest_target_path(
    g: &Graph,
    source: NodeId,
    targets: &[NodeId],
    exclude: &BTreeSet<EdgeId>,
) -> Option<Path> {
    let mut tree = ShortestPathTree::unfilled(source);
    let hit = on_thread_scratch(
        &Excluding { g, exclude },
        source,
        Stop::FirstOf(targets),
        &mut tree,
    );
    tree.path_to(g, hit?)
}

/// An adjacency view the Dijkstra kernel relaxes over: [`Graph`] and
/// [`crate::CsrGraph`]. The kernel is generic over it, so each view gets
/// its own monomorphized copy of the one relaxation loop.
pub(crate) trait Adjacency {
    /// Number of nodes; ids are `0..node_count()`.
    fn node_count(&self) -> usize;

    /// The arcs leaving `u` as `(head, edge, weight)`, in adjacency
    /// order.
    fn arcs_from(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, f64)>;
}

impl Adjacency for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    #[inline]
    fn arcs_from(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, f64)> {
        self.neighbors(u)
            .iter()
            .map(move |nb| (nb.node, nb.edge, self.edge(nb.edge).weight))
    }
}

/// A [`Graph`] without the edges in `exclude`.
struct Excluding<'a> {
    g: &'a Graph,
    exclude: &'a BTreeSet<EdgeId>,
}

impl Adjacency for Excluding<'_> {
    fn node_count(&self) -> usize {
        self.g.node_count()
    }

    fn arcs_from(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, f64)> {
        self.g
            .arcs_from(u)
            .filter(|(_, e, _)| !self.exclude.contains(e))
    }
}

/// When a kernel run may stop before the heap is empty.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stop<'a> {
    /// Settle every reachable node.
    Never,
    /// Once every target that is a node of the graph is settled.
    AllOf(&'a [NodeId]),
    /// At the first settled target.
    FirstOf(&'a [NodeId]),
}

/// Reusable working memory for the Dijkstra kernel behind [`dijkstra`]
/// and [`crate::dijkstra_csr`].
///
/// One scratch per worker thread; repeated [`crate::dijkstra_csr`] runs
/// on graphs of the same size allocate nothing but the tree they return
/// (the heap and the per-node arrays are recycled).
#[derive(Debug, Clone, Default)]
pub struct DijkstraScratch {
    dist: Vec<f64>,
    pred: Vec<u32>,
    /// Sized only for targeted runs; empty on a full run.
    is_target: Vec<bool>,
    heap: IndexedQuadHeap,
}

impl DijkstraScratch {
    /// Creates an empty scratch; arrays grow on first use.
    #[must_use]
    pub fn new() -> Self {
        DijkstraScratch::default()
    }

    /// The last run's result, copied out so the scratch keeps its buffers.
    pub(crate) fn tree(&self, source: NodeId) -> ShortestPathTree {
        ShortestPathTree {
            source,
            dist: self.dist.clone(),
            pred: self.pred.clone(),
        }
    }

    /// What a tree store keeps of the last run, a full one: its
    /// predecessor edge ids, as [`ShortestPathTree::resident`].
    pub(crate) fn resident(&self) -> Box<[u32]> {
        self.pred.as_slice().into()
    }

    /// Moves the last run's result into `tree` without copying, taking
    /// `tree`'s old arrays in exchange for the next run to reset.
    pub(crate) fn swap_into(&mut self, source: NodeId, tree: &mut ShortestPathTree) {
        tree.source = source;
        std::mem::swap(&mut self.dist, &mut tree.dist);
        std::mem::swap(&mut self.pred, &mut tree.pred);
    }
}

thread_local! {
    /// Working memory for the `Graph` entry points ([`dijkstra`],
    /// [`dijkstra_with_targets`], [`dijkstra_with_targets_into`],
    /// [`nearest_target_path`]), reused by every run on this thread. The
    /// kernel resets it fully, so no state carries over from one run to
    /// the next.
    static THREAD_SCRATCH: RefCell<DijkstraScratch> = RefCell::new(DijkstraScratch::new());
}

/// Runs the kernel on this thread's scratch and swaps the result into
/// `tree`, so a call allocates at most the arrays `tree` lacked.
fn on_thread_scratch<A: Adjacency>(
    adj: &A,
    source: NodeId,
    stop: Stop<'_>,
    tree: &mut ShortestPathTree,
) -> Option<NodeId> {
    THREAD_SCRATCH.with_borrow_mut(|scratch| {
        let hit = shortest_paths(adj, source, stop, scratch);
        scratch.swap_into(source, tree);
        hit
    })
}

/// The single-source Dijkstra kernel: fills `scratch.dist`/`scratch.pred`
/// with the shortest-path tree from `source` over `adj`, and returns the
/// target whose settling ended the run under `stop`, if any.
///
/// Targets outside `adj` are ignored, never waited for. Settled nodes
/// are final whenever the run stops.
///
/// Byte identity across views and heaps: nodes are settled in strict
/// `(distance, node id)` order, and each settled node relaxes its arcs in
/// adjacency order with a strict `<`. Both are fixed by the input alone,
/// so two views with the same adjacency order produce bit-identical
/// `dist` and `pred` arrays.
///
/// # Panics
///
/// Panics if `source` is not a node of `adj`.
pub(crate) fn shortest_paths<A: Adjacency>(
    adj: &A,
    source: NodeId,
    stop: Stop<'_>,
    scratch: &mut DijkstraScratch,
) -> Option<NodeId> {
    let n = adj.node_count();
    assert!(source.index() < n, "source {source} not in graph");
    telemetry::hit(telemetry::Counter::DijkstraRuns);
    let DijkstraScratch {
        dist,
        pred,
        is_target,
        heap,
    } = scratch;
    dist.clear();
    dist.resize(n, f64::INFINITY);
    pred.clear();
    pred.resize(n, NO_PRED);
    is_target.clear();
    heap.reset(n);

    // `remaining` = targets still to settle; 0 never stops the run.
    let mut remaining = 0usize;
    if let Stop::AllOf(targets) | Stop::FirstOf(targets) = stop {
        is_target.resize(n, false);
        for &t in targets {
            if let Some(flag) = is_target.get_mut(t.index()) {
                if !*flag {
                    *flag = true;
                    remaining += 1;
                }
            }
        }
    }
    if let Stop::FirstOf(_) = stop {
        remaining = remaining.min(1);
    }

    if let Some(d0) = dist.get_mut(source.index()) {
        *d0 = 0.0;
    }
    heap.push_or_decrease(source, 0.0);

    // One live heap entry per node (decrease-key), so each pop settles.
    while let Some((du, u)) = heap.pop() {
        if is_target.get(u.index()).copied().unwrap_or(false) {
            remaining -= 1;
            if remaining == 0 {
                return Some(u);
            }
        }
        for (v, e, w) in adj.arcs_from(u) {
            let cand = du + w;
            let vi = v.index();
            if let (Some(dv), Some(pv)) = (dist.get_mut(vi), pred.get_mut(vi)) {
                if cand < *dv {
                    *dv = cand;
                    *pv = e.0;
                    heap.push_or_decrease(v, cand);
                }
            }
        }
    }
    None
}

/// Computes shortest paths with Bellman–Ford. `O(n·m)`.
///
/// With validated non-negative weights this always succeeds and agrees with
/// [`dijkstra`]; it exists as an independent oracle for testing and for
/// future directed/negative-weight extensions.
///
/// # Panics
///
/// Panics if `source` is not a node of `g`.
#[must_use]
pub fn bellman_ford(g: &Graph, source: NodeId) -> ShortestPathTree {
    assert!(g.contains_node(source), "source {source} not in graph");
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred = vec![NO_PRED; n];
    if let Some(d0) = dist.get_mut(source.index()) {
        *d0 = 0.0;
    }

    for _round in 0..n.saturating_sub(1) {
        let mut changed = false;
        for e in g.edges() {
            // Relax in both directions (undirected edge).
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                let da = dist.get(a.index()).copied().unwrap_or(f64::INFINITY);
                let cand = da + e.weight;
                if let Some(db) = dist.get_mut(b.index()) {
                    if da.is_finite() && cand < *db {
                        *db = cand;
                        if let Some(pb) = pred.get_mut(b.index()) {
                            *pb = e.id.0;
                        }
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    ShortestPathTree { source, dist, pred }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// A 5-node graph with a known shortest-path structure.
    fn diamond() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        g.add_edge(v[0], v[1], 1.0).unwrap();
        g.add_edge(v[0], v[2], 4.0).unwrap();
        g.add_edge(v[1], v[2], 2.0).unwrap();
        g.add_edge(v[1], v[3], 6.0).unwrap();
        g.add_edge(v[2], v[3], 3.0).unwrap();
        (g, v) // v[4] is isolated
    }

    #[test]
    fn dijkstra_distances() {
        let (g, v) = diamond();
        let spt = dijkstra(&g, v[0]);
        assert_eq!(spt.distance(v[0]), Some(0.0));
        assert_eq!(spt.distance(v[1]), Some(1.0));
        assert_eq!(spt.distance(v[2]), Some(3.0));
        assert_eq!(spt.distance(v[3]), Some(6.0));
        assert_eq!(spt.distance(v[4]), None);
        assert!(!spt.is_reachable(v[4]));
    }

    #[test]
    fn dijkstra_path_reconstruction() {
        let (g, v) = diamond();
        let spt = dijkstra(&g, v[0]);
        let p = spt.path_to(&g, v[3]).unwrap();
        assert_eq!(p.nodes(), &[v[0], v[1], v[2], v[3]]);
        assert_eq!(p.cost(), 6.0);
        assert_eq!(p.len(), 3);
        assert_eq!(p.source(), v[0]);
        assert_eq!(p.target(), v[3]);
        assert!(spt.path_to(&g, v[4]).is_none());
    }

    #[test]
    fn path_to_source_is_trivial() {
        let (g, v) = diamond();
        let spt = dijkstra(&g, v[0]);
        let p = spt.path_to(&g, v[0]).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.cost(), 0.0);
        assert_eq!(p.nodes(), &[v[0]]);
    }

    #[test]
    fn bellman_ford_agrees_with_dijkstra() {
        let (g, v) = diamond();
        let d = dijkstra(&g, v[0]);
        let bf = bellman_ford(&g, v[0]);
        for &n in &v {
            assert_eq!(d.distance(n), bf.distance(n), "node {n}");
        }
    }

    #[test]
    fn early_exit_matches_full_run() {
        let (g, v) = diamond();
        let full = dijkstra(&g, v[0]);
        let targeted = dijkstra_with_targets(&g, v[0], &[v[1], v[2]]);
        assert_eq!(full.distance(v[1]), targeted.distance(v[1]));
        assert_eq!(full.distance(v[2]), targeted.distance(v[2]));
    }

    #[test]
    fn refilled_tree_equals_a_fresh_one() {
        // One tree refilled across sources, target sets and graph sizes
        // holds exactly what a fresh run returns each time.
        let (g, v) = diamond();
        let mut big = Graph::with_nodes(9);
        for i in 1..9 {
            big.add_edge(NodeId::new(i - 1), NodeId::new(i), 1.0)
                .unwrap();
        }
        let mut tree = dijkstra(&big, NodeId::new(4));
        let runs: [(&Graph, NodeId, &[NodeId]); 4] = [
            (&g, v[0], &[v[3]]),
            (&g, v[2], &[v[0], v[1]]),
            (&big, NodeId::new(8), &[NodeId::new(0)]),
            (&g, v[4], &[]),
        ];
        for (graph, source, targets) in runs {
            dijkstra_with_targets_into(graph, source, targets, &mut tree);
            let fresh = dijkstra_with_targets(graph, source, targets);
            assert_eq!(tree.source(), fresh.source());
            assert_eq!(tree.pred, fresh.pred);
            let bits =
                |t: &ShortestPathTree| t.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&tree), bits(&fresh));
        }
    }

    #[test]
    fn early_exit_with_duplicate_targets() {
        let (g, v) = diamond();
        let spt = dijkstra_with_targets(&g, v[0], &[v[3], v[3], v[3]]);
        assert_eq!(spt.distance(v[3]), Some(6.0));
    }

    #[test]
    fn unknown_targets_are_ignored() {
        let (g, v) = diamond();
        let full = dijkstra(&g, v[0]);
        let outside = NodeId::new(99);
        // Only unknown targets: nothing to wait for, so the run is full.
        let all_unknown = dijkstra_with_targets(&g, v[0], &[outside]);
        for &n in &v {
            assert_eq!(all_unknown.distance(n), full.distance(n), "node {n}");
        }
        // Mixed: the known target is settled exactly; the unknown one is
        // neither waited for nor reachable.
        let mixed = dijkstra_with_targets(&g, v[0], &[outside, v[2]]);
        assert_eq!(mixed.distance(v[2]), Some(3.0));
        assert_eq!(mixed.predecessor(&g, v[2]), full.predecessor(&g, v[2]));
        assert_eq!(mixed.distance(outside), None);
        // It stopped at v2: v3 still holds its tentative 1 + 6, not 6.
        assert_eq!(mixed.distance(v[3]), Some(7.0));
    }

    #[test]
    fn nearest_target_path_stops_at_the_nearest_target() {
        let (g, v) = diamond();
        let none = BTreeSet::new();
        let full = dijkstra(&g, v[0]);
        // v2 (3.0) is nearer than v3 (6.0); the unknown target is ignored.
        let p = nearest_target_path(&g, v[0], &[v[3], NodeId::new(99), v[2]], &none).unwrap();
        assert_eq!(Some(p), full.path_to(&g, v[2]));
        // Cutting 1-2 (edge 2) makes v2 cost 4.0 via the direct edge.
        let cut: BTreeSet<EdgeId> = [EdgeId::new(2)].into_iter().collect();
        let p = nearest_target_path(&g, v[0], &[v[2]], &cut).unwrap();
        assert_eq!(p.cost(), 4.0);
        assert_eq!(p.edges(), &[EdgeId::new(1)]);
        // A source that is a target gets the trivial path; an unreachable
        // or unknown-only target set gets none.
        assert_eq!(
            nearest_target_path(&g, v[1], &[v[1], v[3]], &none),
            Some(Path::trivial(v[1]))
        );
        assert_eq!(nearest_target_path(&g, v[0], &[v[4]], &none), None);
        assert_eq!(
            nearest_target_path(&g, v[0], &[NodeId::new(99)], &none),
            None
        );
    }

    #[test]
    fn parallel_edges_use_cheapest() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, 10.0).unwrap();
        let cheap = g.add_edge(a, b, 2.0).unwrap();
        let spt = dijkstra(&g, a);
        assert_eq!(spt.distance(b), Some(2.0));
        let p = spt.path_to(&g, b).unwrap();
        assert_eq!(p.edges(), &[cheap]);
    }

    #[test]
    fn zero_weight_edges_work() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b, 0.0).unwrap();
        g.add_edge(b, c, 0.0).unwrap();
        let spt = dijkstra(&g, a);
        assert_eq!(spt.distance(c), Some(0.0));
        assert_eq!(spt.path_to(&g, c).unwrap().len(), 2);
    }

    #[test]
    fn a_pred_slot_is_one_u32_edge_id() {
        // 12 bytes a node with `dist`: the predecessor node is the edge's
        // other endpoint, so it is never stored.
        fn slot_size<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        let (g, v) = diamond();
        let spt = dijkstra(&g, v[0]);
        assert_eq!(slot_size(&spt.pred), 4);
        assert_eq!(slot_size(&DijkstraScratch::new().pred), 4);
        assert_eq!(spt.pred[v[0].index()], NO_PRED);
        assert_eq!(spt.pred[v[4].index()], NO_PRED);
        assert_eq!(spt.predecessor(&g, v[3]), Some((v[2], EdgeId::new(4))));
    }

    #[test]
    fn a_resident_tree_is_n_u32s_and_rebuilds_bit_for_bit() {
        // A store slot keeps `pred` alone, 4 bytes a node; the rebuild
        // gives back the kernel's tree, unreached v4 included.
        let (g, v) = diamond();
        let mut edges = vec![TreeEdge::default(); g.edge_count()];
        for e in g.edges() {
            edges[e.id.index()] = TreeEdge::new(e.u, e.v, e.weight);
        }
        let bits = |t: &ShortestPathTree| t.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        for &s in &v {
            let spt = dijkstra(&g, s);
            let slot = spt.resident();
            assert_eq!(std::mem::size_of_val(&*slot), 4 * g.node_count());
            let mut back = ShortestPathTree::unfilled(v[4]);
            back.rebuild(s, &slot, &edges);
            assert_eq!(back.source(), s);
            assert_eq!(back.pred, spt.pred);
            assert_eq!(bits(&back), bits(&spt));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not touch")]
    fn predecessor_against_the_wrong_graph_panics() {
        let (g, v) = diamond();
        let spt = dijkstra(&g, v[0]);
        // Same node count, but edge 0 (v0–v1 in `g`) joins v3–v4 here.
        let mut other = Graph::with_nodes(5);
        other.add_edge(v[3], v[4], 1.0).unwrap();
        let _ = spt.predecessor(&other, v[1]);
    }

    #[test]
    #[should_panic(expected = "not in graph")]
    fn dijkstra_rejects_unknown_source() {
        let g = Graph::new();
        let _ = dijkstra(&g, NodeId::new(0));
    }

    #[test]
    fn path_constructor_validates() {
        let p = Path::trivial(NodeId::new(3));
        assert_eq!(p.source(), p.target());
    }

    #[test]
    #[should_panic(expected = "one more node than edges")]
    fn path_shape_mismatch_panics() {
        let _ = Path::new(vec![NodeId::new(0)], vec![EdgeId::new(0)], 1.0);
    }
}
