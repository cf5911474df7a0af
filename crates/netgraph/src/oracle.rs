//! ALT-style landmark distance oracle over a [`CsrGraph`] snapshot.
//!
//! Precomputes, once per snapshot, the exact distance from a handful of
//! *landmark* nodes to every node. The triangle inequality then yields an
//! **admissible** (never over-estimating) lower bound on any pairwise
//! distance:
//!
//! ```text
//! lb(u, v) = max over landmarks L of |d(L, u) − d(L, v)|  ≤  d(u, v)
//! ```
//!
//! The planners use these bounds to order and prune candidate scans —
//! cheap O(|L|) arithmetic replaces a full Dijkstra per candidate — and
//! fall back to the exact shortest-path machinery only for survivors, so
//! the final answers stay byte-identical to the unpruned path.
//!
//! Landmark selection is the classic deterministic *farthest-point* sweep:
//! start from node 0, then repeatedly pick the node whose minimum distance
//! to the already-chosen set is largest (ties broken towards the lowest
//! id, unreachable nodes preferred so every connected component gets a
//! landmark). No RNG is involved: the same snapshot always produces the
//! same oracle.

use crate::csr::{dijkstra_csr, CsrGraph};
use crate::paths::DijkstraScratch;
use crate::NodeId;

/// A precomputed landmark distance table supporting admissible lower-bound
/// queries on pairwise shortest-path distances.
///
/// Construction runs one full Dijkstra per landmark (`O(|L| · m log n)`);
/// queries are `O(|L|)` float operations with no allocation.
#[derive(Debug, Clone)]
pub struct LandmarkOracle {
    /// Chosen landmark ids, in selection order.
    landmarks: Vec<NodeId>,
    /// Flat `|L| × n` table; `dist[l * n + v]` is the exact distance from
    /// `landmarks[l]` to node `v` (`f64::INFINITY` when unreachable).
    dist: Vec<f64>,
    /// Node count of the underlying snapshot.
    n: usize,
}

impl LandmarkOracle {
    /// Builds an oracle with up to `landmarks` landmarks over `csr`.
    ///
    /// Fewer landmarks are selected when the graph has fewer nodes. An
    /// empty graph or `landmarks == 0` yields an oracle whose bounds are
    /// all zero (still admissible).
    #[must_use]
    pub fn build(csr: &CsrGraph, landmarks: usize, scratch: &mut DijkstraScratch) -> Self {
        telemetry::hit(telemetry::Counter::OracleBuilds);
        let n = csr.node_count();
        let want = landmarks.min(n);
        let mut chosen: Vec<NodeId> = Vec::with_capacity(want);
        let mut dist: Vec<f64> = Vec::with_capacity(want * n);
        // min_to_chosen[v] = min over selected landmarks of d(L, v).
        let mut min_to_chosen = vec![f64::INFINITY; n];
        while chosen.len() < want {
            let next = if chosen.is_empty() {
                NodeId::new(0)
            } else {
                // Farthest-point rule: the node maximising its distance to
                // the chosen set. `INFINITY > anything` in partial_cmp, so
                // unreachable nodes (other components) win first and every
                // component ends up covered. Ties go to the lowest id;
                // already-chosen landmarks sit at distance 0 and only win
                // when every node is already at 0.
                let mut best_i = 0usize;
                let mut best_d = f64::NEG_INFINITY;
                for (i, &d) in min_to_chosen.iter().enumerate() {
                    if d > best_d {
                        best_d = d;
                        best_i = i;
                    }
                }
                if best_d <= 0.0 {
                    // Every node is itself a landmark already; stop early.
                    break;
                }
                NodeId::new(best_i)
            };
            let tree = dijkstra_csr(csr, next, scratch);
            for v in 0..n {
                let d = tree.distance(NodeId::new(v)).unwrap_or(f64::INFINITY);
                dist.push(d);
                if let Some(m) = min_to_chosen.get_mut(v) {
                    if d < *m {
                        *m = d;
                    }
                }
            }
            chosen.push(next);
        }
        LandmarkOracle {
            landmarks: chosen,
            dist,
            n,
        }
    }

    /// The selected landmarks, in selection order.
    #[must_use]
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Node count of the snapshot this oracle was built over.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Exact distance from `landmarks()[l]` to `v`, if both indices are in
    /// range (`f64::INFINITY` when `v` is unreachable from the landmark).
    #[must_use]
    pub fn landmark_distance(&self, l: usize, v: NodeId) -> Option<f64> {
        if v.index() >= self.n {
            return None;
        }
        self.dist.get(l * self.n + v.index()).copied()
    }

    /// Admissible lower bound on `d(u, v)`: never exceeds the true
    /// shortest-path distance. Exact when either endpoint is a landmark
    /// (and the other is reachable from it).
    ///
    /// Returns `f64::INFINITY` when some landmark proves `u` and `v` lie
    /// in different connected components, and `0.0` when the oracle has no
    /// information (no landmarks, or ids outside the snapshot).
    #[must_use]
    pub fn lower_bound(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v || u.index() >= self.n || v.index() >= self.n {
            return 0.0;
        }
        let mut best = 0.0f64;
        for l in 0..self.landmarks.len() {
            let base = l * self.n;
            let du = self.dist.get(base + u.index()).copied().unwrap_or(0.0);
            let dv = self.dist.get(base + v.index()).copied().unwrap_or(0.0);
            let lb = match (du.is_finite(), dv.is_finite()) {
                (true, true) => (du - dv).abs(),
                // One endpoint reachable from L, the other not: u and v are
                // in different components, so d(u, v) = ∞ and ∞ is a valid
                // (tight) lower bound.
                (true, false) | (false, true) => return f64::INFINITY,
                // Both unreachable from L: no information from this landmark.
                (false, false) => 0.0,
            };
            if lb > best {
                best = lb;
            }
        }
        best
    }

    /// Lower bound with exact fallback: returns the oracle bound together
    /// with a closure-free escape hatch for callers that need the exact
    /// value — when `exact` distances for `u` are already resident (for
    /// example a cached shortest-path tree), prefer them over the bound.
    ///
    /// `exact(u, v)` should return `Some(d)` only when it knows the true
    /// distance; the oracle bound is used otherwise.
    #[must_use]
    pub fn bound_or_exact<F>(&self, u: NodeId, v: NodeId, exact: F) -> f64
    where
        F: FnOnce(NodeId, NodeId) -> Option<f64>,
    {
        match exact(u, v) {
            Some(d) => d,
            None => self.lower_bound(u, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra, Graph};

    fn weighted_sample() -> Graph {
        // Two triangles joined by a long bridge, plus a pendant.
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..7).map(|_| g.add_node()).collect();
        g.add_edge(v[0], v[1], 1.0).unwrap();
        g.add_edge(v[1], v[2], 2.0).unwrap();
        g.add_edge(v[0], v[2], 2.5).unwrap();
        g.add_edge(v[2], v[3], 10.0).unwrap();
        g.add_edge(v[3], v[4], 1.0).unwrap();
        g.add_edge(v[4], v[5], 1.5).unwrap();
        g.add_edge(v[3], v[5], 2.0).unwrap();
        g.add_edge(v[5], v[6], 4.0).unwrap();
        g
    }

    fn all_pairs(g: &Graph) -> Vec<Vec<Option<f64>>> {
        g.nodes()
            .map(|s| {
                let spt = dijkstra(g, s);
                g.nodes().map(|t| spt.distance(t)).collect()
            })
            .collect()
    }

    #[test]
    fn selection_is_deterministic_and_farthest_point() {
        let g = weighted_sample();
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = DijkstraScratch::new();
        let a = LandmarkOracle::build(&csr, 3, &mut scratch);
        let b = LandmarkOracle::build(&csr, 3, &mut scratch);
        assert_eq!(a.landmarks(), b.landmarks());
        assert_eq!(a.landmarks().first(), Some(&NodeId::new(0)));
        // Node 6 is the farthest node from node 0 in this graph.
        assert_eq!(a.landmarks().get(1), Some(&NodeId::new(6)));
    }

    #[test]
    fn bound_is_admissible_and_exact_at_landmarks() {
        let g = weighted_sample();
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = DijkstraScratch::new();
        let oracle = LandmarkOracle::build(&csr, 3, &mut scratch);
        let exact = all_pairs(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                let lb = oracle.lower_bound(u, v);
                let d = exact[u.index()][v.index()].expect("connected graph");
                assert!(lb <= d + 1e-12, "lb({u}, {v}) = {lb} exceeds exact {d}");
            }
        }
        for &l in oracle.landmarks() {
            for v in g.nodes() {
                let d = exact[l.index()][v.index()].expect("connected graph");
                let lb = oracle.lower_bound(l, v);
                assert!((lb - d).abs() < 1e-12, "landmark bound not exact");
            }
        }
    }

    #[test]
    fn disconnected_components_each_get_a_landmark() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..6).map(|_| g.add_node()).collect();
        g.add_edge(v[0], v[1], 1.0).unwrap();
        g.add_edge(v[1], v[2], 1.0).unwrap();
        g.add_edge(v[3], v[4], 1.0).unwrap();
        g.add_edge(v[4], v[5], 1.0).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = DijkstraScratch::new();
        let oracle = LandmarkOracle::build(&csr, 2, &mut scratch);
        // First landmark is node 0; second must come from the other
        // component (unreachable beats any finite distance).
        assert_eq!(oracle.landmarks()[0], v[0]);
        assert!(oracle.landmarks()[1].index() >= 3);
        // Cross-component pairs are proven infinite.
        assert_eq!(oracle.lower_bound(v[0], v[4]), f64::INFINITY);
        // Same-component pairs stay admissible.
        assert!(oracle.lower_bound(v[0], v[2]) <= 2.0 + 1e-12);
    }

    #[test]
    fn degenerate_oracles_return_zero_bounds() {
        let g = weighted_sample();
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = DijkstraScratch::new();
        let empty = LandmarkOracle::build(&csr, 0, &mut scratch);
        assert!(empty.landmarks().is_empty());
        assert_eq!(empty.lower_bound(NodeId::new(0), NodeId::new(6)), 0.0);
        let oracle = LandmarkOracle::build(&csr, 2, &mut scratch);
        assert_eq!(oracle.lower_bound(NodeId::new(3), NodeId::new(3)), 0.0);
        // Out-of-universe ids degrade to the trivial bound, not a panic.
        assert_eq!(oracle.lower_bound(NodeId::new(0), NodeId::new(99)), 0.0);
    }

    #[test]
    fn more_landmarks_never_loosen_the_bound() {
        let g = weighted_sample();
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = DijkstraScratch::new();
        let small = LandmarkOracle::build(&csr, 1, &mut scratch);
        let large = LandmarkOracle::build(&csr, 4, &mut scratch);
        for u in g.nodes() {
            for v in g.nodes() {
                assert!(large.lower_bound(u, v) >= small.lower_bound(u, v) - 1e-12);
            }
        }
    }

    #[test]
    fn bound_or_exact_prefers_exact() {
        let g = weighted_sample();
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = DijkstraScratch::new();
        let oracle = LandmarkOracle::build(&csr, 2, &mut scratch);
        let u = NodeId::new(1);
        let v = NodeId::new(4);
        assert_eq!(oracle.bound_or_exact(u, v, |_, _| Some(123.0)), 123.0);
        assert_eq!(
            oracle.bound_or_exact(u, v, |_, _| None),
            oracle.lower_bound(u, v)
        );
    }

    #[test]
    fn landmark_cap_respects_node_count() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, 1.0).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = DijkstraScratch::new();
        let oracle = LandmarkOracle::build(&csr, 16, &mut scratch);
        assert!(oracle.landmarks().len() <= 2);
        assert!((oracle.lower_bound(a, b) - 1.0).abs() < 1e-12);
    }
}
