//! The residual-feasible subgraph every capacitated planner plans on.
//!
//! `Appro_Multi_Cap` (§IV-C) runs Algorithm 1 on `G'`, the links with
//! residual bandwidth ≥ `b_k`; `Online_CP` (§V, Alg. 2) runs on the same
//! links as `G_k` under exponential weights. [`FeasibleGraph`] is that
//! subgraph: which links a request may use is decided here, by
//! [`Sdn::link_fits`], and so is how a planned edge maps back to the
//! network. Servers are not part of it — a planner asks
//! [`Sdn::server_fits`] for its candidates — so every node stays.

use crate::Sdn;
use netgraph::{EdgeId, Graph};

/// The alive links of a network that fit a bandwidth demand, each under a
/// planner-chosen weight, plus the network edge id of every kept link.
///
/// Node ids are the network's and kept links appear in network edge
/// order, so adjacency order — and with it Dijkstra's tie-breaking — is
/// the one the full network would give over the same links.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeasibleGraph {
    /// The weighted subgraph; its edge ids are dense over the kept links.
    graph: Graph,
    /// Network edge id per `graph` edge id.
    parent: Vec<EdgeId>,
}

impl FeasibleGraph {
    /// The subgraph of `sdn` for bandwidth `b` under `weight` (see
    /// [`FeasibleGraph::rebuild`]).
    #[must_use]
    pub fn new(sdn: &Sdn, b: f64, weight: impl FnMut(EdgeId) -> Option<f64>) -> Self {
        let mut feasible = FeasibleGraph::default();
        feasible.rebuild(sdn, b, weight);
        feasible
    }

    /// Rebuilds the subgraph in place, keeping its allocations: every
    /// link with [`Sdn::link_fits`]`(e, b)` that `weight` prices is kept
    /// at that weight. `weight` is asked only about fitting links, in
    /// network edge order; `None` drops the link, as does a weight that
    /// is negative, NaN or infinite.
    pub fn rebuild(&mut self, sdn: &Sdn, b: f64, mut weight: impl FnMut(EdgeId) -> Option<f64>) {
        let net = sdn.graph();
        self.graph.reset(net.node_count());
        self.parent.clear();
        for e in net.edges() {
            if !sdn.link_fits(e.id, b) {
                continue;
            }
            let Some(w) = weight(e.id) else { continue };
            if self.graph.add_edge(e.u, e.v, w).is_ok() {
                self.parent.push(e.id);
            }
        }
    }

    /// The weighted subgraph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The network edge id of subgraph edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an edge of the subgraph.
    #[must_use]
    pub fn parent_edge(&self, e: EdgeId) -> EdgeId {
        self.parent[e.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fits, Allocation, RequestId, SdnBuilder, CAPACITY_EPS};
    use netgraph::{induced_subgraph, NodeId};
    use proptest::prelude::*;

    /// A ring of `n` links plus chords, servers on every third node.
    fn net(n: usize, chords: &[(usize, usize)], weights: &[f64]) -> Sdn {
        let mut bld = SdnBuilder::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    bld.add_server(1_000.0, 1.0)
                } else {
                    bld.add_switch()
                }
            })
            .collect();
        let ring = (0..n).map(|i| (i, (i + 1) % n));
        for (k, (u, v)) in ring.chain(chords.iter().copied()).enumerate() {
            if u != v {
                let w = weights[k % weights.len()];
                bld.add_link(nodes[u], nodes[v], 100.0, w).unwrap();
            }
        }
        bld.build().unwrap()
    }

    /// Asserts that `fg` is `induced_subgraph` over the same kept links,
    /// with `weight`'s prices: same edges in the same order, same
    /// endpoints, same weights, same parent map.
    fn assert_matches_reference(
        fg: &FeasibleGraph,
        sdn: &Sdn,
        b: f64,
        weight: impl Fn(EdgeId) -> Option<f64>,
    ) {
        let keep = |e: EdgeId| sdn.link_fits(e, b) && weight(e).is_some();
        let reference = induced_subgraph(sdn.graph(), |_| true, keep);
        let rg = reference.graph();
        assert_eq!(fg.graph().node_count(), sdn.node_count());
        assert_eq!(fg.graph().edge_count(), rg.edge_count());
        for (mine, theirs) in fg.graph().edges().zip(rg.edges()) {
            assert_eq!(mine.id, theirs.id);
            assert_eq!((mine.u, mine.v), (theirs.u, theirs.v));
            let parent = reference.parent_edge(theirs.id);
            assert_eq!(fg.parent_edge(mine.id), parent);
            assert_eq!(
                Some(mine.weight.to_bits()),
                weight(parent).map(f64::to_bits)
            );
        }
        for n in sdn.graph().nodes() {
            assert_eq!(fg.graph().neighbors(n), rg.neighbors(n));
        }
    }

    #[test]
    fn residual_exactly_at_the_fits_boundary_is_kept() {
        let mut sdn = net(4, &[], &[1.0]);
        // Link 0 keeps a residual of exactly 40, so `40 + CAPACITY_EPS`
        // sits on the `fits` boundary; link 1 keeps one ulp less.
        let b = 40.0 + CAPACITY_EPS;
        let mut a = Allocation::new(RequestId(0));
        a.add_link(EdgeId::new(0), 60.0);
        a.add_link(EdgeId::new(1), f64::from_bits(60.0_f64.to_bits() + 1));
        sdn.allocate(&a).unwrap();
        let (r0, r1) = (
            sdn.residual_bandwidth(EdgeId::new(0)),
            sdn.residual_bandwidth(EdgeId::new(1)),
        );
        assert_eq!(r0 + CAPACITY_EPS, b);
        assert!(fits(r0, b) && !fits(r1, b));
        let weight = |e: EdgeId| Some(sdn.unit_bandwidth_cost(e));
        let fg = FeasibleGraph::new(&sdn, b, weight);
        let kept: Vec<EdgeId> = (0..fg.graph().edge_count())
            .map(|i| fg.parent_edge(EdgeId::new(i)))
            .collect();
        assert_eq!(kept, vec![EdgeId::new(0), EdgeId::new(2), EdgeId::new(3)]);
        assert_matches_reference(&fg, &sdn, b, weight);
    }

    #[test]
    fn none_and_invalid_weights_drop_links_and_keep_nodes() {
        let sdn = net(5, &[(0, 2)], &[1.0, 2.0]);
        let weight = |e: EdgeId| match e.index() {
            1 => None,
            2 => Some(f64::NAN),
            3 => Some(-1.0),
            i => Some(i as f64),
        };
        let fg = FeasibleGraph::new(&sdn, 10.0, weight);
        assert_eq!(fg.graph().node_count(), 5);
        assert_eq!(fg.graph().edge_count(), 3);
        let kept: Vec<EdgeId> = (0..3).map(|i| fg.parent_edge(EdgeId::new(i))).collect();
        assert_eq!(kept, vec![EdgeId::new(0), EdgeId::new(4), EdgeId::new(5)]);
        let finite = |e: EdgeId| weight(e).filter(|w| w.is_finite() && *w >= 0.0);
        assert_matches_reference(&fg, &sdn, 10.0, finite);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `rebuild` ≡ `induced_subgraph` over the same links, on random
        /// loads with failed links and servers and one link excluded by
        /// `None`, and a rebuilt subgraph equals a fresh one.
        #[test]
        fn rebuild_equals_induced_subgraph(
            n in 4usize..12,
            chords in proptest::collection::vec((0usize..12, 0usize..12), 0..10),
            weights in proptest::collection::vec(0.0f64..5.0, 1..6),
            loads in proptest::collection::vec(0.0f64..100.0, 24),
            failed_links in proptest::collection::vec(0usize..24, 0..4),
            failed_servers in proptest::collection::vec(0usize..12, 0..3),
            excluded in 0usize..24,
            b in 1.0f64..60.0,
        ) {
            let chords: Vec<(usize, usize)> =
                chords.into_iter().map(|(u, v)| (u % n, v % n)).collect();
            let mut sdn = net(n, &chords, &weights);
            let links = sdn.link_count();
            let mut a = Allocation::new(RequestId(0));
            for (i, &load) in loads.iter().enumerate().take(links) {
                a.add_link(EdgeId::new(i), load);
            }
            sdn.allocate(&a).unwrap();
            for &l in &failed_links {
                sdn.fail_link(EdgeId::new(l % links)).unwrap();
            }
            for &s in &failed_servers {
                let v = NodeId::new(s % n);
                if sdn.is_server(v) {
                    sdn.fail_server(v).unwrap();
                }
            }
            let excluded = EdgeId::new(excluded % links);
            let weight = |e: EdgeId| {
                (e != excluded).then(|| sdn.unit_bandwidth_cost(e) * (1.0 + e.index() as f64))
            };

            // Reuse one subgraph built at another demand on another
            // network, so stale contents would show.
            let mut fg = FeasibleGraph::new(&net(3, &[], &[9.0]), 0.5, |_| Some(7.0));
            fg.rebuild(&sdn, b, weight);
            assert_matches_reference(&fg, &sdn, b, weight);
            prop_assert_eq!(&fg, &FeasibleGraph::new(&sdn, b, weight));
        }
    }
}
