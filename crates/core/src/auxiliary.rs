//! The auxiliary-graph reduction of Algorithm 1 (§IV-B).
//!
//! For a server combination `V_S^i`, the auxiliary graph `G_k^i` is the
//! SDN graph with edge weights scaled to the request (`c_e · b_k`), plus a
//! *virtual source* `s'_k` connected to every server `v ∈ V_S^i` by an
//! edge of weight
//!
//! ```text
//! w(s'_k, v) = (Σ_{e ∈ p_{s_k,v}} c_e · b_k) + c_v(SC_k)
//! ```
//!
//! i.e. the cheapest ingress path from the real source plus the computing
//! cost of instantiating the chain at `v`. Any *direct* edge `(s_k, v)`
//! with `v ∈ V_S^i` is zeroed (its traffic is already paid for by the
//! virtual edge). A Steiner tree spanning `{s'_k} ∪ D_k` in `G_k^i` then
//! *is* a pseudo-multicast tree whose every source→destination path passes
//! a server.

use crate::{PseudoMulticastTree, ServerUse};
use netgraph::{dijkstra, EdgeId, Graph, NodeId, ShortestPathTree};
use sdn::{MulticastRequest, Sdn};
use steiner::SteinerTree;

/// A materialized auxiliary graph `G_k^i` for one server combination,
/// with the bookkeeping needed to translate Steiner trees back into
/// pseudo-multicast trees.
#[derive(Debug, Clone)]
pub struct AuxiliaryGraph {
    graph: Graph,
    virtual_source: NodeId,
    /// Number of base (real) edges; aux edge ids below this are identical
    /// to SDN edge ids.
    base_edges: usize,
    /// Per virtual edge (in id order from `base_edges`): the server node.
    virtual_servers: Vec<NodeId>,
    /// Per virtual edge: ingress path edges (SDN ids) and their bandwidth
    /// cost.
    ingress: Vec<(Vec<EdgeId>, f64)>,
    /// Per virtual edge: the computing cost `c_v · C_v(SC_k)`.
    server_costs: Vec<f64>,
    /// Unscaled unit bandwidth cost `c_e` per base edge (needed to price
    /// ingress edges, whose aux copies may be zeroed).
    unit_costs: Vec<f64>,
    /// The request bandwidth `b_k`.
    bandwidth: f64,
    source: NodeId,
    request: sdn::RequestId,
}

impl AuxiliaryGraph {
    /// Builds `G_k^i` for `request` with the given server combination.
    ///
    /// Servers unreachable from the source are dropped from the
    /// combination; returns `None` if none remain (no feasible pseudo
    /// tree through this combination).
    #[must_use]
    pub fn build(sdn: &Sdn, request: &MulticastRequest, combination: &[NodeId]) -> Option<Self> {
        let g = sdn.graph();
        let _n = g.node_count();
        // Shortest ingress paths in the *unit-cost* graph (weights c_e);
        // bandwidth scaling is a constant factor b_k.
        let spt = dijkstra(g, request.source);
        Self::build_with_spt(sdn, request, combination, &spt)
    }

    /// Like [`AuxiliaryGraph::build`] but reusing a precomputed shortest
    /// path tree from the request source (callers enumerating many
    /// combinations share one).
    #[must_use]
    pub fn build_with_spt(
        sdn: &Sdn,
        request: &MulticastRequest,
        combination: &[NodeId],
        source_spt: &ShortestPathTree,
    ) -> Option<Self> {
        assert_eq!(
            source_spt.source(),
            request.source,
            "shortest path tree must be rooted at the request source"
        );
        let g = sdn.graph();
        let n = g.node_count();
        let b = request.bandwidth;
        let demand = request.computing_demand();

        let mut aux = Graph::with_nodes(n + 1);
        let virtual_source = NodeId::new(n);

        // Base edges, scaled; direct (s_k, v) edges with v in the
        // combination are zeroed (paper rule).
        for e in g.edges() {
            let zero = (e.u == request.source && combination.contains(&e.v))
                || (e.v == request.source && combination.contains(&e.u));
            let w = if zero { 0.0 } else { e.weight * b };
            aux.add_edge(e.u, e.v, w).expect("copied edge is valid"); // lint:allow(P1): copies an edge the parent graph already validated
        }
        let base_edges = g.edge_count();

        let mut virtual_servers = Vec::new();
        let mut ingress = Vec::new();
        let mut server_costs = Vec::new();
        for &v in combination {
            debug_assert!(sdn.is_server(v), "{v} is not a server");
            let Some(path) = source_spt.path_to(g, v) else {
                continue; // unreachable server
            };
            let ingress_cost = path.cost() * b;
            let computing = sdn
                .unit_computing_cost(v)
                .expect("combination members are servers") // lint:allow(P1): combination members are drawn from servers()
                * demand;
            aux.add_edge(virtual_source, v, ingress_cost + computing)
                .expect("virtual edge weight is finite"); // lint:allow(P1): ingress and computing costs are finite by construction
            virtual_servers.push(v);
            ingress.push((path.edges().to_vec(), ingress_cost));
            server_costs.push(computing);
        }
        if virtual_servers.is_empty() {
            return None;
        }

        Some(AuxiliaryGraph {
            graph: aux,
            virtual_source,
            base_edges,
            virtual_servers,
            ingress,
            server_costs,
            unit_costs: g.edges().map(|e| e.weight).collect(),
            bandwidth: b,
            source: request.source,
            request: request.id,
        })
    }

    /// The auxiliary graph itself.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The virtual source `s'_k`.
    #[must_use]
    pub fn virtual_source(&self) -> NodeId {
        self.virtual_source
    }

    /// The Steiner terminals: `{s'_k} ∪ D_k`.
    #[must_use]
    pub fn terminals(&self, request: &MulticastRequest) -> Vec<NodeId> {
        let mut t = Vec::with_capacity(request.destinations.len() + 1);
        t.push(self.virtual_source);
        t.extend(request.destinations.iter().copied());
        t
    }

    /// Translates a Steiner tree in this auxiliary graph into a
    /// pseudo-multicast tree: virtual edges become server uses with their
    /// ingress paths; base edges become distribution edges.
    ///
    /// # Panics
    ///
    /// Panics if the tree references edges outside this auxiliary graph
    /// or uses no virtual edge (no server — such a tree cannot span
    /// `s'_k`).
    #[must_use]
    pub fn steiner_to_pseudo(&self, tree: &SteinerTree) -> PseudoMulticastTree {
        let mut servers = Vec::new();
        let mut distribution = Vec::new();
        let mut distribution_cost = 0.0;
        let mut computing_cost = 0.0;
        for &e in tree.edges() {
            let idx = e.index();
            if idx < self.base_edges {
                distribution.push(e); // same id space as the SDN graph
                distribution_cost += self.graph.edge(e).weight;
            } else {
                let vi = idx - self.base_edges;
                let (Some((path, ingress_cost)), Some(&server), Some(&server_cost)) = (
                    self.ingress.get(vi),
                    self.virtual_servers.get(vi),
                    self.server_costs.get(vi),
                ) else {
                    // A foreign edge is a caller bug per the documented contract.
                    // lint:allow(P1): documented panic contract
                    panic!("steiner tree references edge outside the auxiliary graph");
                };
                servers.push(ServerUse {
                    server,
                    ingress_edges: path.clone(),
                    ingress_cost: *ingress_cost,
                    computing_cost: server_cost,
                });
                computing_cost += server_cost;
            }
        }
        assert!(
            !servers.is_empty(),
            "steiner tree spanning the virtual source must use a virtual edge"
        );
        let mut pseudo = PseudoMulticastTree {
            request: self.request,
            source: self.source,
            servers,
            distribution_edges: distribution,
            extra_traversals: Vec::new(),
            bandwidth_cost: 0.0,
            computing_cost,
        };
        // Bandwidth: ingress union (trunk edges shared between servers
        // count once — the unprocessed stream splits, Fig. 3) plus the
        // distribution structure. Ingress edges are priced per unit of the
        // *unscaled* SDN weight times b_k, which equals the scaled aux
        // weight for non-zeroed edges.
        let b = self.bandwidth;
        let ingress_cost: f64 = pseudo
            .ingress_union()
            .iter()
            .filter_map(|&e| self.unit_costs.get(e.index()))
            .map(|&unit| unit * b)
            .sum();
        pseudo.bandwidth_cost = ingress_cost + distribution_cost;
        debug_assert!(
            pseudo.total_cost() <= tree.cost() + 1e-6 * (1.0 + tree.cost()),
            "pseudo tree cost {} exceeds steiner cost {}",
            pseudo.total_cost(),
            tree.cost()
        );
        pseudo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn::{NfvType, RequestId, SdnBuilder, ServiceChain};

    /// Path: s -- a -- m(server) -- d; plus direct link s -- m.
    fn fixture() -> (Sdn, MulticastRequest, Vec<NodeId>, Vec<EdgeId>) {
        let mut b = SdnBuilder::new();
        let s = b.add_switch();
        let a = b.add_switch();
        let m = b.add_server(8_000.0, 2.0);
        let d = b.add_switch();
        let e0 = b.add_link(s, a, 10_000.0, 1.0).unwrap();
        let e1 = b.add_link(a, m, 10_000.0, 1.0).unwrap();
        let e2 = b.add_link(m, d, 10_000.0, 1.0).unwrap();
        let e3 = b.add_link(s, m, 10_000.0, 5.0).unwrap();
        let sdn = b.build().unwrap();
        let req = MulticastRequest::new(
            RequestId(0),
            s,
            vec![d],
            10.0,
            ServiceChain::new(vec![NfvType::Firewall]),
        );
        (sdn, req, vec![s, a, m, d], vec![e0, e1, e2, e3])
    }

    #[test]
    fn builds_with_virtual_edge_weights() {
        let (sdn, req, v, _) = fixture();
        let aux = AuxiliaryGraph::build(&sdn, &req, &[v[2]]).unwrap();
        assert_eq!(aux.graph().node_count(), 5);
        // 4 base + 1 virtual edge.
        assert_eq!(aux.graph().edge_count(), 5);
        let virt = aux.graph().edge(EdgeId::new(4));
        // Ingress: s->a->m costs (1+1)*10 = 20; computing 2.0 * 0.9*10 = 18.
        assert!((virt.weight - 38.0).abs() < 1e-9);
        assert_eq!(virt.u, aux.virtual_source());
        assert_eq!(virt.v, v[2]);
    }

    #[test]
    fn direct_source_server_edge_is_zeroed() {
        let (sdn, req, v, e) = fixture();
        let aux = AuxiliaryGraph::build(&sdn, &req, &[v[2]]).unwrap();
        // e3 = (s, m) direct: zeroed because m is in the combination.
        assert_eq!(aux.graph().edge(e[3]).weight, 0.0);
        // Other edges keep scaled weights.
        assert_eq!(aux.graph().edge(e[0]).weight, 10.0);
    }

    #[test]
    fn non_combination_server_edges_not_zeroed() {
        let mut b = SdnBuilder::new();
        let s = b.add_switch();
        let m1 = b.add_server(8_000.0, 1.0);
        let m2 = b.add_server(8_000.0, 1.0);
        let d = b.add_switch();
        b.add_link(s, m1, 10_000.0, 1.0).unwrap();
        b.add_link(s, m2, 10_000.0, 1.0).unwrap();
        b.add_link(m1, d, 10_000.0, 1.0).unwrap();
        b.add_link(m2, d, 10_000.0, 1.0).unwrap();
        let sdn = b.build().unwrap();
        let req = MulticastRequest::new(
            RequestId(0),
            s,
            vec![d],
            10.0,
            ServiceChain::new(vec![NfvType::Nat]),
        );
        let aux = AuxiliaryGraph::build(&sdn, &req, &[m1]).unwrap();
        assert_eq!(aux.graph().edge(EdgeId::new(0)).weight, 0.0); // (s, m1)
        assert_eq!(aux.graph().edge(EdgeId::new(1)).weight, 10.0); // (s, m2) kept
    }

    #[test]
    fn terminals_are_virtual_source_plus_destinations() {
        let (sdn, req, v, _) = fixture();
        let aux = AuxiliaryGraph::build(&sdn, &req, &[v[2]]).unwrap();
        let t = aux.terminals(&req);
        assert_eq!(t, vec![aux.virtual_source(), v[3]]);
    }

    #[test]
    fn steiner_tree_decomposes_to_pseudo_tree() {
        let (sdn, req, v, _) = fixture();
        let aux = AuxiliaryGraph::build(&sdn, &req, &[v[2]]).unwrap();
        let tree = steiner::kmb(aux.graph(), &aux.terminals(&req)).unwrap();
        let pseudo = aux.steiner_to_pseudo(&tree);
        pseudo.validate(&sdn, &req).unwrap();
        assert_eq!(pseudo.servers_used(), vec![v[2]]);
        // Cheapest: virtual edge (38) + distribution m->d (10) = 48.
        assert!((pseudo.total_cost() - 48.0).abs() < 1e-9);
        assert_eq!(pseudo.servers[0].ingress_edges.len(), 2);
    }

    #[test]
    fn unreachable_server_combination_is_none() {
        let mut b = SdnBuilder::new();
        let s = b.add_switch();
        let d = b.add_switch();
        let m = b.add_server(8_000.0, 1.0); // isolated server
        b.add_link(s, d, 10_000.0, 1.0).unwrap();
        let sdn = b.build().unwrap();
        let req = MulticastRequest::new(
            RequestId(0),
            s,
            vec![d],
            10.0,
            ServiceChain::new(vec![NfvType::Nat]),
        );
        assert!(AuxiliaryGraph::build(&sdn, &req, &[m]).is_none());
    }
}
