//! The pseudo-multicast tree: the routing structure every algorithm in
//! this workspace returns (§III-B of the paper).

use netgraph::{EdgeId, NodeId};
use sdn::{Allocation, MulticastRequest, RequestId, Sdn};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One server's role in a pseudo-multicast tree: where the service chain
/// runs and how traffic gets there from the source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerUse {
    /// The switch whose attached server hosts the chain instance.
    pub server: NodeId,
    /// Edges of the ingress path from the request source to the server
    /// (empty when the server *is* the source's switch).
    pub ingress_edges: Vec<EdgeId>,
    /// Bandwidth cost of the ingress path (`Σ c_e · b_k`).
    pub ingress_cost: f64,
    /// Computing cost of this chain instance (`c_v · C_v(SC_k)`).
    pub computing_cost: f64,
}

/// A pseudo-multicast tree: ingress paths to one or more servers, a
/// distribution structure fanning out to the destinations, and (for the
/// online algorithm's LCA construction) edges traversed a second time by
/// processed packets being sent back up the tree.
///
/// Costs are recorded at construction time by the producing algorithm; the
/// structure itself is algorithm-agnostic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PseudoMulticastTree {
    /// The request this tree implements.
    pub request: RequestId,
    /// The multicast source `s_k`.
    pub source: NodeId,
    /// The servers hosting chain instances (1 ≤ len ≤ K).
    pub servers: Vec<ServerUse>,
    /// Edges of the distribution structure (each carries the traffic
    /// once).
    pub distribution_edges: Vec<EdgeId>,
    /// Edges carrying the traffic a *second* time (send-back segments of
    /// the online LCA construction). May repeat `distribution_edges`.
    pub extra_traversals: Vec<EdgeId>,
    /// Total bandwidth cost: the **union** of the ingress paths (the
    /// unprocessed stream flows once along shared trunk edges and splits —
    /// Fig. 3's multicast tree carries it through every on-tree server),
    /// plus every distribution edge, plus every extra traversal.
    pub bandwidth_cost: f64,
    /// Total computing cost over all chain instances.
    pub computing_cost: f64,
}

impl PseudoMulticastTree {
    /// Total implementation cost of the request:
    /// `bandwidth_cost + computing_cost`.
    #[must_use]
    pub fn total_cost(&self) -> f64 {
        self.bandwidth_cost + self.computing_cost
    }

    /// Renames every edge of the tree — ingress paths, distribution
    /// edges and extra traversals — through `f`: how a tree planned on a
    /// [`sdn::FeasibleGraph`] is carried back to network edge ids.
    #[must_use]
    pub fn map_edges(mut self, mut f: impl FnMut(EdgeId) -> EdgeId) -> Self {
        let edges = self
            .servers
            .iter_mut()
            .flat_map(|su| su.ingress_edges.iter_mut())
            .chain(self.distribution_edges.iter_mut())
            .chain(self.extra_traversals.iter_mut());
        for e in edges {
            *e = f(*e);
        }
        self
    }

    /// The servers hosting chain instances, in id order.
    #[must_use]
    pub fn servers_used(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.servers.iter().map(|s| s.server).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of distinct links carrying traffic (any number of times).
    #[must_use]
    pub fn link_footprint(&self) -> usize {
        let mut set: BTreeSet<EdgeId> = BTreeSet::new();
        for s in &self.servers {
            set.extend(s.ingress_edges.iter().copied());
        }
        set.extend(self.distribution_edges.iter().copied());
        set.extend(self.extra_traversals.iter().copied());
        set.len()
    }

    /// The deduplicated union of all ingress paths: edges carrying the
    /// *unprocessed* stream. A trunk edge shared by several servers'
    /// ingress paths appears once — the stream flows down it once and
    /// splits.
    #[must_use]
    pub fn ingress_union(&self) -> Vec<EdgeId> {
        let mut edges: Vec<EdgeId> = self
            .servers
            .iter()
            .flat_map(|s| s.ingress_edges.iter().copied())
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Builds the resource [`Allocation`] this tree requires: `b_k` Mbps
    /// per edge of the ingress **union** (shared trunk edges once), per
    /// distribution edge, and per extra traversal, plus the chain's
    /// computing demand per server.
    #[must_use]
    pub fn allocation(&self, request: &MulticastRequest) -> Allocation {
        let mut a = Allocation::new(self.request);
        let demand = request.computing_demand();
        for &e in &self.ingress_union() {
            a.add_link(e, request.bandwidth);
        }
        for s in &self.servers {
            a.add_server(s.server, demand);
        }
        for &e in &self.distribution_edges {
            a.add_link(e, request.bandwidth);
        }
        for &e in &self.extra_traversals {
            a.add_link(e, request.bandwidth);
        }
        a
    }

    /// Recomputes the total cost **without** ingress sharing: every
    /// server's ingress path is charged in full, as in the auxiliary-graph
    /// objective of Algorithm 1 (each virtual edge pays its whole path).
    /// This is the quantity the paper's 2K analysis bounds; tests compare
    /// it against the exact auxiliary optimum.
    #[must_use]
    pub fn cost_without_ingress_sharing(&self, sdn: &Sdn, request: &MulticastRequest) -> f64 {
        let b = request.bandwidth;
        let ingress: f64 = self.servers.iter().map(|s| s.ingress_cost).sum();
        let distribution: f64 = self
            .distribution_edges
            .iter()
            .chain(&self.extra_traversals)
            .map(|&e| sdn.unit_bandwidth_cost(e) * b)
            .sum();
        ingress + distribution + self.computing_cost
    }

    /// Structural validation (used by tests and debug assertions):
    ///
    /// 1. every server is an actual server of the network,
    /// 2. every ingress path is a walk starting at the source and ending
    ///    at its server,
    /// 3. every destination is connected to at least one server within the
    ///    union of distribution and extra-traversal edges,
    /// 4. the recorded computing cost matches the per-server sum.
    pub fn validate(&self, sdn: &Sdn, request: &MulticastRequest) -> Result<(), String> {
        if self.servers.is_empty() {
            return Err("pseudo-multicast tree uses no server".into());
        }
        let g = sdn.graph();
        for su in &self.servers {
            if !sdn.is_server(su.server) {
                return Err(format!("{} is not a server", su.server));
            }
            // Walk the ingress path.
            let mut at = self.source;
            for &e in &su.ingress_edges {
                let er = g.edge(e);
                if er.u == at {
                    at = er.v;
                } else if er.v == at {
                    at = er.u;
                } else {
                    return Err(format!("ingress path of {} breaks at {e}", su.server));
                }
            }
            if at != su.server {
                return Err(format!(
                    "ingress path of {} ends at {at}, not the server",
                    su.server
                ));
            }
        }

        // Destination coverage: BFS from all servers over the union edges.
        let mut adj: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for &e in self.distribution_edges.iter().chain(&self.extra_traversals) {
            let er = g.edge(e);
            adj.entry(er.u).or_default().push(er.v);
            adj.entry(er.v).or_default().push(er.u);
        }
        let mut reached: BTreeSet<NodeId> = BTreeSet::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for su in &self.servers {
            if reached.insert(su.server) {
                queue.push_back(su.server);
            }
        }
        while let Some(u) = queue.pop_front() {
            if let Some(nbs) = adj.get(&u) {
                for &v in nbs {
                    if reached.insert(v) {
                        queue.push_back(v);
                    }
                }
            }
        }
        for &d in &request.destinations {
            if !reached.contains(&d) {
                return Err(format!("destination {d} not covered by any server"));
            }
        }

        let computing: f64 = self.servers.iter().map(|s| s.computing_cost).sum();
        if (computing - self.computing_cost).abs() > sdn::VALIDATE_REL_TOL * (1.0 + computing.abs())
        {
            return Err(format!(
                "computing cost {} disagrees with per-server sum {computing}",
                self.computing_cost
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn::{NfvType, SdnBuilder, ServiceChain};

    /// s -- m(server) -- d, plus a spur m -- x.
    fn fixture() -> (Sdn, MulticastRequest, Vec<NodeId>, Vec<EdgeId>) {
        let mut b = SdnBuilder::new();
        let s = b.add_switch();
        let m = b.add_server(8_000.0, 2.0);
        let d = b.add_switch();
        let x = b.add_switch();
        let e0 = b.add_link(s, m, 10_000.0, 1.0).unwrap();
        let e1 = b.add_link(m, d, 10_000.0, 1.5).unwrap();
        let e2 = b.add_link(m, x, 10_000.0, 1.0).unwrap();
        let sdn = b.build().unwrap();
        let req = MulticastRequest::new(
            RequestId(1),
            s,
            vec![d],
            100.0,
            ServiceChain::new(vec![NfvType::Nat]),
        );
        (sdn, req, vec![s, m, d, x], vec![e0, e1, e2])
    }

    fn tree(_sdn: &Sdn, req: &MulticastRequest, v: &[NodeId], e: &[EdgeId]) -> PseudoMulticastTree {
        let demand = req.computing_demand();
        PseudoMulticastTree {
            request: req.id,
            source: v[0],
            servers: vec![ServerUse {
                server: v[1],
                ingress_edges: vec![e[0]],
                ingress_cost: 1.0 * req.bandwidth,
                computing_cost: 2.0 * demand,
            }],
            distribution_edges: vec![e[1]],
            extra_traversals: vec![],
            bandwidth_cost: (1.0 + 1.5) * req.bandwidth,
            computing_cost: 2.0 * demand,
        }
    }

    #[test]
    fn valid_tree_passes() {
        let (sdn, req, v, e) = fixture();
        let t = tree(&sdn, &req, &v, &e);
        t.validate(&sdn, &req).unwrap();
        assert_eq!(t.servers_used(), vec![v[1]]);
        assert_eq!(t.link_footprint(), 2);
        assert!((t.total_cost() - (250.0 + 2.0 * req.computing_demand())).abs() < 1e-9);
    }

    #[test]
    fn allocation_counts_traversals() {
        let (sdn, req, v, e) = fixture();
        let mut t = tree(&sdn, &req, &v, &e);
        t.extra_traversals = vec![e[1]]; // send-back retraversal
        let a = t.allocation(&req);
        assert_eq!(a.link_load(e[0]), 100.0);
        assert_eq!(a.link_load(e[1]), 200.0); // distribution + extra
        assert_eq!(a.server_load(v[1]), req.computing_demand());
        let mut net = sdn.clone();
        net.allocate(&a).unwrap();
        assert_eq!(net.residual_bandwidth(e[1]), 9_800.0);
    }

    #[test]
    fn broken_ingress_rejected() {
        let (sdn, req, v, e) = fixture();
        let mut t = tree(&sdn, &req, &v, &e);
        t.servers[0].ingress_edges = vec![e[1]]; // does not start at source
        assert!(t.validate(&sdn, &req).unwrap_err().contains("breaks"));
    }

    #[test]
    fn uncovered_destination_rejected() {
        let (sdn, req, v, e) = fixture();
        let mut t = tree(&sdn, &req, &v, &e);
        t.distribution_edges = vec![e[2]]; // spur to x, not to d
        assert!(t.validate(&sdn, &req).unwrap_err().contains("not covered"));
    }

    #[test]
    fn non_server_rejected() {
        let (sdn, req, v, e) = fixture();
        let mut t = tree(&sdn, &req, &v, &e);
        t.servers[0].server = v[3];
        t.servers[0].ingress_edges = vec![e[0], e[2]];
        assert!(t.validate(&sdn, &req).unwrap_err().contains("not a server"));
    }

    #[test]
    fn computing_cost_mismatch_rejected() {
        let (sdn, req, v, e) = fixture();
        let mut t = tree(&sdn, &req, &v, &e);
        t.computing_cost += 5.0;
        assert!(t.validate(&sdn, &req).unwrap_err().contains("disagrees"));
    }

    #[test]
    fn no_server_rejected() {
        let (sdn, req, v, e) = fixture();
        let mut t = tree(&sdn, &req, &v, &e);
        t.servers.clear();
        t.computing_cost = 0.0;
        assert!(t.validate(&sdn, &req).unwrap_err().contains("no server"));
    }

    #[test]
    fn server_at_source_has_empty_ingress() {
        let mut b = SdnBuilder::new();
        let s = b.add_server(8_000.0, 1.0);
        let d = b.add_switch();
        let e0 = b.add_link(s, d, 10_000.0, 1.0).unwrap();
        let sdn = b.build().unwrap();
        let req = MulticastRequest::new(
            RequestId(2),
            s,
            vec![d],
            50.0,
            ServiceChain::new(vec![NfvType::Ids]),
        );
        let t = PseudoMulticastTree {
            request: req.id,
            source: s,
            servers: vec![ServerUse {
                server: s,
                ingress_edges: vec![],
                ingress_cost: 0.0,
                computing_cost: req.computing_demand(),
            }],
            distribution_edges: vec![e0],
            extra_traversals: vec![],
            bandwidth_cost: 50.0,
            computing_cost: req.computing_demand(),
        };
        t.validate(&sdn, &req).unwrap();
    }
}
