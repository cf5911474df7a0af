//! The SDN itself: topology + capacities + unit costs + residual state.

use crate::{fits, Allocation, SdnError};
use netgraph::{EdgeId, Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Incremental builder for an [`Sdn`].
///
/// Switches and servers are nodes of the underlying [`Graph`]; links carry
/// a bandwidth capacity `B_e` and a unit bandwidth cost `c_e` (the graph's
/// edge weight); servers carry a computing capacity `C_v` and a unit
/// computing cost `c_v`.
#[derive(Debug, Clone, Default)]
pub struct SdnBuilder {
    graph: Graph,
    computing_capacity: Vec<f64>, // 0.0 for plain switches
    unit_computing_cost: Vec<f64>,
    bandwidth_capacity: Vec<f64>,
}

impl SdnBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        SdnBuilder::default()
    }

    /// Adds a plain SDN switch (no attached server).
    pub fn add_switch(&mut self) -> NodeId {
        let n = self.graph.add_node();
        self.computing_capacity.push(0.0);
        self.unit_computing_cost.push(0.0);
        n
    }

    /// Adds a switch with an attached server of the given computing
    /// capacity (MHz) and unit computing cost.
    ///
    /// # Panics
    ///
    /// Panics if the capacity or cost is not positive and finite; builder
    /// misuse is a programming error in topology generation.
    pub fn add_server(&mut self, capacity_mhz: f64, unit_cost: f64) -> NodeId {
        let n = self.add_switch();
        self.attach_server(n, capacity_mhz, unit_cost)
            .expect("fresh switch accepts a server"); // lint:allow(P1): a freshly added switch has no server attached yet
        n
    }

    /// Attaches a server to an existing switch (used by topology
    /// generators, which create the graph first and place servers after).
    ///
    /// # Errors
    ///
    /// Returns [`SdnError::UnknownNode`] for unknown nodes and
    /// [`SdnError::InvalidParameter`] for non-positive capacities/costs.
    pub fn attach_server(
        &mut self,
        node: NodeId,
        capacity_mhz: f64,
        unit_cost: f64,
    ) -> Result<(), SdnError> {
        if !self.graph.contains_node(node) {
            return Err(SdnError::UnknownNode(node));
        }
        if !(capacity_mhz.is_finite() && capacity_mhz > 0.0) {
            return Err(SdnError::InvalidParameter {
                what: "server capacity",
                value: capacity_mhz,
            });
        }
        if !(unit_cost.is_finite() && unit_cost >= 0.0) {
            return Err(SdnError::InvalidParameter {
                what: "server unit cost",
                value: unit_cost,
            });
        }
        if let Some(c) = self.computing_capacity.get_mut(node.index()) {
            *c = capacity_mhz;
        }
        if let Some(c) = self.unit_computing_cost.get_mut(node.index()) {
            *c = unit_cost;
        }
        Ok(())
    }

    /// Adds a bidirectional link with bandwidth capacity `B_e` (Mbps) and
    /// unit bandwidth cost `c_e`.
    ///
    /// # Errors
    ///
    /// Returns [`SdnError::InvalidParameter`] for non-positive capacity or
    /// negative cost, and propagates graph errors (unknown endpoint,
    /// self-loop).
    pub fn add_link(
        &mut self,
        u: NodeId,
        v: NodeId,
        bandwidth_mbps: f64,
        unit_cost: f64,
    ) -> Result<EdgeId, SdnError> {
        if !(bandwidth_mbps.is_finite() && bandwidth_mbps > 0.0) {
            return Err(SdnError::InvalidParameter {
                what: "link bandwidth capacity",
                value: bandwidth_mbps,
            });
        }
        let e = self.graph.add_edge(u, v, unit_cost)?;
        self.bandwidth_capacity.push(bandwidth_mbps);
        Ok(e)
    }

    /// Finalizes the network.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (all validation happens on the
    /// individual operations) but kept fallible for future invariants.
    pub fn build(self) -> Result<Sdn, SdnError> {
        let servers: Vec<NodeId> = self
            .computing_capacity
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0.0)
            .map(|(i, _)| NodeId::new(i))
            .collect();
        let residual_bandwidth = self.bandwidth_capacity.clone();
        let residual_computing = self.computing_capacity.clone();
        let link_alive = vec![true; self.bandwidth_capacity.len()];
        let node_alive = vec![true; self.graph.node_count()];
        Ok(Sdn {
            topology: Arc::new(Topology {
                graph: self.graph,
                servers,
                computing_capacity: self.computing_capacity,
                unit_computing_cost: self.unit_computing_cost,
                bandwidth_capacity: self.bandwidth_capacity,
            }),
            residual_bandwidth,
            residual_computing,
            link_alive,
            node_alive,
            version: 0,
        })
    }
}

/// A software-defined network `G = (V, E)` with a server subset `V_S`,
/// capacities, unit costs, and a residual-resource ledger (§III-A).
///
/// The ledger is the mutable part: [`Sdn::allocate`] and [`Sdn::release`]
/// move residual capacity atomically (an allocation either fully applies
/// or the network is left untouched). Everything else never changes after
/// [`SdnBuilder::build`] and lives in one shared [`Topology`], so a clone
/// — every planner snapshot — copies only the ledger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sdn {
    topology: Arc<Topology>,
    residual_bandwidth: Vec<f64>,
    residual_computing: Vec<f64>,
    /// Per-link liveness: `false` while the link is failed. Reserved
    /// capacity bookkeeping is unaffected by failures — only the
    /// feasibility view ([`Sdn::link_fits`]) is masked.
    link_alive: Vec<bool>,
    /// Per-node (server) liveness: `false` while the attached server is
    /// failed. Plain switches are always `true`.
    node_alive: Vec<bool>,
    /// Bumped on every successful residual-capacity mutation; shortest-path
    /// caches compare it to detect staleness.
    version: u64,
}

/// The immutable half of an [`Sdn`]: graph, servers, capacities and unit
/// costs. Every clone of a network shares one `Topology`
/// ([`Sdn::topology`]); caches built over a network keep it to check
/// that they are used on the same topology.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    graph: Graph,
    servers: Vec<NodeId>,
    computing_capacity: Vec<f64>,
    unit_computing_cost: Vec<f64>,
    bandwidth_capacity: Vec<f64>,
}

impl PartialEq for Sdn {
    /// Structural equality: two networks are equal when topology,
    /// capacities, costs, and residual state match. The mutation counter
    /// [`Sdn::version`] is deliberately excluded — it tracks *history*,
    /// not state (a network reached by allocate+release equals one that
    /// was never touched). Clones share their topology, so it is compared
    /// by value only when the two networks were built separately.
    fn eq(&self, other: &Self) -> bool {
        // lint:allow(T1): bit-exact equality is the point — the chaos gate
        // compares replayed ledgers for *identity*, not approximate match.
        (Arc::ptr_eq(&self.topology, &other.topology) || self.topology == other.topology)
            && self.residual_bandwidth == other.residual_bandwidth
            && self.residual_computing == other.residual_computing
            && self.link_alive == other.link_alive
            && self.node_alive == other.node_alive
    }
}

impl Sdn {
    /// The immutable half of the network, shared by every clone.
    #[must_use]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The underlying topology. Edge weights are the unit bandwidth costs
    /// `c_e`.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.topology.graph
    }

    /// Number of switches `|V|`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.topology.graph.node_count()
    }

    /// Number of links `|E|`.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.topology.graph.edge_count()
    }

    /// The switches with attached servers, `V_S`, in id order.
    #[must_use]
    pub fn servers(&self) -> &[NodeId] {
        &self.topology.servers
    }

    /// Returns `true` if node `n` has an attached server.
    #[must_use]
    pub fn is_server(&self, n: NodeId) -> bool {
        // The capacity vector is node-indexed, so the bounds check doubles
        // as the contains-node check.
        self.topology
            .computing_capacity
            .get(n.index())
            .is_some_and(|&c| c > 0.0)
    }

    /// Computing capacity `C_v` of the server at `v`, or `None` for plain
    /// switches.
    #[must_use]
    pub fn computing_capacity(&self, v: NodeId) -> Option<f64> {
        self.topology
            .computing_capacity
            .get(v.index())
            .copied()
            .filter(|&c| c > 0.0)
    }

    /// Unit computing cost `c_v` at server `v`, or `None` for plain
    /// switches.
    #[must_use]
    pub fn unit_computing_cost(&self, v: NodeId) -> Option<f64> {
        if self.is_server(v) {
            self.topology.unit_computing_cost.get(v.index()).copied()
        } else {
            None
        }
    }

    /// Bandwidth capacity `B_e` of link `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a link of this network.
    #[must_use]
    pub fn bandwidth_capacity(&self, e: EdgeId) -> f64 {
        self.topology
            .bandwidth_capacity
            .get(e.index())
            .copied()
            .unwrap_or_else(|| panic!("unknown link {e}")) // lint:allow(P1): documented panic on a foreign edge id
    }

    /// Unit bandwidth cost `c_e` of link `e` (the graph edge weight).
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a link of this network.
    #[must_use]
    pub fn unit_bandwidth_cost(&self, e: EdgeId) -> f64 {
        self.topology.graph.edge(e).weight
    }

    /// Residual bandwidth `B_e(k)` on link `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a link of this network.
    #[must_use]
    pub fn residual_bandwidth(&self, e: EdgeId) -> f64 {
        self.residual_bandwidth
            .get(e.index())
            .copied()
            .unwrap_or_else(|| panic!("unknown link {e}")) // lint:allow(P1): documented panic on a foreign edge id
    }

    /// Residual computing `C_v(k)` at server `v`, or `None` for plain
    /// switches.
    #[must_use]
    pub fn residual_computing(&self, v: NodeId) -> Option<f64> {
        if self.is_server(v) {
            self.residual_computing.get(v.index()).copied()
        } else {
            None
        }
    }

    /// Bandwidth utilization of link `e` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a link of this network.
    #[must_use]
    pub fn bandwidth_utilization(&self, e: EdgeId) -> f64 {
        1.0 - self.residual_bandwidth(e) / self.bandwidth_capacity(e)
    }

    /// Computing utilization of server `v` in `[0, 1]`, or `None` for
    /// plain switches.
    #[must_use]
    pub fn computing_utilization(&self, v: NodeId) -> Option<f64> {
        Some(1.0 - self.residual_computing(v)? / self.computing_capacity(v)?)
    }

    /// The residual-state mutation counter: incremented by every
    /// successful [`Sdn::allocate`], [`Sdn::release`], and [`Sdn::reset`].
    ///
    /// Caches keyed on residual capacities (e.g. per-source shortest-path
    /// trees over the feasible subgraph) store the version they were
    /// computed at and invalidate when it moves. Cloning preserves the
    /// counter, so a cache built from a snapshot stays valid for the
    /// snapshot.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Returns `true` while link `e` is up.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a link of this network.
    #[must_use]
    pub fn is_link_alive(&self, e: EdgeId) -> bool {
        self.link_alive
            .get(e.index())
            .copied()
            .unwrap_or_else(|| panic!("unknown link {e}")) // lint:allow(P1): documented panic on a foreign edge id
    }

    /// Returns `true` if `v` carries a server that is currently up.
    /// `false` for plain switches and for failed servers alike.
    #[must_use]
    pub fn is_server_alive(&self, v: NodeId) -> bool {
        self.is_server(v) && self.node_alive.get(v.index()).copied().unwrap_or(false)
    }

    /// Whether link `e` is up and its residual bandwidth `B_e(k)` fits a
    /// demand of `b` ([`crate::fits`]): the link-side membership test of
    /// the residual-feasible subgraph every capacitated planner builds.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a link of this network.
    #[must_use]
    pub fn link_fits(&self, e: EdgeId, b: f64) -> bool {
        self.is_link_alive(e) && fits(self.residual_bandwidth(e), b)
    }

    /// Whether `v` carries a server that is up and whose residual
    /// computing `C_v(k)` fits a demand of `demand` ([`crate::fits`]).
    /// `false` for plain switches and for failed servers alike.
    #[must_use]
    pub fn server_fits(&self, v: NodeId, demand: f64) -> bool {
        self.is_server_alive(v)
            && self
                .residual_computing
                .get(v.index())
                .is_some_and(|&r| fits(r, demand))
    }

    /// Takes link `e` down. Reserved capacity on the link is *not*
    /// released — sessions holding it stay accounted until their owner
    /// releases or repairs them — but [`Sdn::link_fits`] turns false and
    /// [`Sdn::version`] moves so caches invalidate.
    ///
    /// Returns `Ok(true)` when the link went down, `Ok(false)` when it was
    /// already down (idempotent; the version does not move).
    ///
    /// # Errors
    ///
    /// Returns a graph error for an unknown link id.
    pub fn fail_link(&mut self, e: EdgeId) -> Result<bool, SdnError> {
        let Some(alive) = self.link_alive.get_mut(e.index()) else {
            return Err(SdnError::Graph(netgraph::GraphError::InvalidEdge(e)));
        };
        if !*alive {
            return Ok(false);
        }
        *alive = false;
        self.version = self.version.wrapping_add(1);
        Ok(true)
    }

    /// Brings link `e` back up. Its residual bandwidth resumes at capacity
    /// minus whatever live sessions still hold (the ledger was preserved
    /// across the failure).
    ///
    /// Returns `Ok(true)` when the link came up, `Ok(false)` when it was
    /// already up.
    ///
    /// # Errors
    ///
    /// Returns a graph error for an unknown link id.
    pub fn recover_link(&mut self, e: EdgeId) -> Result<bool, SdnError> {
        let Some(alive) = self.link_alive.get_mut(e.index()) else {
            return Err(SdnError::Graph(netgraph::GraphError::InvalidEdge(e)));
        };
        if *alive {
            return Ok(false);
        }
        *alive = true;
        self.version = self.version.wrapping_add(1);
        Ok(true)
    }

    /// Takes the server at `v` down (its switch keeps forwarding; only the
    /// computing resource is lost). Reserved computing is not released.
    ///
    /// Returns `Ok(true)` when the server went down, `Ok(false)` when it
    /// was already down.
    ///
    /// # Errors
    ///
    /// Returns [`SdnError::NotAServer`] if `v` has no attached server.
    pub fn fail_server(&mut self, v: NodeId) -> Result<bool, SdnError> {
        if !self.is_server(v) {
            return Err(SdnError::NotAServer(v));
        }
        let Some(alive) = self.node_alive.get_mut(v.index()) else {
            return Err(SdnError::NotAServer(v));
        };
        if !*alive {
            return Ok(false);
        }
        *alive = false;
        self.version = self.version.wrapping_add(1);
        Ok(true)
    }

    /// Brings the server at `v` back up.
    ///
    /// Returns `Ok(true)` when the server came up, `Ok(false)` when it was
    /// already up.
    ///
    /// # Errors
    ///
    /// Returns [`SdnError::NotAServer`] if `v` has no attached server.
    pub fn recover_server(&mut self, v: NodeId) -> Result<bool, SdnError> {
        if !self.is_server(v) {
            return Err(SdnError::NotAServer(v));
        }
        let Some(alive) = self.node_alive.get_mut(v.index()) else {
            return Err(SdnError::NotAServer(v));
        };
        if *alive {
            return Ok(false);
        }
        *alive = true;
        self.version = self.version.wrapping_add(1);
        Ok(true)
    }

    /// Currently failed links, in id order.
    pub fn failed_links(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.link_alive
            .iter()
            .enumerate()
            .filter(|(_, alive)| !**alive)
            .map(|(i, _)| EdgeId::new(i))
    }

    /// Currently failed servers, in id order.
    pub fn failed_servers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.topology
            .servers
            .iter()
            .copied()
            .filter(|v| !self.node_alive.get(v.index()).copied().unwrap_or(true))
    }

    /// The smallest residual bandwidth over every link, a failed link
    /// counting as `0.0`, in link id order; `+∞` for a network without
    /// links. One pass over the ledger's residual and liveness arrays.
    #[must_use]
    pub fn min_live_bandwidth(&self) -> f64 {
        self.residual_bandwidth
            .iter()
            .zip(&self.link_alive)
            .map(|(&residual, &alive)| if alive { residual } else { 0.0 })
            .fold(f64::INFINITY, f64::min)
    }

    /// The smallest residual computing over every server, a failed
    /// server counting as `0.0`, in id order; `+∞` for a network without
    /// servers.
    #[must_use]
    pub fn min_live_computing(&self) -> f64 {
        self.topology
            .servers
            .iter()
            .map(|v| {
                let alive = self.node_alive.get(v.index()).copied().unwrap_or(false);
                match self.residual_computing.get(v.index()) {
                    Some(&residual) if alive => residual,
                    _ => 0.0,
                }
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Returns `true` when no link or server is currently failed.
    #[must_use]
    pub fn all_alive(&self) -> bool {
        self.link_alive.iter().all(|&a| a) && self.node_alive.iter().all(|&a| a)
    }

    /// Checks whether `alloc` fits in the current residual capacities.
    #[must_use]
    pub fn can_allocate(&self, alloc: &Allocation) -> bool {
        self.validate_allocation(alloc).is_ok()
    }

    fn validate_allocation(&self, alloc: &Allocation) -> Result<(), SdnError> {
        // The same `fits` every planner-side feasibility filter asks, so a
        // plan the filters accept always commits.
        for (e, load) in alloc.links() {
            let (Some(&alive), Some(&avail)) = (
                self.link_alive.get(e.index()),
                self.residual_bandwidth.get(e.index()),
            ) else {
                return Err(SdnError::Graph(netgraph::GraphError::InvalidEdge(e)));
            };
            if !alive {
                return Err(SdnError::DeadElement {
                    what: format!("link {e}"),
                });
            }
            if !fits(avail, load) {
                return Err(SdnError::InsufficientBandwidth {
                    link: e,
                    requested: load,
                    available: avail,
                });
            }
        }
        for (v, load) in alloc.servers() {
            if !self.is_server(v) {
                return Err(SdnError::NotAServer(v));
            }
            if !self.node_alive.get(v.index()).copied().unwrap_or(false) {
                return Err(SdnError::DeadElement {
                    what: format!("server {v}"),
                });
            }
            let avail = self
                .residual_computing
                .get(v.index())
                .copied()
                .unwrap_or(0.0);
            if !fits(avail, load) {
                return Err(SdnError::InsufficientComputing {
                    server: v,
                    requested: load,
                    available: avail,
                });
            }
        }
        Ok(())
    }

    /// Atomically commits an allocation, decreasing residual capacities.
    ///
    /// # Errors
    ///
    /// Returns the first capacity violation found; on error the network is
    /// left untouched.
    pub fn allocate(&mut self, alloc: &Allocation) -> Result<(), SdnError> {
        self.validate_allocation(alloc)?;
        for (e, load) in alloc.links() {
            if let Some(r) = self.residual_bandwidth.get_mut(e.index()) {
                *r = (*r - load).max(0.0);
            }
        }
        for (v, load) in alloc.servers() {
            if let Some(r) = self.residual_computing.get_mut(v.index()) {
                *r = (*r - load).max(0.0);
            }
        }
        self.version = self.version.wrapping_add(1);
        Ok(())
    }

    /// Returns a previously committed allocation to the pool.
    ///
    /// # Errors
    ///
    /// Returns [`SdnError::OverRelease`] if releasing would exceed a
    /// capacity (accounting bug guard); the network is left untouched in
    /// that case.
    pub fn release(&mut self, alloc: &Allocation) -> Result<(), SdnError> {
        const EPS: f64 = crate::cost::RELEASE_EPS;
        for (e, load) in alloc.links() {
            let (Some(&res), Some(&cap)) = (
                self.residual_bandwidth.get(e.index()),
                self.topology.bandwidth_capacity.get(e.index()),
            ) else {
                return Err(SdnError::Graph(netgraph::GraphError::InvalidEdge(e)));
            };
            if res + load > cap * (1.0 + EPS) + EPS {
                return Err(SdnError::OverRelease {
                    what: format!("link {e}"),
                });
            }
        }
        for (v, load) in alloc.servers() {
            if !self.is_server(v) {
                return Err(SdnError::NotAServer(v));
            }
            let res = self
                .residual_computing
                .get(v.index())
                .copied()
                .unwrap_or(0.0);
            let cap = self
                .topology
                .computing_capacity
                .get(v.index())
                .copied()
                .unwrap_or(0.0);
            if res + load > cap * (1.0 + EPS) + EPS {
                return Err(SdnError::OverRelease {
                    what: format!("server {v}"),
                });
            }
        }
        for (e, load) in alloc.links() {
            let cap = self
                .topology
                .bandwidth_capacity
                .get(e.index())
                .copied()
                .unwrap_or(0.0);
            if let Some(r) = self.residual_bandwidth.get_mut(e.index()) {
                *r = (*r + load).min(cap);
            }
        }
        for (v, load) in alloc.servers() {
            let cap = self
                .topology
                .computing_capacity
                .get(v.index())
                .copied()
                .unwrap_or(0.0);
            if let Some(r) = self.residual_computing.get_mut(v.index()) {
                *r = (*r + load).min(cap);
            }
        }
        self.version = self.version.wrapping_add(1);
        Ok(())
    }

    /// Checks the ledger against the allocations that should hold it:
    /// every residual must equal capacity minus the summed loads of
    /// `live`, within [`VALIDATE_REL_TOL`](crate::VALIDATE_REL_TOL)
    /// relative to capacity. `live` must own every load in the network,
    /// so a load committed or released behind its back shows up.
    ///
    /// # Errors
    ///
    /// [`SdnError::LedgerMismatch`] for the first link, else the first
    /// node, that disagrees.
    pub fn check_ledger<'a>(
        &self,
        live: impl IntoIterator<Item = &'a Allocation>,
    ) -> Result<(), SdnError> {
        let mut link_load = vec![0.0; self.residual_bandwidth.len()];
        let mut node_load = vec![0.0; self.residual_computing.len()];
        for alloc in live {
            for (e, load) in alloc.links() {
                if let Some(sum) = link_load.get_mut(e.index()) {
                    *sum += load;
                }
            }
            for (v, load) in alloc.servers() {
                if let Some(sum) = node_load.get_mut(v.index()) {
                    *sum += load;
                }
            }
        }
        // The expected residual when it is off by more than the tolerance.
        let off = |cap: f64, load: f64, actual: f64| {
            let expected = cap - load;
            ((expected - actual).abs() > crate::VALIDATE_REL_TOL * (1.0 + cap)).then_some(expected)
        };
        let t = &self.topology;
        for (i, ((&cap, &actual), load)) in t
            .bandwidth_capacity
            .iter()
            .zip(&self.residual_bandwidth)
            .zip(link_load)
            .enumerate()
        {
            if let Some(expected) = off(cap, load, actual) {
                return Err(SdnError::LedgerMismatch {
                    what: format!("link {}", EdgeId::new(i)),
                    expected,
                    actual,
                });
            }
        }
        for (i, ((&cap, &actual), load)) in t
            .computing_capacity
            .iter()
            .zip(&self.residual_computing)
            .zip(node_load)
            .enumerate()
        {
            if let Some(expected) = off(cap, load, actual) {
                return Err(SdnError::LedgerMismatch {
                    what: format!("server {}", NodeId::new(i)),
                    expected,
                    actual,
                });
            }
        }
        Ok(())
    }

    /// Restores every residual capacity to its full value. Liveness is
    /// untouched — failed elements stay failed (use [`Sdn::recover_all`]).
    pub fn reset(&mut self) {
        self.residual_bandwidth
            .copy_from_slice(&self.topology.bandwidth_capacity);
        self.residual_computing
            .copy_from_slice(&self.topology.computing_capacity);
        self.version = self.version.wrapping_add(1);
    }

    /// Brings every failed link and server back up. A no-op (version
    /// included) when nothing is failed.
    pub fn recover_all(&mut self) {
        if self.all_alive() {
            return;
        }
        self.link_alive.fill(true);
        self.node_alive.fill(true);
        self.version = self.version.wrapping_add(1);
    }

    /// Sum of all link bandwidth capacities (Mbps).
    #[must_use]
    pub fn total_bandwidth_capacity(&self) -> f64 {
        self.topology.bandwidth_capacity.iter().sum()
    }

    /// Sum of all server computing capacities (MHz).
    #[must_use]
    pub fn total_computing_capacity(&self) -> f64 {
        self.topology.computing_capacity.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestId;

    fn small() -> (Sdn, Vec<NodeId>, Vec<EdgeId>) {
        let mut b = SdnBuilder::new();
        let v0 = b.add_switch();
        let v1 = b.add_server(1000.0, 2.0);
        let v2 = b.add_switch();
        let e0 = b.add_link(v0, v1, 100.0, 1.0).unwrap();
        let e1 = b.add_link(v1, v2, 200.0, 3.0).unwrap();
        (b.build().unwrap(), vec![v0, v1, v2], vec![e0, e1])
    }

    #[test]
    fn builder_classifies_servers() {
        let (sdn, v, _) = small();
        assert_eq!(sdn.servers(), &[v[1]]);
        assert!(sdn.is_server(v[1]));
        assert!(!sdn.is_server(v[0]));
        assert_eq!(sdn.computing_capacity(v[1]), Some(1000.0));
        assert_eq!(sdn.computing_capacity(v[0]), None);
        assert_eq!(sdn.unit_computing_cost(v[1]), Some(2.0));
        assert_eq!(sdn.node_count(), 3);
        assert_eq!(sdn.link_count(), 2);
    }

    #[test]
    fn capacities_and_costs_exposed() {
        let (sdn, _, e) = small();
        assert_eq!(sdn.bandwidth_capacity(e[0]), 100.0);
        assert_eq!(sdn.unit_bandwidth_cost(e[1]), 3.0);
        assert_eq!(sdn.total_bandwidth_capacity(), 300.0);
        assert_eq!(sdn.total_computing_capacity(), 1000.0);
    }

    #[test]
    fn allocate_and_release_round_trip() {
        let (mut sdn, v, e) = small();
        let mut a = Allocation::new(RequestId(1));
        a.add_link(e[0], 60.0);
        a.add_server(v[1], 400.0);
        assert!(sdn.can_allocate(&a));
        sdn.allocate(&a).unwrap();
        assert_eq!(sdn.residual_bandwidth(e[0]), 40.0);
        assert_eq!(sdn.residual_computing(v[1]), Some(600.0));
        assert!((sdn.bandwidth_utilization(e[0]) - 0.6).abs() < 1e-9);
        assert!((sdn.computing_utilization(v[1]).unwrap() - 0.4).abs() < 1e-9);
        sdn.release(&a).unwrap();
        assert_eq!(sdn.residual_bandwidth(e[0]), 100.0);
        assert_eq!(sdn.residual_computing(v[1]), Some(1000.0));
    }

    #[test]
    fn allocation_is_atomic_on_failure() {
        let (mut sdn, v, e) = small();
        let mut a = Allocation::new(RequestId(1));
        a.add_link(e[0], 60.0);
        a.add_server(v[1], 5000.0); // too much
        let err = sdn.allocate(&a).unwrap_err();
        assert!(matches!(err, SdnError::InsufficientComputing { .. }));
        // Link residual untouched.
        assert_eq!(sdn.residual_bandwidth(e[0]), 100.0);
    }

    #[test]
    fn accumulated_loads_checked_jointly() {
        let (mut sdn, _, e) = small();
        let mut a = Allocation::new(RequestId(1));
        a.add_link(e[0], 60.0);
        a.add_link(e[0], 60.0); // 120 > 100 total
        assert!(!sdn.can_allocate(&a));
        assert!(sdn.allocate(&a).is_err());
    }

    #[test]
    fn check_ledger_finds_one_tampered_allocation() {
        let (mut sdn, v, e) = small();
        let mut a = Allocation::new(RequestId(1));
        a.add_link(e[0], 60.0);
        a.add_server(v[1], 400.0);
        let mut b = Allocation::new(RequestId(2));
        b.add_link(e[0], 10.0);
        b.add_link(e[1], 50.0);
        sdn.allocate(&a).unwrap();
        sdn.allocate(&b).unwrap();
        sdn.check_ledger([&a, &b]).unwrap();

        // The record claims 5 Mbps more on e1 than the ledger holds.
        let mut tampered = b.clone();
        tampered.add_link(e[1], 5.0);
        let err = sdn.check_ledger([&a, &tampered]).unwrap_err();
        assert_eq!(
            err,
            SdnError::LedgerMismatch {
                what: format!("link {}", e[1]),
                expected: 145.0,
                actual: 150.0,
            }
        );
        // A live session missing from the records shows too.
        let err = sdn.check_ledger([&b]).unwrap_err();
        assert!(err.to_string().contains(&format!("link {}", e[0])), "{err}");
        let mut a_link_only = Allocation::new(RequestId(1));
        a_link_only.add_link(e[0], 60.0);
        let err = sdn.check_ledger([&a_link_only, &b]).unwrap_err();
        assert!(
            err.to_string().contains(&format!("server {}", v[1])),
            "{err}"
        );
    }

    #[test]
    fn over_release_rejected() {
        let (mut sdn, _, e) = small();
        let mut a = Allocation::new(RequestId(1));
        a.add_link(e[0], 50.0);
        assert!(matches!(sdn.release(&a), Err(SdnError::OverRelease { .. })));
    }

    #[test]
    fn allocation_on_non_server_rejected() {
        let (mut sdn, v, _) = small();
        let mut a = Allocation::new(RequestId(1));
        a.add_server(v[0], 1.0);
        assert!(matches!(sdn.allocate(&a), Err(SdnError::NotAServer(_))));
    }

    #[test]
    fn reset_restores_full_capacity() {
        let (mut sdn, v, e) = small();
        let mut a = Allocation::new(RequestId(1));
        a.add_link(e[1], 200.0);
        a.add_server(v[1], 1000.0);
        sdn.allocate(&a).unwrap();
        assert_eq!(sdn.residual_bandwidth(e[1]), 0.0);
        sdn.reset();
        assert_eq!(sdn.residual_bandwidth(e[1]), 200.0);
        assert_eq!(sdn.residual_computing(v[1]), Some(1000.0));
    }

    #[test]
    fn builder_rejects_bad_parameters() {
        let mut b = SdnBuilder::new();
        let v0 = b.add_switch();
        let v1 = b.add_switch();
        assert!(matches!(
            b.add_link(v0, v1, 0.0, 1.0),
            Err(SdnError::InvalidParameter { .. })
        ));
        assert!(matches!(
            b.attach_server(v0, -5.0, 1.0),
            Err(SdnError::InvalidParameter { .. })
        ));
        assert!(matches!(
            b.attach_server(NodeId::new(9), 100.0, 1.0),
            Err(SdnError::UnknownNode(_))
        ));
    }

    #[test]
    fn attach_server_upgrades_switch() {
        let mut b = SdnBuilder::new();
        let v0 = b.add_switch();
        b.attach_server(v0, 500.0, 1.5).unwrap();
        let sdn = b.build().unwrap();
        assert!(sdn.is_server(v0));
        assert_eq!(sdn.servers(), &[v0]);
    }

    #[test]
    fn version_tracks_mutations_but_not_equality() {
        let (mut sdn, v, e) = small();
        assert_eq!(sdn.version(), 0);
        let pristine = sdn.clone();
        let mut a = Allocation::new(RequestId(1));
        a.add_link(e[0], 60.0);
        a.add_server(v[1], 400.0);
        sdn.allocate(&a).unwrap();
        assert_eq!(sdn.version(), 1);
        sdn.release(&a).unwrap();
        assert_eq!(sdn.version(), 2);
        sdn.reset();
        assert_eq!(sdn.version(), 3);
        // Failed mutations leave the counter alone.
        let mut too_big = Allocation::new(RequestId(2));
        too_big.add_server(v[1], 5000.0);
        assert!(sdn.allocate(&too_big).is_err());
        assert_eq!(sdn.version(), 3);
        // Equality ignores history.
        assert_eq!(sdn, pristine);
    }

    #[test]
    fn clones_share_the_topology_and_copy_the_ledger() {
        let (sdn, v, e) = small();
        let mut copy = sdn.clone();
        assert!(std::ptr::eq(sdn.graph(), copy.graph()));
        assert!(Arc::ptr_eq(sdn.topology(), copy.topology()));
        let mut a = Allocation::new(RequestId(1));
        a.add_link(e[1], 50.0);
        a.add_server(v[1], 300.0);
        copy.allocate(&a).unwrap();
        assert_eq!(copy.version(), 1);
        assert_eq!(sdn.version(), 0);
        assert_eq!(sdn.residual_bandwidth(e[1]), 200.0);
        assert_eq!(sdn.residual_computing(v[1]), Some(1000.0));
        assert_ne!(sdn, copy);
        // Equality still ignores the version once the ledgers agree.
        copy.release(&a).unwrap();
        assert_eq!(copy.version(), 2);
        assert_eq!(sdn, copy);
    }

    #[test]
    fn separately_built_networks_compare_by_value() {
        let (a, _, _) = small();
        let (b, v, _) = small();
        assert!(!Arc::ptr_eq(a.topology(), b.topology()));
        assert_eq!(a, b);
        // A different topology with the same ledger is a different network.
        let mut bld = SdnBuilder::new();
        let u0 = bld.add_switch();
        let u1 = bld.add_server(1000.0, 2.5);
        let u2 = bld.add_switch();
        bld.add_link(u0, u1, 100.0, 1.0).unwrap();
        bld.add_link(u1, u2, 200.0, 3.0).unwrap();
        let other = bld.build().unwrap();
        assert_eq!(other.residual_computing(v[1]), a.residual_computing(v[1]));
        assert_ne!(a, other);
    }

    #[test]
    fn link_failure_masks_usable_but_preserves_ledger() {
        let (mut sdn, v, e) = small();
        let mut a = Allocation::new(RequestId(1));
        a.add_link(e[0], 60.0);
        a.add_server(v[1], 400.0);
        sdn.allocate(&a).unwrap();
        let v_before = sdn.version();
        assert!(sdn.fail_link(e[0]).unwrap());
        assert_eq!(sdn.version(), v_before + 1);
        assert!(!sdn.is_link_alive(e[0]));
        assert!(!sdn.all_alive());
        // The feasibility view is masked; the raw ledger still remembers
        // the hold.
        assert!(!sdn.link_fits(e[0], 1.0));
        assert_eq!(sdn.residual_bandwidth(e[0]), 40.0);
        // Failing again is an idempotent no-op.
        assert!(!sdn.fail_link(e[0]).unwrap());
        assert_eq!(sdn.version(), v_before + 1);
        // Releasing the session while the link is down still works.
        sdn.release(&a).unwrap();
        assert_eq!(sdn.residual_bandwidth(e[0]), 100.0);
        // Recovery restores the feasibility view to the (restored) residual.
        assert!(sdn.recover_link(e[0]).unwrap());
        assert!(sdn.link_fits(e[0], 100.0));
        assert!(!sdn.link_fits(e[0], 101.0));
        assert!(sdn.all_alive());
    }

    #[test]
    fn usable_minima_match_per_element_folds_bit_for_bit() {
        fn check(sdn: &Sdn) {
            let links = sdn
                .graph()
                .edges()
                .map(|e| {
                    if sdn.is_link_alive(e.id) {
                        sdn.residual_bandwidth(e.id)
                    } else {
                        0.0
                    }
                })
                .fold(f64::INFINITY, f64::min);
            let servers = sdn
                .servers()
                .iter()
                .map(|&v| {
                    if sdn.is_server_alive(v) {
                        sdn.residual_computing(v).unwrap()
                    } else {
                        0.0
                    }
                })
                .fold(f64::INFINITY, f64::min);
            assert_eq!(sdn.min_live_bandwidth().to_bits(), links.to_bits());
            assert_eq!(sdn.min_live_computing().to_bits(), servers.to_bits());
        }
        let (mut sdn, v, e) = small();
        check(&sdn);
        assert_eq!(sdn.min_live_bandwidth(), 100.0);
        let mut a = Allocation::new(RequestId(1));
        a.add_link(e[1], 150.0);
        a.add_server(v[1], 400.0);
        sdn.allocate(&a).unwrap();
        check(&sdn);
        assert_eq!(sdn.min_live_bandwidth(), 50.0);
        assert_eq!(sdn.min_live_computing(), 600.0);
        sdn.fail_link(e[0]).unwrap();
        sdn.fail_server(v[1]).unwrap();
        check(&sdn);
        assert_eq!(sdn.min_live_bandwidth(), 0.0);
        assert_eq!(sdn.min_live_computing(), 0.0);
        let bare = SdnBuilder::new().build().unwrap();
        check(&bare);
        assert_eq!(bare.min_live_bandwidth(), f64::INFINITY);
        assert_eq!(bare.min_live_computing(), f64::INFINITY);
    }

    #[test]
    fn server_failure_masks_server_fits() {
        let (mut sdn, v, _) = small();
        assert!(sdn.fail_server(v[1]).unwrap());
        assert!(!sdn.is_server_alive(v[1]));
        assert!(sdn.is_server(v[1]), "failed server is still a server");
        assert!(!sdn.server_fits(v[1], 0.0));
        assert_eq!(sdn.residual_computing(v[1]), Some(1000.0));
        assert_eq!(sdn.failed_servers().collect::<Vec<_>>(), vec![v[1]]);
        assert!(sdn.recover_server(v[1]).unwrap());
        assert!(sdn.server_fits(v[1], 1000.0));
        assert!(!sdn.server_fits(v[1], 1001.0));
        // Switches are never "alive servers" and cannot fail as servers.
        assert!(!sdn.is_server_alive(v[0]));
        assert!(matches!(
            sdn.fail_server(v[0]),
            Err(SdnError::NotAServer(_))
        ));
        assert!(!sdn.server_fits(v[0], 0.0));
    }

    #[test]
    fn allocation_on_dead_element_rejected() {
        let (mut sdn, v, e) = small();
        sdn.fail_link(e[0]).unwrap();
        let mut a = Allocation::new(RequestId(1));
        a.add_link(e[0], 10.0);
        assert!(matches!(
            sdn.allocate(&a),
            Err(SdnError::DeadElement { .. })
        ));
        sdn.recover_link(e[0]).unwrap();
        sdn.fail_server(v[1]).unwrap();
        let mut b = Allocation::new(RequestId(2));
        b.add_server(v[1], 10.0);
        assert!(matches!(
            sdn.allocate(&b),
            Err(SdnError::DeadElement { .. })
        ));
    }

    #[test]
    fn recover_all_revives_everything() {
        let (mut sdn, v, e) = small();
        sdn.fail_link(e[1]).unwrap();
        sdn.fail_server(v[1]).unwrap();
        assert_eq!(sdn.failed_links().collect::<Vec<_>>(), vec![e[1]]);
        let ver = sdn.version();
        sdn.recover_all();
        assert!(sdn.all_alive());
        assert_eq!(sdn.version(), ver + 1);
        // Idempotent: no version churn when nothing is failed.
        sdn.recover_all();
        assert_eq!(sdn.version(), ver + 1);
    }

    #[test]
    fn unknown_link_failure_is_an_error() {
        let (mut sdn, _, _) = small();
        assert!(sdn.fail_link(EdgeId::new(99)).is_err());
        assert!(sdn.recover_link(EdgeId::new(99)).is_err());
    }

    #[test]
    fn exact_fill_is_allowed() {
        let (mut sdn, _, e) = small();
        let mut a = Allocation::new(RequestId(1));
        a.add_link(e[0], 100.0);
        sdn.allocate(&a).unwrap();
        assert_eq!(sdn.residual_bandwidth(e[0]), 0.0);
        // Any further allocation fails.
        let mut b2 = Allocation::new(RequestId(2));
        b2.add_link(e[0], 0.1);
        assert!(!sdn.can_allocate(&b2));
    }
}
