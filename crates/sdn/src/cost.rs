//! Resource cost models.
//!
//! Two models from the paper:
//!
//! * **Linear** (§III-C, used by the offline algorithms): using an amount
//!   `x` of a resource costs `x` times the resource's unit cost, regardless
//!   of load.
//! * **Exponential** (§V-A, Eq. 1–2, used by `Online_CP`): the cost of a
//!   resource grows exponentially with its utilization, so lightly loaded
//!   resources look cheap and nearly saturated ones look prohibitive:
//!
//!   ```text
//!   c_v(k) = C_v · (α^(1 − C_v(k)/C_v) − 1)        (Eq. 1)
//!   c_e(k) = B_e · (β^(1 − B_e(k)/B_e) − 1)        (Eq. 2)
//!   ```
//!
//!   with normalized weights `w_v = c_v(k)/C_v`, `w_e = c_e(k)/B_e` and the
//!   admission thresholds `σ_v = σ_e = |V| − 1`. The competitive-ratio
//!   analysis sets `α = β = 2|V|`.

use crate::Sdn;
use netgraph::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Numeric tolerances
//
// Every admission / release / validation comparison in the workspace goes
// through these named constants so the planner and the ledger can never
// disagree about a boundary case. Capacity feasibility is decided in one
// place, [`fits`]: the planners ask it through [`Sdn::link_fits`] and
// [`Sdn::server_fits`] when they build the residual-feasible subgraph, and
// the ledger asks it when it validates an allocation, so a plan the
// planners' filters accept always commits.
// ---------------------------------------------------------------------------

/// Absolute slack for capacity feasibility: a demand fits a residual when
/// `residual + CAPACITY_EPS >= demand` (see [`fits`], the one place the
/// inequality is written).
pub const CAPACITY_EPS: f64 = 1e-9;

/// Whether a demand of `need` fits a residual of `residual`, with the
/// shared [`CAPACITY_EPS`] slack. The feasibility decision of every
/// planner filter and of the allocation ledger.
#[inline]
#[must_use]
pub fn fits(residual: f64, need: f64) -> bool {
    residual + CAPACITY_EPS >= need
}

/// Absolute slack when releasing resources back to the ledger: released
/// amounts may overshoot the recorded load by accumulated float error up to
/// this much before the release is rejected as inconsistent.
pub const RELEASE_EPS: f64 = 1e-6;

/// Relative magnitude of the deterministic cost tiebreak `Online_CP` adds
/// to its admission-graph weights (scaled by `c_max`).
pub const COST_TIEBREAK_REL: f64 = 1e-6;

/// Floor for cost normalisers (e.g. `c_max`) so divisions by a maximum cost
/// stay finite on degenerate all-zero-cost networks.
pub const COST_FLOOR: f64 = 1e-12;

/// Relative tolerance used when validating recomputed aggregate costs
/// against incrementally tracked ones (pseudo-tree validation).
pub const VALIDATE_REL_TOL: f64 = 1e-6;

/// Relative slack in strict-improvement pruning bounds: a candidate is
/// pruned only when its lower bound exceeds
/// `best * (1 + PRUNE_GUARD_REL) + PRUNE_GUARD_ABS`, so float noise on an
/// exact tie can never prune the branch the exhaustive search would keep.
pub const PRUNE_GUARD_REL: f64 = 1e-9;

/// Absolute counterpart of [`PRUNE_GUARD_REL`] (covers near-zero bounds).
pub const PRUNE_GUARD_ABS: f64 = 1e-9;

/// The load-oblivious linear cost model (pay-as-you-go unit prices).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LinearCostModel;

impl LinearCostModel {
    /// Creates the linear model (stateless).
    #[must_use]
    pub fn new() -> Self {
        LinearCostModel
    }

    /// Cost of routing `bandwidth` Mbps over link `e`: `c_e · b_k`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a link of the network.
    #[must_use]
    pub fn edge_cost(&self, sdn: &Sdn, e: EdgeId, bandwidth: f64) -> f64 {
        sdn.unit_bandwidth_cost(e) * bandwidth
    }

    /// Cost of placing `demand` MHz of processing on server `v`:
    /// `c_v · C_v(SC_k)`. Returns `None` for plain switches.
    #[must_use]
    pub fn server_cost(&self, sdn: &Sdn, v: NodeId, demand: f64) -> Option<f64> {
        sdn.unit_computing_cost(v).map(|c| c * demand)
    }
}

/// The workload-aware exponential cost model of `Online_CP` (Eq. 1–2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExponentialCostModel {
    /// Base `α` of the computing cost exponential (`α > 1`).
    pub alpha: f64,
    /// Base `β` of the bandwidth cost exponential (`β > 1`).
    pub beta: f64,
}

impl ExponentialCostModel {
    /// Creates a model with explicit bases.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 1` and `beta > 1` (required by Eq. 1–2).
    #[must_use]
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 1.0, "alpha must exceed 1, got {alpha}");
        assert!(beta > 1.0, "beta must exceed 1, got {beta}");
        ExponentialCostModel { alpha, beta }
    }

    /// The paper's setting for the competitive analysis:
    /// `α = β = 2|V|` (Theorem 2). Networks with fewer than two nodes fall
    /// back to `α = β = 4`.
    #[must_use]
    pub fn for_network(sdn: &Sdn) -> Self {
        let base = (2 * sdn.node_count()).max(4) as f64;
        ExponentialCostModel::new(base, base)
    }

    /// Congestion cost `c_v(k)` of server `v` (Eq. 1). Returns `None` for
    /// plain switches.
    #[must_use]
    pub fn server_cost(&self, sdn: &Sdn, v: NodeId) -> Option<f64> {
        let cap = sdn.computing_capacity(v)?;
        let util = sdn.computing_utilization(v)?;
        Some(cap * (self.alpha.powf(util) - 1.0))
    }

    /// Congestion cost `c_e(k)` of link `e` (Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a link of the network.
    #[must_use]
    pub fn edge_cost(&self, sdn: &Sdn, e: EdgeId) -> f64 {
        let cap = sdn.bandwidth_capacity(e);
        cap * (self.beta.powf(sdn.bandwidth_utilization(e)) - 1.0)
    }

    /// Normalized server weight `w_v(k) = c_v(k)/C_v = α^util − 1`.
    /// Returns `None` for plain switches.
    #[must_use]
    pub fn server_weight(&self, sdn: &Sdn, v: NodeId) -> Option<f64> {
        let util = sdn.computing_utilization(v)?;
        Some(self.alpha.powf(util) - 1.0)
    }

    /// Normalized edge weight `w_e(k) = c_e(k)/B_e = β^util − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a link of the network.
    #[must_use]
    pub fn edge_weight(&self, sdn: &Sdn, e: EdgeId) -> f64 {
        self.beta.powf(sdn.bandwidth_utilization(e)) - 1.0
    }

    /// The admission threshold `σ_v = σ_e = |V| − 1` (§V-B).
    #[must_use]
    pub fn threshold(sdn: &Sdn) -> f64 {
        (sdn.node_count().saturating_sub(1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Allocation, RequestId, SdnBuilder};

    fn net() -> (Sdn, NodeId, EdgeId) {
        let mut b = SdnBuilder::new();
        let v0 = b.add_switch();
        let v1 = b.add_server(1000.0, 2.0);
        let e = b.add_link(v0, v1, 100.0, 3.0).unwrap();
        (b.build().unwrap(), v1, e)
    }

    #[test]
    fn linear_costs_scale_with_amount() {
        let (sdn, v, e) = net();
        let m = LinearCostModel::new();
        assert_eq!(m.edge_cost(&sdn, e, 10.0), 30.0);
        assert_eq!(m.server_cost(&sdn, v, 5.0), Some(10.0));
        assert_eq!(m.server_cost(&sdn, NodeId::new(0), 5.0), None);
    }

    #[test]
    fn exponential_weight_is_zero_when_idle() {
        let (sdn, v, e) = net();
        let m = ExponentialCostModel::new(4.0, 4.0);
        assert!(m.edge_weight(&sdn, e).abs() < 1e-12);
        assert!(m.server_weight(&sdn, v).unwrap().abs() < 1e-12);
        assert!(m.edge_cost(&sdn, e).abs() < 1e-9);
        assert_eq!(m.server_cost(&sdn, v), Some(0.0));
    }

    #[test]
    fn exponential_weight_grows_with_utilization() {
        let (mut sdn, v, e) = net();
        let m = ExponentialCostModel::new(4.0, 4.0);
        let mut last_e = -1.0;
        let mut last_v = -1.0;
        for _ in 0..4 {
            let we = m.edge_weight(&sdn, e);
            let wv = m.server_weight(&sdn, v).unwrap();
            assert!(we > last_e);
            assert!(wv > last_v);
            last_e = we;
            last_v = wv;
            let mut a = Allocation::new(RequestId(0));
            a.add_link(e, 25.0);
            a.add_server(v, 250.0);
            sdn.allocate(&a).unwrap();
        }
        // Fully utilized: weight = base - 1.
        assert!((m.edge_weight(&sdn, e) - 3.0).abs() < 1e-9);
        assert!((m.server_weight(&sdn, v).unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn saturated_resource_exceeds_threshold() {
        // With alpha = beta = 2|V|, a fully used resource has weight
        // 2|V| - 1 > sigma = |V| - 1, so it can never be chosen again.
        let (mut sdn, v, e) = net();
        let m = ExponentialCostModel::for_network(&sdn);
        let sigma = ExponentialCostModel::threshold(&sdn);
        let mut a = Allocation::new(RequestId(0));
        a.add_link(e, 100.0);
        a.add_server(v, 1000.0);
        sdn.allocate(&a).unwrap();
        assert!(m.edge_weight(&sdn, e) > sigma);
        assert!(m.server_weight(&sdn, v).unwrap() > sigma);
    }

    #[test]
    fn normalized_weight_matches_cost_over_capacity() {
        let (mut sdn, v, e) = net();
        let m = ExponentialCostModel::new(10.0, 7.0);
        let mut a = Allocation::new(RequestId(0));
        a.add_link(e, 33.0);
        a.add_server(v, 450.0);
        sdn.allocate(&a).unwrap();
        let we = m.edge_weight(&sdn, e);
        let ce = m.edge_cost(&sdn, e);
        assert!((we - ce / 100.0).abs() < 1e-9);
        let wv = m.server_weight(&sdn, v).unwrap();
        let cv = m.server_cost(&sdn, v).unwrap();
        assert!((wv - cv / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn for_network_uses_two_n() {
        let (sdn, ..) = net();
        let m = ExponentialCostModel::for_network(&sdn);
        assert_eq!(m.alpha, 4.0); // 2 * |V| = 4
        assert_eq!(m.beta, 4.0);
        assert_eq!(ExponentialCostModel::threshold(&sdn), 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn base_must_exceed_one() {
        let _ = ExponentialCostModel::new(1.0, 2.0);
    }
}
