//! An Even–Medina–Patt-Shamir-style competitive pricing policy.
//!
//! Even, Medina & Patt-Shamir ("Competitive Path Computation and Function
//! Placement in SDNs", 2016) route and place processing online in the
//! all-or-nothing throughput model: resources carry exponential prices in
//! their current utilization, and a request is admitted iff the *cheapest*
//! route-plus-placement costs no more than the request's benefit. The
//! price comparison — not a hard utilization threshold — is what rejects:
//! low-value sprawling requests get priced out early while high-value ones
//! keep landing, which is the mechanism behind their `O(log n)`
//! competitiveness (an Awerbuch–Azar–Plotkin descendant).
//!
//! This module adapts that rule to NFV multicast. The admission graph and
//! candidate evaluation are *shared with* [`OnlineCp`](crate::OnlineCp)
//! (same exponential weights, same Steiner + LCA send-back construction)
//! so the two policies differ in exactly one place: `Online_CP` rejects
//! when a weight crosses the σ threshold, `EMP_Online` rejects when the
//! total admission weight exceeds [`request_revenue`] — benefits and
//! prices live on the same normalized scale. Price-caused rejections are
//! recorded on [`telemetry::Counter::OnlinePriceRejections`].

use crate::online_cp::{build_admission_graph, AdmissionCtx, Candidate, EvalOutcome, ScanMemory};
use crate::{phase1_survivors, CostMode, OnlineAlgorithm, ThresholdRule};
use nfv_multicast::PseudoMulticastTree;
use sdn::{ExponentialCostModel, MulticastRequest, Sdn};

/// The benefit (revenue) of admitting `request` on `sdn`, on the same
/// normalized scale as the exponential admission weights.
///
/// `(1 + |D_k|) · (b_k / 200) · (σ / 2)`: proportional to the group size
/// (one processing stage plus a stream per destination) and to bandwidth
/// relative to the workload generator's 200 Mbps ceiling, scaled by half
/// the admission threshold `σ = |V| − 1`. On a fresh network every
/// exponential weight is ≈ 0, so all requests clear their price; under
/// load, per-resource prices grow toward σ and small groups get priced
/// out well before `Online_CP`'s hard threshold would have fired.
#[must_use]
pub fn request_revenue(sdn: &Sdn, request: &MulticastRequest) -> f64 {
    let sigma = ExponentialCostModel::threshold(sdn);
    (1.0 + request.destinations.len() as f64) * (request.bandwidth / 200.0) * (sigma / 2.0)
}

/// The Even–Medina–Patt-Shamir-style price-vs-benefit admission policy.
#[derive(Debug, Clone, Copy)]
pub struct EmpPricing {
    benefit_scale: f64,
}

impl Default for EmpPricing {
    fn default() -> Self {
        EmpPricing { benefit_scale: 1.0 }
    }
}

impl EmpPricing {
    /// Creates the policy with the unit benefit scale.
    #[must_use]
    pub fn new() -> Self {
        EmpPricing::default()
    }

    /// Scales every request's benefit by `scale` (> 1 admits more
    /// aggressively, < 1 prices requests out earlier).
    #[must_use]
    pub fn with_benefit_scale(mut self, scale: f64) -> Self {
        self.benefit_scale = scale;
        self
    }

    /// The configured benefit scale.
    #[must_use]
    pub fn benefit_scale(&self) -> f64 {
        self.benefit_scale
    }
}

impl OnlineAlgorithm for EmpPricing {
    fn name(&self) -> &'static str {
        "EMP_Online"
    }

    // lint:entry(api)
    fn admit(&mut self, sdn: &Sdn, request: &MulticastRequest) -> Option<PseudoMulticastTree> {
        let b = request.bandwidth;
        let demand = request.computing_demand();
        let benefit = self.benefit_scale * request_revenue(sdn, request);

        let graph = build_admission_graph(sdn, b, CostMode::Exponential);
        if graph.weighted.edge_count() == 0 {
            telemetry::hit(telemetry::Counter::OnlineRejectedInfeasible);
            return None;
        }
        // σ = ∞ disables the threshold branch inside the shared
        // evaluation: EMP prices, it never thresholds.
        let ctx = AdmissionCtx {
            sdn,
            request,
            b,
            demand,
            sigma: f64::INFINITY,
            mode: CostMode::Exponential,
            rule: ThresholdRule::PerEdge,
            graph: &graph,
        };

        // Fresh working memory per admission: EMP keeps none between them.
        let mut survivors = Vec::new();
        phase1_survivors(
            sdn,
            request,
            CostMode::Exponential,
            f64::INFINITY,
            &mut survivors,
        );
        let mut scan = ScanMemory::default();
        ctx.start_scan(&mut scan, survivors.iter().map(|&(v, _)| v));
        let mut candidates: Vec<Candidate> = Vec::new();
        for &(v, wv) in &survivors {
            match ctx.evaluate(v, wv, &mut scan) {
                EvalOutcome::Admissible(c) => candidates.push(c),
                // Unreachable with σ = ∞, kept for exhaustiveness.
                EvalOutcome::ThresholdBlocked => {}
                EvalOutcome::Skip => {}
            }
        }
        // Weights are finite sums of finite prices, never NaN; stable
        // sort keeps server order on exact ties.
        candidates.sort_by(|a, b| {
            a.weight
                .partial_cmp(&b.weight)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let had_candidates = !candidates.is_empty();
        let mut priced_out = false;
        for c in &candidates {
            // The EMP admission rule: pay the price only if the benefit
            // covers it. Candidates are sorted, so the first over-budget
            // weight prices out every remaining one too.
            if c.weight > benefit {
                priced_out = true;
                break;
            }
            let Some(tree) = ctx.materialize(c, &mut scan) else {
                continue;
            };
            if sdn.can_allocate(&tree.allocation(request)) {
                return Some(tree);
            }
        }
        telemetry::hit(if priced_out {
            telemetry::Counter::OnlinePriceRejections
        } else if had_candidates {
            telemetry::Counter::OnlineRejectedCapacity
        } else {
            telemetry::Counter::OnlineRejectedInfeasible
        });
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_online;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sdn::{Allocation, NfvType, RequestId, SdnBuilder, ServiceChain};
    use topology::{annotate, place_servers_random, AnnotationParams, Waxman};
    use workload::RequestGenerator;

    fn chain() -> ServiceChain {
        ServiceChain::new(vec![NfvType::Firewall])
    }

    fn small_net() -> (Sdn, Vec<netgraph::NodeId>, Vec<netgraph::EdgeId>) {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let v = bld.add_server(1_000.0, 1.0);
        let d = bld.add_switch();
        let e0 = bld.add_link(s, v, 1_000.0, 1.0).unwrap();
        let e1 = bld.add_link(v, d, 1_000.0, 1.0).unwrap();
        (bld.build().unwrap(), vec![s, v, d], vec![e0, e1])
    }

    #[test]
    fn fresh_network_admits_cheaply() {
        // Fresh network → prices ≈ 0 → every request clears its benefit.
        let (sdn, n, _) = small_net();
        let req = MulticastRequest::new(RequestId(0), n[0], vec![n[2]], 100.0, chain());
        let tree = EmpPricing::new().admit(&sdn, &req).expect("cheap admit");
        tree.validate(&sdn, &req).unwrap();
        assert_eq!(tree.servers_used(), vec![n[1]]);
    }

    #[test]
    fn prices_out_under_load() {
        // Load the only route close to saturation: the exponential price
        // crosses the benefit and EMP rejects even though capacity for
        // one more request still exists (SP/CP-without-threshold would
        // admit). A zero benefit scale makes the rejection unconditional.
        let (mut sdn, n, e) = small_net();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_link(e[0], 880.0);
        pre.add_link(e[1], 880.0);
        pre.add_server(n[1], 880.0);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), n[0], vec![n[2]], 100.0, chain());
        telemetry::enable();
        let before = telemetry::counter_value(telemetry::Counter::OnlinePriceRejections);
        let mut strict = EmpPricing::new().with_benefit_scale(0.0);
        assert!(strict.admit(&sdn, &req).is_none());
        let after = telemetry::counter_value(telemetry::Counter::OnlinePriceRejections);
        assert_eq!(after, before + 1);
        // A generous benefit scale admits the same request on the same
        // network: the price rule, not feasibility, was the rejector.
        let mut generous = EmpPricing::new().with_benefit_scale(1e9);
        assert!(generous.admit(&sdn, &req).is_some());
        assert_eq!(generous.benefit_scale(), 1e9);
    }

    #[test]
    fn revenue_scales_with_group_and_bandwidth() {
        let (sdn, n, _) = small_net();
        let small = MulticastRequest::new(RequestId(0), n[0], vec![n[2]], 100.0, chain());
        let wide = MulticastRequest::new(RequestId(1), n[0], vec![n[2], n[1]], 100.0, chain());
        let fat = MulticastRequest::new(RequestId(2), n[0], vec![n[2]], 200.0, chain());
        assert!(request_revenue(&sdn, &wide) > request_revenue(&sdn, &small));
        assert!(request_revenue(&sdn, &fat) > request_revenue(&sdn, &small));
    }

    #[test]
    fn pinned_seed_admissions_regression() {
        // Pins the full admission profile on a fixed random instance so
        // any behavioral drift in the pricing rule is caught. Counts
        // re-derived only on an intentional policy change.
        let mut rng = StdRng::seed_from_u64(7);
        let (g, _) = Waxman::new(40).generate(&mut rng);
        let servers = place_servers_random(&g, 0.1, &mut rng);
        let mut sdn = annotate(&g, &servers, &AnnotationParams::default(), &mut rng).unwrap();
        let mut gen = RequestGenerator::new(40);
        let requests = gen.generate_batch(120, &mut rng);
        let r = run_online(&mut sdn, &mut EmpPricing::new(), &requests);
        assert_eq!(r.admitted + r.rejected, 120);
        assert_eq!((r.admitted, r.rejected), (34, 86));
    }
}
