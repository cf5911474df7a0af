//! The online replay behind Figs. 8–9 and the session-dynamics
//! extension: one loop that offers requests to an [`OnlineAlgorithm`],
//! commits what it admits and checks the ledger at the end.

use crate::ActiveSessions;
use nfv_multicast::PseudoMulticastTree;
use sdn::{MulticastRequest, RequestId, Sdn};

/// An online admission algorithm: decides, per incoming request, whether
/// to admit it and with which pseudo-multicast tree.
///
/// Implementations must only propose trees whose allocation fits the
/// current residual capacities ([`Sdn::can_allocate`]); the simulator
/// treats a failed commit as a bug, not a rejection.
pub trait OnlineAlgorithm {
    /// Human-readable algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Evaluates one request against the current network state. Returning
    /// `Some(tree)` admits the request; the simulator commits the tree's
    /// allocation.
    fn admit(&mut self, sdn: &Sdn, request: &MulticastRequest) -> Option<PseudoMulticastTree>;
}

/// Per-request outcome record.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// Admitted with this implementation cost.
    Admitted {
        /// The request.
        id: RequestId,
        /// Implementation cost of the chosen pseudo-multicast tree.
        cost: f64,
    },
    /// Rejected.
    Rejected {
        /// The request.
        id: RequestId,
    },
}

/// Aggregate result of one online replay (or offline packing) run.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Algorithm that produced this run.
    pub algorithm: &'static str,
    /// Number of admitted requests (the paper's network throughput).
    pub admitted: usize,
    /// Number of rejected requests.
    pub rejected: usize,
    /// Per-request outcomes, in decision order.
    pub outcomes: Vec<RequestOutcome>,
    /// Total implementation cost over admitted requests, summed in
    /// decision order.
    pub total_cost: f64,
    /// Mean link-bandwidth utilization at the end of the run.
    pub mean_link_utilization: f64,
    /// Maximum link-bandwidth utilization at the end of the run.
    pub max_link_utilization: f64,
    /// Mean server-computing utilization at the end of the run.
    pub mean_server_utilization: f64,
    /// Peak number of sessions holding resources at once; `admitted`
    /// when no session departs.
    pub peak_concurrent: usize,
}

impl SimulationResult {
    /// Tallies `outcomes` and reads the utilization `sdn` ends with,
    /// taking every admitted session as held to the end.
    pub(crate) fn new(algorithm: &'static str, sdn: &Sdn, outcomes: Vec<RequestOutcome>) -> Self {
        let (mut admitted, mut total_cost) = (0, 0.0);
        for o in &outcomes {
            if let RequestOutcome::Admitted { cost, .. } = o {
                admitted += 1;
                total_cost += cost;
            }
        }
        let (link_sum, max_link) = sdn
            .graph()
            .edges()
            .map(|e| sdn.bandwidth_utilization(e.id))
            .fold((0.0, 0.0_f64), |(sum, max), u| (sum + u, max.max(u)));
        // Every listed server has a utilization, so the 0.0 is never read.
        let server_sum = sdn.servers().iter().fold(0.0, |sum, &v| {
            sum + sdn.computing_utilization(v).unwrap_or(0.0)
        });
        let mean = |sum: f64, n: usize| if n == 0 { 0.0 } else { sum / n as f64 };
        SimulationResult {
            algorithm,
            admitted,
            rejected: outcomes.len() - admitted,
            outcomes,
            total_cost,
            mean_link_utilization: mean(link_sum, sdn.link_count()),
            max_link_utilization: max_link,
            mean_server_utilization: mean(server_sum, sdn.servers().len()),
            peak_concurrent: admitted,
        }
    }

    /// Admission ratio in `[0, 1]`.
    #[must_use]
    pub fn admission_ratio(&self) -> f64 {
        let total = self.admitted + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.admitted as f64 / total as f64
        }
    }

    /// Ids of the admitted requests, in decision order.
    pub fn admitted_ids(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.outcomes.iter().filter_map(|o| match o {
            RequestOutcome::Admitted { id, .. } => Some(*id),
            RequestOutcome::Rejected { .. } => None,
        })
    }
}

/// Feeds `requests` one by one, in slice order, to `algorithm`,
/// committing the allocation of every admitted request to `sdn` (which
/// is mutated in place; call [`Sdn::reset`] to reuse it). Admitted
/// sessions never depart: this is the one online replay with every
/// departure at `f64::INFINITY`.
///
/// # Panics
///
/// If the algorithm proposes a tree that does not fit residual
/// capacities — that violates the [`OnlineAlgorithm`] contract — or if
/// the ledger at the end disagrees with the admitted sessions (`sdn`
/// must start without load).
pub fn run_online<A: OnlineAlgorithm + ?Sized>(
    sdn: &mut Sdn,
    algorithm: &mut A,
    requests: &[MulticastRequest],
) -> SimulationResult {
    replay(
        sdn,
        algorithm,
        requests.iter().map(|r| (r, 0.0, f64::INFINITY)),
    )
}

/// The one online loop behind [`run_online`] and
/// [`run_dynamic`](crate::run_dynamic). Offers each
/// `(request, arrival, departure)` in the given order: first releases
/// the sessions due by the arrival (`departure <= arrival`, see
/// [`ActiveSessions::release_due`]), then asks `algorithm`, commits an
/// admitted tree to the ledger and keeps it live until its departure.
/// After the last offer it checks the ledger against the live sessions
/// ([`Sdn::check_ledger`]), in every build.
///
/// # Panics
///
/// If the algorithm proposes a tree that does not fit the current
/// residual capacities (contract violation), or if the ledger at the end
/// disagrees with the live sessions: an accounting bug, or `sdn` held
/// load the replay does not own.
pub(crate) fn replay<'a, A: OnlineAlgorithm + ?Sized>(
    sdn: &mut Sdn,
    algorithm: &mut A,
    offers: impl ExactSizeIterator<Item = (&'a MulticastRequest, f64, f64)>,
) -> SimulationResult {
    let mut outcomes = Vec::with_capacity(offers.len());
    let mut active = ActiveSessions::new();
    let mut peak = 0;
    for (req, arrival, departure) in offers {
        active.release_due(sdn, arrival);
        let Some(tree) = algorithm.admit(sdn, req) else {
            telemetry::hit(telemetry::Counter::OnlineRejected);
            outcomes.push(RequestOutcome::Rejected { id: req.id });
            continue;
        };
        debug_assert!(
            tree.validate(sdn, req).is_ok(),
            "algorithm {} produced an invalid tree: {:?}",
            algorithm.name(),
            tree.validate(sdn, req)
        );
        let alloc = tree.allocation(req);
        sdn.allocate(&alloc).unwrap_or_else(|e| {
            // lint:allow(P1): an infeasible proposal is an algorithm bug; abort loudly
            panic!(
                "algorithm {} proposed an infeasible tree for {}: {e}",
                algorithm.name(),
                req.id
            )
        });
        active.insert(req.id, departure, alloc);
        peak = peak.max(active.len());
        telemetry::hit(telemetry::Counter::OnlineAdmitted);
        outcomes.push(RequestOutcome::Admitted {
            id: req.id,
            cost: tree.total_cost(),
        });
    }
    if let Err(e) = sdn.check_ledger(active.iter().map(|(_, s)| &s.allocation)) {
        // lint:allow(P1): a ledger out of step with the live sessions is an accounting bug; abort loudly
        panic!("replay of {}: {e}", algorithm.name());
    }
    SimulationResult {
        peak_concurrent: peak,
        ..SimulationResult::new(algorithm.name(), sdn, outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OnlineCp, ShortestPathBaseline};
    use netgraph::NodeId;
    use sdn::{NfvType, SdnBuilder, ServiceChain};

    fn small_net() -> (Sdn, Vec<NodeId>) {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let v = bld.add_server(2_000.0, 1.0);
        let d = bld.add_switch();
        bld.add_link(s, v, 500.0, 1.0).unwrap();
        bld.add_link(v, d, 500.0, 1.0).unwrap();
        (bld.build().unwrap(), vec![s, v, d])
    }

    fn reqs(nodes: &[NodeId], count: usize) -> Vec<MulticastRequest> {
        (0..count)
            .map(|i| {
                MulticastRequest::new(
                    RequestId(i as u64),
                    nodes[0],
                    vec![nodes[2]],
                    100.0,
                    ServiceChain::new(vec![NfvType::Firewall]),
                )
            })
            .collect()
    }

    #[test]
    fn admits_until_bandwidth_exhausted() {
        let (mut sdn, nodes) = small_net();
        // 500 Mbps per link, 100 Mbps per request => 5 admissions, but the
        // exponential thresholds may stop slightly earlier; SP fills to
        // the brim.
        let result = run_online(&mut sdn, &mut ShortestPathBaseline::new(), &reqs(&nodes, 8));
        assert_eq!(result.admitted, 5);
        assert_eq!(result.rejected, 3);
        assert!((result.admission_ratio() - 5.0 / 8.0).abs() < 1e-9);
        assert!(result.max_link_utilization > 0.99);
    }

    #[test]
    fn online_cp_also_fills_small_net() {
        let (mut sdn, nodes) = small_net();
        let result = run_online(&mut sdn, &mut OnlineCp::new(), &reqs(&nodes, 8));
        // On a 3-node network the thresholds (sigma = |V| - 1 = 2) bite
        // early: Online_CP deliberately rejects once link weights climb,
        // preserving capacity. At least the first two requests fit.
        assert!(result.admitted >= 2, "admitted {}", result.admitted);
        assert!(result.admitted <= 5);
        assert_eq!(result.admitted + result.rejected, 8);
    }

    #[test]
    fn outcomes_are_ordered_and_consistent() {
        let (mut sdn, nodes) = small_net();
        let result = run_online(&mut sdn, &mut ShortestPathBaseline::new(), &reqs(&nodes, 8));
        assert_eq!(result.outcomes.len(), 8);
        let admitted_count = result
            .outcomes
            .iter()
            .filter(|o| matches!(o, RequestOutcome::Admitted { .. }))
            .count();
        assert_eq!(admitted_count, result.admitted);
        assert!(result.total_cost > 0.0);
        assert_eq!(result.algorithm, "SP");
    }

    #[test]
    fn never_violates_capacities() {
        let (mut sdn, nodes) = small_net();
        let _ = run_online(&mut sdn, &mut OnlineCp::new(), &reqs(&nodes, 20));
        for e in sdn.graph().edges() {
            assert!(sdn.residual_bandwidth(e.id) >= -1e-6);
        }
        for &v in sdn.servers() {
            assert!(sdn.residual_computing(v).unwrap() >= -1e-6);
        }
    }

    #[test]
    fn reset_allows_reuse() {
        let (mut sdn, nodes) = small_net();
        let r1 = run_online(&mut sdn, &mut ShortestPathBaseline::new(), &reqs(&nodes, 8));
        sdn.reset();
        let r2 = run_online(&mut sdn, &mut ShortestPathBaseline::new(), &reqs(&nodes, 8));
        assert_eq!(r1.admitted, r2.admitted);
    }

    #[test]
    #[should_panic(expected = "but the live loads imply")]
    fn replay_ends_with_a_ledger_check() {
        // Load the replay does not own makes the ledger disagree with its
        // live sessions, and the end-of-run check says so in any build.
        let (mut sdn, nodes) = small_net();
        let mut foreign = sdn::Allocation::new(RequestId(99));
        foreign.add_server(nodes[1], 10.0);
        sdn.allocate(&foreign).unwrap();
        let _ = run_online(&mut sdn, &mut ShortestPathBaseline::new(), &reqs(&nodes, 2));
    }

    #[test]
    fn empty_request_sequence() {
        let (mut sdn, _) = small_net();
        let r = run_online(&mut sdn, &mut OnlineCp::new(), &[]);
        assert_eq!(r.admitted, 0);
        assert_eq!(r.admission_ratio(), 0.0);
    }
}

/// Gini coefficient of the link-bandwidth utilizations in `[0, 1]`:
/// `0` = perfectly even load, `1` = all load on one link. The
/// load-balance metric behind the paper's argument for exponential
/// pricing — `Online_CP` should end a run with a lower Gini than `SP`.
#[must_use]
pub fn link_utilization_gini(sdn: &Sdn) -> f64 {
    let mut utils: Vec<f64> = sdn
        .graph()
        .edges()
        .map(|e| sdn.bandwidth_utilization(e.id))
        .collect();
    if utils.is_empty() {
        return 0.0;
    }
    utils.sort_by(|a, b| a.partial_cmp(b).expect("utilizations are finite")); // lint:allow(P1): utilizations are finite ratios of validated capacities
    let n = utils.len() as f64;
    let sum: f64 = utils.iter().sum();
    if sum <= 0.0 {
        return 0.0;
    }
    let weighted: f64 = utils
        .iter()
        .enumerate()
        .map(|(i, u)| (i as f64 + 1.0) * u)
        .sum();
    ((2.0 * weighted) / (n * sum) - (n + 1.0) / n).max(0.0)
}

#[cfg(test)]
mod gini_tests {
    use super::*;
    use netgraph::EdgeId;
    use sdn::{Allocation, RequestId, SdnBuilder};

    fn star(n: usize) -> Sdn {
        let mut b = SdnBuilder::new();
        let hub = b.add_switch();
        for _ in 0..n {
            let leaf = b.add_switch();
            b.add_link(hub, leaf, 1_000.0, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn idle_network_has_zero_gini() {
        assert_eq!(link_utilization_gini(&star(5)), 0.0);
    }

    #[test]
    fn even_load_has_zero_gini() {
        let mut sdn = star(4);
        let mut a = Allocation::new(RequestId(0));
        for i in 0..4 {
            a.add_link(EdgeId::new(i), 500.0);
        }
        sdn.allocate(&a).unwrap();
        assert!(link_utilization_gini(&sdn) < 1e-9);
    }

    #[test]
    fn concentrated_load_has_high_gini() {
        let mut sdn = star(5);
        let mut a = Allocation::new(RequestId(0));
        a.add_link(EdgeId::new(0), 900.0);
        sdn.allocate(&a).unwrap();
        let g = link_utilization_gini(&sdn);
        assert!(g > 0.7, "gini {g} too low for a single loaded link");
    }
}
