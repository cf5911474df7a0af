//! An offline benchmark for measuring empirical competitive ratios.
//!
//! Theorem 2 bounds `Online_CP` against the optimal *offline* algorithm,
//! which knows the whole request sequence in advance. The offline optimum
//! is NP-hard, so this module provides the standard greedy proxy: with
//! full knowledge, sort the requests by how little of the network they
//! consume and pack them with the capacitated offline algorithm. The
//! resulting admission count upper-bounds what any online algorithm
//! achieved in practice on the same sequence (not a certified bound on
//! OPT — a strong practical yardstick), and
//! [`empirical_competitive_ratio`] reports `online / offline`.

use crate::{RequestOutcome, SimulationResult};
use nfv_multicast::{appro_multi, appro_multi_cap, exact_pseudo_multicast};
use sdn::{MulticastRequest, Sdn};

/// Greedy offline packing: score every request by its fresh-network
/// implementation cost (cheap requests consume the least), then admit in
/// ascending order with `Appro_Multi_Cap`, committing allocations.
///
/// Returns the same [`SimulationResult`] shape as
/// [`run_online`](crate::run_online); `outcomes` are reported in the
/// *packing* order.
pub fn offline_greedy_benchmark(
    sdn: &mut Sdn,
    requests: &[MulticastRequest],
    k: usize,
) -> SimulationResult {
    pack(
        sdn,
        "Offline_Greedy",
        requests,
        |sdn, r| appro_multi(sdn, r, k).map(|t| t.total_cost()),
        |sdn, req| {
            let tree = appro_multi_cap(sdn, req, k).into_tree()?;
            sdn.allocate(&tree.allocation(req))
                .expect("admitted tree fits"); // lint:allow(P1): the tree was planned on this exact residual state
            Some(tree.total_cost())
        },
    )
}

/// Exact offline packing for *small* instances: score every request by
/// its fresh-network [`exact_pseudo_multicast`] optimum, then admit in
/// ascending order, committing each exact tree only if the residual
/// ledger still fits it.
///
/// Per-request trees are certified optima of the pseudo-multicast family,
/// but the packing order is still greedy, so the admission count is a
/// strong yardstick rather than a certified OPT. Mirrors
/// [`offline_greedy_benchmark`] with the approximation swapped for the
/// exact oracle.
///
/// # Panics
///
/// Panics if `k == 0` or any request has
/// `destinations.len() >= steiner::MAX_TERMINALS` — the exact oracle is
/// exponential in the terminal count and refuses large instances.
pub fn offline_exact_benchmark(
    sdn: &mut Sdn,
    requests: &[MulticastRequest],
    k: usize,
) -> SimulationResult {
    pack(
        sdn,
        "Offline_Exact",
        requests,
        |sdn, r| exact_pseudo_multicast(sdn, r, k).map(|t| t.total_cost()),
        // The exact oracle is capacity-oblivious: re-plan on the loaded
        // network and gate on the ledger (allocate validates atomically
        // before committing, so a failed admission leaves no residue).
        |sdn, req| {
            exact_pseudo_multicast(sdn, req, k)
                .filter(|t| sdn.allocate(&t.allocation(req)).is_ok())
                .map(|t| t.total_cost())
        },
    )
}

/// The packing loop of both benchmarks: `score` every request on the
/// fresh network, then offer them in ascending score order to `commit`,
/// which plans on the loaded network, commits, and returns the cost (or
/// `None` to reject). A request without a fresh-network score is
/// rejected unplanned. Packing is not an online decision, so it counts
/// no admissions in telemetry.
fn pack(
    sdn: &mut Sdn,
    algorithm: &'static str,
    requests: &[MulticastRequest],
    score: impl Fn(&Sdn, &MulticastRequest) -> Option<f64>,
    mut commit: impl FnMut(&mut Sdn, &MulticastRequest) -> Option<f64>,
) -> SimulationResult {
    let mut scored: Vec<(f64, &MulticastRequest)> = requests
        .iter()
        .map(|r| (score(sdn, r).unwrap_or(f64::INFINITY), r))
        .collect();
    // Costs are non-negative sums of validated weights (or the +inf
    // sentinel), so the total order is the numeric one.
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));

    let outcomes = scored
        .into_iter()
        .map(|(score, req)| {
            let cost = if score.is_finite() {
                commit(sdn, req)
            } else {
                None
            };
            match cost {
                Some(cost) => RequestOutcome::Admitted { id: req.id, cost },
                None => RequestOutcome::Rejected { id: req.id },
            }
        })
        .collect();
    SimulationResult::new(algorithm, sdn, outcomes)
}

/// Empirical competitive ratio `online_admitted / offline_admitted`.
///
/// Zero-denominator cases are reported honestly: `1.0` only for the true
/// `0 / 0` tie (both algorithms admitted nothing), and [`f64::INFINITY`]
/// when the online algorithm admitted sessions the offline benchmark
/// found no room for — an online *win*, not a tie. Callers serializing
/// the ratio must handle the non-finite case explicitly.
#[must_use]
pub fn empirical_competitive_ratio(online: &SimulationResult, offline: &SimulationResult) -> f64 {
    if offline.admitted == 0 {
        if online.admitted == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        online.admitted as f64 / offline.admitted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_online, OnlineCp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sdn::{NfvType, RequestId, SdnBuilder, ServiceChain};
    use topology::{annotate, place_servers_random, AnnotationParams, Waxman};
    use workload::RequestGenerator;

    #[test]
    fn packs_cheap_requests_first() {
        // Capacity for exactly one request: the cheaper of the two must
        // win regardless of sequence order.
        let mut b = SdnBuilder::new();
        let s = b.add_switch();
        let v = b.add_server(2_000.0, 1.0);
        let d1 = b.add_switch();
        let d2 = b.add_switch();
        b.add_link(s, v, 120.0, 1.0).unwrap();
        b.add_link(v, d1, 120.0, 1.0).unwrap();
        b.add_link(v, d2, 120.0, 5.0).unwrap(); // expensive arm
        let mut sdn = b.build().unwrap();
        let chain = ServiceChain::new(vec![NfvType::Firewall]);
        let expensive = MulticastRequest::new(RequestId(0), s, vec![d2], 100.0, chain.clone());
        let cheap = MulticastRequest::new(RequestId(1), s, vec![d1], 100.0, chain);
        // Expensive arrives first; greedy still admits the cheap one.
        let r = offline_greedy_benchmark(&mut sdn, &[expensive, cheap], 1);
        assert_eq!(r.admitted, 1);
        assert!(matches!(
            r.outcomes[0],
            RequestOutcome::Admitted {
                id: RequestId(1),
                ..
            }
        ));
    }

    #[test]
    fn benchmark_dominates_online_cp_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(5);
        let (g, _) = Waxman::new(40).generate(&mut rng);
        let servers = place_servers_random(&g, 0.1, &mut rng);
        let sdn = annotate(&g, &servers, &AnnotationParams::default(), &mut rng).unwrap();
        let mut gen = RequestGenerator::new(40);
        let requests = gen.generate_batch(120, &mut rng);

        let mut net = sdn.clone();
        let online = run_online(&mut net, &mut OnlineCp::new(), &requests);
        let mut net = sdn;
        let offline = offline_greedy_benchmark(&mut net, &requests, 1);
        let ratio = empirical_competitive_ratio(&online, &offline);
        assert!(
            offline.admitted + 5 >= online.admitted,
            "offline {} should not be far below online {}",
            offline.admitted,
            online.admitted
        );
        assert!(ratio > 0.0 && ratio.is_finite());
    }

    fn result_admitting(n: usize) -> SimulationResult {
        SimulationResult {
            algorithm: "x",
            admitted: n,
            rejected: 0,
            outcomes: vec![],
            total_cost: 0.0,
            mean_link_utilization: 0.0,
            max_link_utilization: 0.0,
            mean_server_utilization: 0.0,
            peak_concurrent: n,
        }
    }

    #[test]
    fn ratio_of_empty_offline_is_one() {
        // The true 0/0 tie — and only that tie — reads as 1.0.
        let empty = result_admitting(0);
        assert_eq!(empirical_competitive_ratio(&empty, &empty), 1.0);
    }

    #[test]
    fn online_win_over_empty_offline_is_infinite() {
        // Online admitted sessions the offline packing found no room for:
        // that is a win, not a tie, and must not read as ratio 1.0.
        let online = result_admitting(3);
        let offline = result_admitting(0);
        let ratio = empirical_competitive_ratio(&online, &offline);
        assert!(ratio.is_infinite() && ratio > 0.0);
        // The finite case is untouched.
        assert_eq!(
            empirical_competitive_ratio(&result_admitting(2), &result_admitting(4)),
            0.5
        );
    }

    #[test]
    fn exact_benchmark_packs_cheap_requests_first() {
        // Same single-slot fixture as the greedy test: the exact packer
        // must also admit the cheap request regardless of arrival order.
        let mut b = SdnBuilder::new();
        let s = b.add_switch();
        let v = b.add_server(2_000.0, 1.0);
        let d1 = b.add_switch();
        let d2 = b.add_switch();
        b.add_link(s, v, 120.0, 1.0).unwrap();
        b.add_link(v, d1, 120.0, 1.0).unwrap();
        b.add_link(v, d2, 120.0, 5.0).unwrap(); // expensive arm
        let mut sdn = b.build().unwrap();
        let chain = ServiceChain::new(vec![NfvType::Firewall]);
        let expensive = MulticastRequest::new(RequestId(0), s, vec![d2], 100.0, chain.clone());
        let cheap = MulticastRequest::new(RequestId(1), s, vec![d1], 100.0, chain);
        let r = offline_exact_benchmark(&mut sdn, &[expensive, cheap], 1);
        assert_eq!(r.algorithm, "Offline_Exact");
        assert_eq!(r.admitted, 1);
        assert!(matches!(
            r.outcomes[0],
            RequestOutcome::Admitted {
                id: RequestId(1),
                ..
            }
        ));
    }

    #[test]
    fn exact_benchmark_never_below_per_request_optimum_cost() {
        // On an uncontended network the exact packer admits everything at
        // the per-request optimum, so greedy can never beat its cost.
        let mut b = SdnBuilder::new();
        let s = b.add_switch();
        let v = b.add_server(8_000.0, 1.0);
        let d = b.add_switch();
        b.add_link(s, v, 10_000.0, 1.0).unwrap();
        b.add_link(v, d, 10_000.0, 1.0).unwrap();
        let sdn0 = b.build().unwrap();
        let chain = ServiceChain::new(vec![NfvType::Firewall]);
        let reqs: Vec<MulticastRequest> = (0..4)
            .map(|i| MulticastRequest::new(RequestId(i), s, vec![d], 100.0, chain.clone()))
            .collect();
        let mut net = sdn0.clone();
        let exact = offline_exact_benchmark(&mut net, &reqs, 1);
        let mut net = sdn0;
        let greedy = offline_greedy_benchmark(&mut net, &reqs, 1);
        assert_eq!(exact.admitted, 4);
        assert!(exact.total_cost <= greedy.total_cost + 1e-9);
    }
}
