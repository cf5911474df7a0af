//! One module per paper figure, plus the ablation suite.
//!
//! Every `run` function takes an [`ExperimentScale`](crate::ExperimentScale)
//! and returns the tables it produced (also printing progress to stderr),
//! so the binaries and the integration tests share one code path.

pub mod ablation;
pub mod arena;
pub mod chaos;
pub mod churn;
pub mod dynamic;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
mod timeline;

use crate::{mean, time_it};
use nfv_multicast::{appro_multi_cached, one_server, PathCache};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdn::Sdn;
use workload::RequestGenerator;

/// The number of chain instances `Appro_Multi` may place (the paper's
/// default, §VI-A).
pub const K: usize = 3;

/// Aggregated offline comparison numbers for one data point.
#[derive(Debug, Clone, Copy)]
pub struct OfflinePoint {
    /// Mean `Appro_Multi` implementation cost per request.
    pub appro_cost: f64,
    /// Mean `Alg_One_Server` implementation cost per request.
    pub baseline_cost: f64,
    /// Mean `Appro_Multi` running time per request (ms).
    pub appro_time_ms: f64,
    /// Mean `Alg_One_Server` running time per request (ms).
    pub baseline_time_ms: f64,
    /// Requests actually measured (infeasible ones are skipped).
    pub samples: usize,
}

impl OfflinePoint {
    /// `Appro_Multi` cost as a fraction of the baseline's.
    #[must_use]
    pub fn cost_ratio(&self) -> f64 {
        if self.baseline_cost == 0.0 {
            f64::NAN
        } else {
            self.appro_cost / self.baseline_cost
        }
    }
}

/// A [`PathCache`] over `sdn` with every server's shortest-path tree
/// resident: the ingress side of every request `Appro_Multi` plans on
/// this network. A sweep builds it once per network, outside any timing,
/// and plans each `D_max/|V|` ratio on a clone.
#[must_use]
pub fn server_trees(sdn: &Sdn) -> PathCache {
    let mut cache = PathCache::new(sdn);
    for &v in sdn.servers() {
        let _ = cache.spt(v);
    }
    cache
}

/// Runs the paired offline comparison (`Appro_Multi` vs `Alg_One_Server`)
/// on one network for `requests` generated requests with the given
/// `D_max/|V|` ratio. `trees` is [`server_trees`] of `sdn`.
///
/// `Appro_Multi` plans through a clone of `trees`, so its time per
/// request covers the destinations' trees it builds and the combination
/// scan, not the network's server trees.
#[must_use]
pub fn offline_point(
    sdn: &Sdn,
    trees: &PathCache,
    ratio: f64,
    requests: usize,
    seed: u64,
) -> OfflinePoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = RequestGenerator::new(sdn.node_count()).with_dmax_ratio(ratio);
    // Requests are priced on the same fresh network, so one tree cache
    // serves the whole sweep (decisions equal the uncached planner's
    // under unique shortest paths; only the running time drops).
    let mut cache = trees.clone();
    let mut appro_costs = Vec::new();
    let mut base_costs = Vec::new();
    let mut appro_times = Vec::new();
    let mut base_times = Vec::new();
    for _ in 0..requests {
        let req = gen.generate(&mut rng);
        let (appro, t_a) = time_it(|| appro_multi_cached(sdn, &req, K, &mut cache));
        let (base, t_b) = time_it(|| one_server(sdn, &req));
        let (Some(appro), Some(base)) = (appro, base) else {
            continue; // unreachable destination set on this topology
        };
        appro_costs.push(appro.total_cost());
        base_costs.push(base.total_cost());
        appro_times.push(t_a);
        base_times.push(t_b);
    }
    OfflinePoint {
        appro_cost: mean(&appro_costs),
        baseline_cost: mean(&base_costs),
        appro_time_ms: mean(&appro_times),
        baseline_time_ms: mean(&base_times),
        samples: appro_costs.len(),
    }
}

/// Averages several [`OfflinePoint`]s (per-seed repetitions), weighting
/// each repetition equally.
#[must_use]
pub fn average_points(points: &[OfflinePoint]) -> OfflinePoint {
    OfflinePoint {
        appro_cost: mean(&points.iter().map(|p| p.appro_cost).collect::<Vec<_>>()),
        baseline_cost: mean(&points.iter().map(|p| p.baseline_cost).collect::<Vec<_>>()),
        appro_time_ms: mean(&points.iter().map(|p| p.appro_time_ms).collect::<Vec<_>>()),
        baseline_time_ms: mean(
            &points
                .iter()
                .map(|p| p.baseline_time_ms)
                .collect::<Vec<_>>(),
        ),
        samples: points.iter().map(|p| p.samples).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waxman_sdn;

    #[test]
    fn offline_point_produces_sane_numbers() {
        let sdn = waxman_sdn(50, 1);
        let p = offline_point(&sdn, &server_trees(&sdn), 0.1, 5, 42);
        assert!(p.samples > 0);
        assert!(p.appro_cost > 0.0);
        assert!(p.baseline_cost > 0.0);
        assert!(p.appro_time_ms >= 0.0);
        assert!(p.cost_ratio().is_finite());
    }

    #[test]
    fn average_points_averages() {
        let a = OfflinePoint {
            appro_cost: 1.0,
            baseline_cost: 2.0,
            appro_time_ms: 3.0,
            baseline_time_ms: 4.0,
            samples: 5,
        };
        let b = OfflinePoint {
            appro_cost: 3.0,
            baseline_cost: 4.0,
            appro_time_ms: 5.0,
            baseline_time_ms: 6.0,
            samples: 7,
        };
        let avg = average_points(&[a, b]);
        assert_eq!(avg.appro_cost, 2.0);
        assert_eq!(avg.baseline_cost, 3.0);
        assert_eq!(avg.samples, 12);
    }
}
