//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Cost model** — `Online_CP` with exponential vs linear pricing
//!    (the paper's central online claim).
//! 2. **Threshold rule** — per-edge vs literal tree-sum `σ_e` (see
//!    [`nfv_online::ThresholdRule`]).
//! 3. **K sweep** — `Appro_Multi` with K = 1..4: cost falls, time rises.
//! 4. **Steiner routine** — KMB vs Mehlhorn vs Takahashi–Matsuyama inside
//!    the literal Algorithm 1.
//! 5. **Competitive ratio** — `Online_CP` against the offline greedy
//!    benchmark.
//! 6. **Local search** — KMB with/without key-path refinement.

use crate::{mean, time_it, waxman_sdn, ExperimentScale, Table};
use nfv_multicast::{appro_multi, appro_multi_with_steiner, SteinerRoutine};
use nfv_online::{run_online, CostMode, OnlineCp, ThresholdRule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::RequestGenerator;

/// Runs all four ablations; returns one table each.
#[must_use]
pub fn run(scale: ExperimentScale) -> Vec<Table> {
    vec![
        cost_model(scale),
        threshold_rule(scale),
        k_sweep(scale),
        steiner_routine(scale),
        competitive_ratio(scale),
        local_search(scale),
    ]
}

/// Ablation 1: exponential vs linear pricing in `Online_CP`.
#[must_use]
pub fn cost_model(scale: ExperimentScale) -> Table {
    let mut t = Table::new(
        "Ablation: Online_CP cost model (admitted of 300 requests, n = 100)",
        &["model", "admitted"],
    );
    for (label, mode) in [
        ("exponential", CostMode::Exponential),
        ("linear", CostMode::Linear),
    ] {
        let mut total = 0usize;
        for rep in 0..scale.repetitions {
            let mut sdn = waxman_sdn(100, 60 + rep as u64);
            let mut rng = StdRng::seed_from_u64(6_000 + rep as u64);
            let mut gen = RequestGenerator::new(100);
            let requests = gen.generate_batch(scale.online_requests, &mut rng);
            total += run_online(&mut sdn, &mut OnlineCp::with_mode(mode), &requests).admitted;
        }
        let avg = total as f64 / scale.repetitions.max(1) as f64;
        t.add_row(vec![label.to_string(), format!("{avg:.1}")]);
    }
    t
}

/// Ablation 2: per-edge vs tree-sum admission threshold.
#[must_use]
pub fn threshold_rule(scale: ExperimentScale) -> Table {
    let mut t = Table::new(
        "Ablation: Online_CP threshold rule (admitted of 300 requests, n = 100)",
        &["rule", "admitted"],
    );
    for (label, rule) in [
        ("per-edge", ThresholdRule::PerEdge),
        ("tree-sum (literal)", ThresholdRule::TreeSum),
    ] {
        let mut total = 0usize;
        for rep in 0..scale.repetitions {
            let mut sdn = waxman_sdn(100, 60 + rep as u64);
            let mut rng = StdRng::seed_from_u64(6_000 + rep as u64);
            let mut gen = RequestGenerator::new(100);
            let requests = gen.generate_batch(scale.online_requests, &mut rng);
            let mut algo = OnlineCp::new().with_threshold_rule(rule);
            total += run_online(&mut sdn, &mut algo, &requests).admitted;
        }
        let avg = total as f64 / scale.repetitions.max(1) as f64;
        t.add_row(vec![label.to_string(), format!("{avg:.1}")]);
    }
    t
}

/// Ablation 3: `Appro_Multi` with K = 1..4.
#[must_use]
pub fn k_sweep(scale: ExperimentScale) -> Table {
    let mut t = Table::new(
        "Ablation: Appro_Multi K sweep (n = 100, Dmax/|V| = 0.15)",
        &["K", "cost", "time [ms]"],
    );
    for k in 1..=4usize {
        let mut costs = Vec::new();
        let mut times = Vec::new();
        for rep in 0..scale.repetitions {
            let sdn = waxman_sdn(100, 70 + rep as u64);
            let mut rng = StdRng::seed_from_u64(7_000 + rep as u64);
            let mut gen = RequestGenerator::new(100).with_dmax_ratio(0.15);
            for _ in 0..scale.offline_requests {
                let req = gen.generate(&mut rng);
                let (tree, ms) = time_it(|| appro_multi(&sdn, &req, k));
                if let Some(tree) = tree {
                    costs.push(tree.total_cost());
                    times.push(ms);
                }
            }
        }
        t.add_row(vec![
            k.to_string(),
            format!("{:.1}", mean(&costs)),
            format!("{:.2}", mean(&times)),
        ]);
    }
    t
}

/// Ablation 4: KMB vs Mehlhorn vs SPH inside the literal Algorithm 1
/// (small network — the literal path materializes every auxiliary graph).
#[must_use]
pub fn steiner_routine(scale: ExperimentScale) -> Table {
    let mut t = Table::new(
        "Ablation: Steiner routine in literal Algorithm 1 (n = 50, K = 2)",
        &["routine", "cost", "time [ms]"],
    );
    for (label, routine) in [
        ("KMB", SteinerRoutine::Kmb),
        ("Mehlhorn", SteinerRoutine::Mehlhorn),
        ("SPH", SteinerRoutine::Sph),
    ] {
        let mut costs = Vec::new();
        let mut times = Vec::new();
        for rep in 0..scale.repetitions {
            let sdn = waxman_sdn(50, 80 + rep as u64);
            let mut rng = StdRng::seed_from_u64(8_000 + rep as u64);
            let mut gen = RequestGenerator::new(50).with_dmax_ratio(0.15);
            for _ in 0..scale.offline_requests {
                let req = gen.generate(&mut rng);
                let (tree, ms) = time_it(|| appro_multi_with_steiner(&sdn, &req, 2, routine));
                if let Some(tree) = tree {
                    costs.push(tree.total_cost());
                    times.push(ms);
                }
            }
        }
        t.add_row(vec![
            label.to_string(),
            format!("{:.1}", mean(&costs)),
            format!("{:.2}", mean(&times)),
        ]);
    }
    t
}

/// Ablation 5: empirical competitive ratio of `Online_CP` against the
/// offline greedy benchmark (Theorem 2 predicts `Ω(1/log n)`).
#[must_use]
pub fn competitive_ratio(scale: ExperimentScale) -> Table {
    use nfv_online::{empirical_competitive_ratio, offline_greedy_benchmark, OnlineCp};
    let mut t = Table::new(
        "Ablation: empirical competitive ratio of Online_CP vs offline greedy",
        &["n", "Online_CP", "Offline_Greedy", "ratio"],
    );
    for n in [50usize, 100, 150] {
        let mut on_total = 0usize;
        let mut off_total = 0usize;
        let mut ratio_sum = 0.0;
        for rep in 0..scale.repetitions {
            let sdn = waxman_sdn(n, 95 + rep as u64);
            let mut rng = StdRng::seed_from_u64(9_500 + rep as u64);
            let mut gen = RequestGenerator::new(n);
            let requests = gen.generate_batch(scale.online_requests, &mut rng);
            let mut net = sdn.clone();
            let online = nfv_online::run_online(&mut net, &mut OnlineCp::new(), &requests);
            let mut net = sdn;
            let offline = offline_greedy_benchmark(&mut net, &requests, 1);
            on_total += online.admitted;
            off_total += offline.admitted;
            ratio_sum += empirical_competitive_ratio(&online, &offline);
        }
        let reps = scale.repetitions.max(1) as f64;
        t.add_row(vec![
            n.to_string(),
            format!("{:.1}", on_total as f64 / reps),
            format!("{:.1}", off_total as f64 / reps),
            format!("{:.3}", ratio_sum / reps),
        ]);
    }
    t
}

/// Ablation 6: KMB with and without key-path local search (tree cost on
/// raw Steiner instances drawn from the Waxman topology).
#[must_use]
pub fn local_search(scale: ExperimentScale) -> Table {
    let mut t = Table::new(
        "Ablation: KMB vs KMB + key-path local search (n = 100, raw Steiner cost)",
        &["variant", "cost", "time [ms]"],
    );
    let mut kmb_costs = Vec::new();
    let mut kmb_times = Vec::new();
    let mut ls_costs = Vec::new();
    let mut ls_times = Vec::new();
    for rep in 0..scale.repetitions {
        let sdn = waxman_sdn(100, 85 + rep as u64);
        let g = sdn.graph();
        let mut rng = StdRng::seed_from_u64(8_500 + rep as u64);
        let mut gen = RequestGenerator::new(100).with_dmax_ratio(0.15);
        for _ in 0..scale.offline_requests {
            let req = gen.generate(&mut rng);
            let mut terms = vec![req.source];
            terms.extend(req.destinations.iter().copied());
            let (tree, ms) = time_it(|| steiner::kmb(g, &terms));
            let Some(tree) = tree else { continue };
            kmb_costs.push(tree.cost());
            kmb_times.push(ms);
            let (polished, ms2) = time_it(|| steiner::improve(g, &tree, 10));
            ls_costs.push(polished.cost());
            ls_times.push(ms + ms2);
        }
    }
    t.add_row(vec![
        "KMB".into(),
        format!("{:.3}", mean(&kmb_costs)),
        format!("{:.3}", mean(&kmb_times)),
    ]);
    t.add_row(vec![
        "KMB + local search".into(),
        format!("{:.3}", mean(&ls_costs)),
        format!("{:.3}", mean(&ls_times)),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            offline_requests: 2,
            online_requests: 10,
            repetitions: 1,
        }
    }

    #[test]
    fn cost_model_rows() {
        assert_eq!(cost_model(tiny()).len(), 2);
    }

    #[test]
    fn k_sweep_rows() {
        assert_eq!(k_sweep(tiny()).len(), 4);
    }
}
