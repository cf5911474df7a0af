//! Fig. 5(a–f): `Appro_Multi` vs `Alg_One_Server` on GT-ITM/Waxman
//! topologies — operational cost (a–c) and running time (d–f) as the
//! network size grows from 50 to 250, one sub-experiment per
//! `D_max/|V|` ratio.

use super::{average_points, offline_point, server_trees};
use crate::{waxman_sdn, ExperimentScale, Table};

/// Network sizes the paper sweeps.
pub const SIZES: [usize; 5] = [50, 100, 150, 200, 250];
/// `D_max/|V|` ratios of the three sub-figures.
pub const RATIOS: [f64; 3] = [0.10, 0.15, 0.20];

/// Runs the Fig. 5 sweep at the paper's sizes and ratios, returning the
/// cost table and the running-time table.
#[must_use]
pub fn run(scale: ExperimentScale) -> (Table, Table) {
    run_with(&SIZES, &RATIOS, scale)
}

/// [`run`] with explicit sizes/ratios (tests use reduced sweeps).
#[must_use]
pub fn run_with(sizes: &[usize], ratios: &[f64], scale: ExperimentScale) -> (Table, Table) {
    let mut cost = Table::new(
        "Fig. 5(a-c): operational cost vs network size (Appro_Multi vs Alg_One_Server)",
        &[
            "Dmax/|V|",
            "n",
            "Appro_Multi",
            "Alg_One_Server",
            "ratio",
            "samples",
        ],
    );
    let mut time = Table::new(
        "Fig. 5(d-f): running time per request [ms]",
        &["Dmax/|V|", "n", "Appro_Multi", "Alg_One_Server"],
    );
    // One network per (size, repetition), whatever the ratio: its server
    // trees are built once and every ratio plans on a copy of them.
    let nets: Vec<Vec<_>> = sizes
        .iter()
        .map(|&n| {
            (0..scale.repetitions)
                .map(|rep| {
                    let sdn = waxman_sdn(n, rep as u64);
                    let trees = server_trees(&sdn);
                    (sdn, trees)
                })
                .collect()
        })
        .collect();
    for &ratio in ratios {
        for (&n, reps) in sizes.iter().zip(&nets) {
            let points: Vec<_> = reps
                .iter()
                .enumerate()
                .map(|(rep, (sdn, trees))| {
                    let seed = 1_000 + rep as u64;
                    offline_point(sdn, trees, ratio, scale.offline_requests, seed)
                })
                .collect();
            let p = average_points(&points);
            eprintln!(
                "fig5: ratio {ratio} n {n}: appro {:.0} base {:.0} ({:.0}%)",
                p.appro_cost,
                p.baseline_cost,
                100.0 * p.cost_ratio()
            );
            cost.add_row(vec![
                format!("{ratio}"),
                n.to_string(),
                format!("{:.1}", p.appro_cost),
                format!("{:.1}", p.baseline_cost),
                format!("{:.3}", p.cost_ratio()),
                p.samples.to_string(),
            ]);
            time.add_row(vec![
                format!("{ratio}"),
                n.to_string(),
                format!("{:.2}", p.appro_time_ms),
                format!("{:.2}", p.baseline_time_ms),
            ]);
        }
    }
    (cost, time)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_fills_all_points() {
        let (cost, time) = run_with(
            &[30, 50],
            &[0.1],
            ExperimentScale {
                offline_requests: 2,
                online_requests: 1,
                repetitions: 1,
            },
        );
        assert_eq!(cost.len(), 2);
        assert_eq!(time.len(), 2);
    }
}
