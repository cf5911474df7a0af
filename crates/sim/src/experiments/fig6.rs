//! Fig. 6(a–d): `Appro_Multi` vs `Alg_One_Server` on the real topologies
//! (GÉANT and AS1755) — operational cost (a–b) and running time (c–d) as
//! `D_max/|V|` grows from 0.05 to 0.2.

use super::{average_points, offline_point, server_trees};
use crate::{geant_sdn, isp_sdn, ExperimentScale, Table};
use sdn::Sdn;

/// The `D_max/|V|` sweep of Fig. 6.
pub const RATIOS: [f64; 4] = [0.05, 0.10, 0.15, 0.20];

/// Runs the Fig. 6 sweep, returning the cost table and the running-time
/// table (both with one row per topology × ratio).
#[must_use]
pub fn run(scale: ExperimentScale) -> (Table, Table) {
    run_with(&RATIOS, scale)
}

/// [`run`] with explicit ratios (tests use reduced sweeps).
#[must_use]
pub fn run_with(ratios: &[f64], scale: ExperimentScale) -> (Table, Table) {
    let mut cost = Table::new(
        "Fig. 6(a-b): operational cost in GEANT / AS1755",
        &[
            "topology",
            "Dmax/|V|",
            "Appro_Multi",
            "Alg_One_Server",
            "ratio",
            "samples",
        ],
    );
    let mut time = Table::new(
        "Fig. 6(c-d): running time per request [ms]",
        &["topology", "Dmax/|V|", "Appro_Multi", "Alg_One_Server"],
    );
    type SdnBuilderFn = fn(u64) -> Sdn;
    let builders: [(&str, SdnBuilderFn); 2] = [("GEANT", geant_sdn), ("AS1755", isp_sdn)];
    for (name, build) in builders {
        // One network per repetition, whatever the ratio: its server
        // trees are built once and every ratio plans on a copy of them.
        let nets: Vec<_> = (0..scale.repetitions)
            .map(|rep| {
                let sdn = build(rep as u64);
                let trees = server_trees(&sdn);
                (sdn, trees)
            })
            .collect();
        for &ratio in ratios {
            let points: Vec<_> = nets
                .iter()
                .enumerate()
                .map(|(rep, (sdn, trees))| {
                    let seed = 2_000 + rep as u64;
                    offline_point(sdn, trees, ratio, scale.offline_requests, seed)
                })
                .collect();
            let p = average_points(&points);
            eprintln!(
                "fig6: {name} ratio {ratio}: appro {:.0} base {:.0} ({:.0}%)",
                p.appro_cost,
                p.baseline_cost,
                100.0 * p.cost_ratio()
            );
            cost.add_row(vec![
                name.to_string(),
                format!("{ratio}"),
                format!("{:.1}", p.appro_cost),
                format!("{:.1}", p.baseline_cost),
                format!("{:.3}", p.cost_ratio()),
                p.samples.to_string(),
            ]);
            time.add_row(vec![
                name.to_string(),
                format!("{ratio}"),
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
            &[0.1],
            ExperimentScale {
                offline_requests: 2,
                online_requests: 1,
                repetitions: 1,
            },
        );
        assert_eq!(cost.len(), 2); // two topologies
        assert_eq!(time.len(), 2);
    }
}
