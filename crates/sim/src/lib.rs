//! # sim
//!
//! The experiment harness that regenerates every figure of the paper's
//! evaluation (§VI). Each `fig*` module reproduces one figure's sweep;
//! the matching binaries (`cargo run -p sim --release --bin fig5` …)
//! print the series as ASCII tables and write CSV files under
//! `results/`.
//!
//! | Binary | Paper figure | What it sweeps |
//! |---|---|---|
//! | `fig5` | Fig. 5(a–f) | cost & running time vs network size, per `D_max/\|V\|` |
//! | `fig6` | Fig. 6(a–d) | cost & running time on GÉANT / AS1755 vs `D_max/\|V\|` |
//! | `fig7` | Fig. 7(a–b) | `Appro_Multi_Cap` cost & time vs network size |
//! | `fig8` | Fig. 8     | requests admitted by `Online_CP` vs `SP`, vs network size |
//! | `fig9` | Fig. 9     | admitted vs number of requests on GÉANT / AS1755 |
//! | `ablation` | §VII design choices | cost model, threshold rule, K sweep, Steiner routine |
//! | `chaos` | failure model | seeded fail/recover replay with self-healing repair + auditor |
//! | `arena` | competitive analysis | every online policy × every adversarial workload, vs offline yardsticks |
//! | `all` | everything | runs the full suite |
//!
//! Experiment scale (requests per data point, repetitions) is tunable via
//! [`ExperimentScale`] so the full paper-scale runs and quick smoke runs
//! share one code path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chart;
pub mod experiments;
mod measure;
mod setup;
mod table;

pub use chart::{render_chart, Series};
pub use measure::{mean, stdev, time_it};
pub use setup::{fat_tree_sdn, geant_sdn, isp_sdn, waxman_sdn, ExperimentScale};
pub use table::{write_csv, Table};
