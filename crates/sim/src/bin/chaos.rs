//! Chaos replay on the fig5-scale topology:
//! `cargo run -p sim --release --bin chaos [seed...]`.
//!
//! Two scenario families run per seed:
//!
//! * **chaos** — the timed workload with seeded failure/recovery toggles
//!   under the self-healing repair engine,
//! * **churn** — membership joins/leaves grafted onto live sessions,
//!   interleaved with fail-heaviest single-link failures, in reactive
//!   and proactive (best-effort and reserved backup-tree) modes.
//!
//! Every replay runs **twice** — once with telemetry disabled and once
//! with it enabled — and the outcomes must be byte-identical, so CI gets
//! both the determinism check and the telemetry-is-side-effect-free
//! check for free; the binary exits non-zero otherwise. It also asserts
//! that the proactive runs actually landed backup-tree swaps, so the
//! failover path can never silently regress into always-replanning. The
//! outcomes land in `results/chaos.json` (one object with a `"chaos"`
//! array and one array per churn mode) and the accumulated telemetry
//! snapshot in `results/telemetry-chaos.json` (not committed;
//! `results/telemetry.json` belongs to `arena`).

use nfv_engine::BackupPolicy;
use sim::experiments::chaos::{run_chaos, ChaosParams};
use sim::experiments::churn::{run_churn, ChurnMode, ChurnOutcome, ChurnParams};

/// Runs one churn replay twice (telemetry off, then on) and asserts the
/// outcomes are byte-identical.
fn churn_checked(seed: u64, mode: ChurnMode) -> ChurnOutcome {
    let params = ChurnParams::ci_scale(seed, mode);
    telemetry::disable();
    let first = run_churn(&params);
    telemetry::enable();
    let second = run_churn(&params);
    assert_eq!(
        first,
        second,
        "churn replay ({}) for seed {seed} diverged with telemetry enabled",
        mode.label()
    );
    first
}

fn main() {
    let seeds: Vec<u64> = {
        let args: Vec<u64> = std::env::args()
            .skip(1)
            .map(|a| {
                a.parse().unwrap_or_else(|_| {
                    eprintln!("usage: chaos [seed...]");
                    std::process::exit(2);
                })
            })
            .collect();
        if args.is_empty() {
            vec![11, 23, 47]
        } else {
            args
        }
    };

    let mut chaos_lines = Vec::new();
    for &seed in &seeds {
        let params = ChaosParams::fig5_scale(seed);
        telemetry::disable();
        let first = run_chaos(&params);
        telemetry::enable();
        let second = run_chaos(&params);
        assert_eq!(
            first, second,
            "chaos replay for seed {seed} diverged with telemetry enabled"
        );
        eprintln!(
            "chaos seed {seed}: {} offered, {} admitted, {} survived, \
             {} repaired, {} degraded, {} dropped, {} audits",
            first.offered,
            first.admitted,
            first.survived,
            first.repaired,
            first.degraded,
            first.dropped,
            first.audit_checks
        );
        chaos_lines.push(first.to_json());
    }

    let modes = [
        ChurnMode::Reactive,
        ChurnMode::Proactive(BackupPolicy::BestEffort),
        ChurnMode::Proactive(BackupPolicy::Reserved),
    ];
    let mut churn_sections = Vec::new();
    let mut proactive_swaps = 0usize;
    for mode in modes {
        let mut lines = Vec::new();
        for &seed in &seeds {
            let out = churn_checked(seed, mode);
            eprintln!(
                "churn seed {seed} ({}): {} admitted, {} grafts, {} prunes, \
                 {} swaps, {} replans, {} plan events, {} audits",
                out.mode,
                out.admitted,
                out.grafts,
                out.prunes,
                out.backup_swaps,
                out.replanned,
                out.plan_events,
                out.audit_checks
            );
            if matches!(mode, ChurnMode::Proactive(_)) {
                proactive_swaps += out.backup_swaps;
            } else {
                assert_eq!(out.backup_swaps, 0, "reactive mode must never swap");
            }
            lines.push(out.to_json());
        }
        churn_sections.push(format!(
            "\"churn_{}\": [\n  {}\n]",
            mode.label().replace('-', "_").replace("proactive_", ""),
            lines.join(",\n  ")
        ));
    }
    assert!(
        proactive_swaps > 0,
        "proactive churn runs landed no backup-tree swaps — protection is inert"
    );

    std::fs::create_dir_all("results").expect("create results/");
    let json = format!(
        "{{\"chaos\": [\n  {}\n],\n{}}}\n",
        chaos_lines.join(",\n  "),
        churn_sections.join(",\n")
    );
    std::fs::write("results/chaos.json", json).expect("write results/chaos.json");
    let snapshot = telemetry::snapshot();
    std::fs::write("results/telemetry-chaos.json", snapshot.to_json())
        .expect("write results/telemetry-chaos.json");
    println!(
        "wrote results/chaos.json ({} seeds, chaos + 3 churn modes) and results/telemetry-chaos.json",
        seeds.len()
    );
}
