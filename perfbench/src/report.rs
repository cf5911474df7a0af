//! Metric names, units and the one-line JSON result.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// End-to-end metrics: `(name, unit)`, printed by every timed run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("decisions_per_s", "decisions/s"),
    ("decision_p50_ms", "ms"),
    ("decision_p90_ms", "ms"),
    ("admitted_ratio", "ratio"),
    ("mean_cost", "cost/request"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, printed by every traced run. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("core.plan_ms", "ms"),
    ("core.combos_evaluated_per_decision", "count"),
    ("core.combos_pruned_ratio", "ratio"),
    ("core.combos_deduped_per_decision", "count"),
    ("core.pathcache_fast_ratio", "ratio"),
    ("core.admit_check_us", "us"),
    ("netgraph.dijkstra_runs_per_decision", "count"),
    ("netgraph.heap_decrease_keys_per_decision", "count"),
    ("netgraph.spt_hit_ratio", "ratio"),
    ("netgraph.spt_evictions", "count"),
    ("netgraph.sssp_replay_ms_per_decision", "ms"),
    ("netgraph.sssp_share", "ratio"),
    ("netgraph.oracle_build_ms", "ms"),
    ("online.candidates_pruned_per_decision", "count"),
    ("online.admit_ms", "ms"),
    ("online.admission_cache_hit_ratio", "ratio"),
    ("online.saturated_servers_per_decision", "count"),
    ("online.rejected_threshold_ratio", "ratio"),
    ("online.rejected_capacity_ratio", "ratio"),
    ("online.rejected_infeasible_ratio", "ratio"),
    ("sdn.allocate_us", "us"),
    ("sdn.release_us", "us"),
    ("sdn.ledger_share", "ratio"),
    ("sessions.release_due_us", "us"),
    ("sessions.departed_per_decision", "count"),
    ("engine.push_ms", "ms"),
    ("engine.finish_ms", "ms"),
    ("engine.speculative_hit_ratio", "ratio"),
    ("engine.replans_per_decision", "count"),
    ("engine.stalls_per_decision", "count"),
    ("engine.snapshots_per_decision", "count"),
    ("engine.worker_busy_ratio", "ratio"),
    ("engine.committer_busy_ratio", "ratio"),
    ("engine.speedup_vs_sequential", "ratio"),
    ("host.steal_ratio", "ratio"),
    ("host.runqueue_wait_ratio", "ratio"),
    ("host.reference_mops", "Mops/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// A name starts with a letter or digit and holds at most 64 of
/// `[A-Za-z0-9_.-]`.
#[cfg(test)]
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// `x / y`, or 0 when there is nothing to divide by.
#[must_use]
pub fn ratio(x: f64, y: f64) -> f64 {
    if y > 0.0 {
        x / y
    } else {
        0.0
    }
}

/// Looks up `name` in `table` and pairs it with `value`.
///
/// # Panics
///
/// Panics if `name` is not in `table` (a typo in the benchmark).
#[must_use]
pub fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown metric {name}"));
    Metric { name, unit, value }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
#[must_use]
pub fn render(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` keeps every digit and always prints a decimal point.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("p99{ms}"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("core.plan_ms"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let listed = json.matches("\"name\": ").count();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // The rest of the names are the workloads, all but the two whose
        // timings spread beyond the bounds on the reference host (README,
        // "Noise"); they stay runnable by name.
        let ungated = ["waxman250-k3", "fattree5120-oracle"];
        let gated: Vec<_> = crate::workloads::WORKLOADS
            .iter()
            .filter(|w| !ungated.contains(&w.name))
            .collect();
        assert_eq!(
            gated.len() + ungated.len(),
            crate::workloads::WORKLOADS.len()
        );
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + gated.len());
        for w in gated {
            let entry = format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn render_keeps_all_digits() {
        let line = render(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.123_456_789_012_345_6,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.1234567890123456, \"unit\": \"s\"}}}"
        );
        assert!(render(true, 1, 0, &[metric(&END_TO_END, "mean_cost", 2.0)]).contains("2.0"));
    }
}
