//! End-to-end fixture tests: each seeded fixture must produce exactly the
//! expected (rule, line) set when classified as planner code, the negative
//! fixtures must stay silent, and the CLI must exit non-zero on a dirty
//! workspace.

use nfv_lint::{lint_source, Config, Severity};
use std::path::Path;
use std::process::Command;

/// Lints a fixture as if it lived in a planner crate and returns the
/// (rule, line, severity) triples.
fn lint_fixture(name: &str, src: &str) -> Vec<(String, u32, Severity)> {
    let rel = format!("crates/core/src/{name}");
    lint_source(&rel, src, &Config::default())
        .into_iter()
        .map(|v| (v.rule, v.line, v.severity))
        .collect()
}

fn deny(rule: &str, line: u32) -> (String, u32, Severity) {
    (rule.to_string(), line, Severity::Deny)
}

fn warn(rule: &str, line: u32) -> (String, u32, Severity) {
    (rule.to_string(), line, Severity::Warn)
}

#[test]
fn d1_flags_unordered_containers_outside_tests() {
    let got = lint_fixture("d1.rs", include_str!("fixtures/d1_unordered.rs"));
    assert_eq!(
        got,
        vec![
            deny("D1", 3),  // use HashMap
            deny("D1", 4),  // use HashSet
            deny("D1", 7),  // HashSet type annotation
            deny("D1", 7),  // HashSet::new()
            deny("D1", 13), // local HashMap
        ]
    );
}

#[test]
fn d2_flags_ambient_inputs() {
    let got = lint_fixture("d2.rs", include_str!("fixtures/d2_ambient.rs"));
    assert_eq!(
        got,
        vec![
            deny("D2", 4),  // Instant::now()
            deny("D2", 9),  // SystemTime::now()
            deny("D2", 13), // thread_rng()
            deny("D2", 18), // std::env::var
        ]
    );
}

#[test]
fn p1_flags_panic_sites_and_warns_on_indexing() {
    let got = lint_fixture("p1.rs", include_str!("fixtures/p1_panics.rs"));
    assert_eq!(
        got,
        vec![
            deny("P1", 4),      // .unwrap()
            deny("P1", 8),      // .expect()
            deny("P1", 13),     // panic!
            warn("P1-idx", 15), // xs[2]
            deny("P1", 19),     // unreachable!
            deny("P1", 23),     // todo!
        ]
    );
}

#[test]
fn u1_requires_safety_comments() {
    let got = lint_fixture("u1.rs", include_str!("fixtures/u1_unsafe.rs"));
    assert_eq!(got, vec![deny("U1", 4)]);
}

#[test]
fn o1_requires_reasons_and_rejects_doc_comments() {
    let got = lint_fixture("o1.rs", include_str!("fixtures/o1_allows.rs"));
    assert_eq!(got, vec![deny("O1", 3), deny("O1", 14)]);
}

#[test]
fn a1_flags_malformed_escapes() {
    let got = lint_fixture("a1.rs", include_str!("fixtures/a1_malformed.rs"));
    assert_eq!(got, vec![deny("A1", 5), deny("A1", 8), deny("A1", 11)]);
}

#[test]
fn strings_comments_and_raw_strings_do_not_trip_rules() {
    let got = lint_fixture("neg.rs", include_str!("fixtures/negatives.rs"));
    assert_eq!(got, vec![]);
}

#[test]
fn lint_allow_escapes_suppress_each_form() {
    let got = lint_fixture("sup.rs", include_str!("fixtures/suppressed.rs"));
    assert_eq!(got, vec![]);
}

#[test]
fn rules_are_individually_toggleable() {
    let src = include_str!("fixtures/p1_panics.rs");
    let mut cfg = Config::default();
    cfg.set("P1", None);
    cfg.set("P1-idx", Some(Severity::Deny));
    let got: Vec<_> = lint_source("crates/core/src/p1.rs", src, &cfg)
        .into_iter()
        .map(|v| (v.rule, v.line, v.severity))
        .collect();
    assert_eq!(got, vec![deny("P1-idx", 15)]);
}

#[test]
fn test_like_paths_are_exempt_from_planner_rules() {
    let src = include_str!("fixtures/d1_unordered.rs");
    let got = lint_source("crates/core/tests/d1.rs", src, &Config::default());
    assert_eq!(got, vec![]);
}

#[test]
fn cli_exits_nonzero_on_a_dirty_workspace() {
    let badws = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/badws");
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join("badws-lint.json");
    let out = Command::new(env!("CARGO_BIN_EXE_nfv-lint"))
        .arg("--workspace-root")
        .arg(&badws)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("spawn nfv-lint");
    assert_eq!(out.status.code(), Some(1), "stdout: {:?}", out.stdout);
    let report = std::fs::read_to_string(&json).expect("JSON report written");
    for rule in ["D1", "P1", "U1"] {
        assert!(
            report.contains(&format!("\"rule\": \"{rule}\"")),
            "{report}"
        );
    }
}

// ---- semantic pass fixtures (PR 9) --------------------------------------

#[test]
fn t1_flags_raw_money_comparisons_and_magic_literals() {
    let got = lint_fixture("t1.rs", include_str!("fixtures/t1_tolerance.rs"));
    assert_eq!(
        got,
        vec![
            deny("T1", 6),  // residual >= demand, no guard
            deny("T1", 10), // magic 1e-9 tolerance literal
        ]
    );
}

#[test]
fn t1_flags_capacity_eps_named_outside_sdn() {
    let got = lint_fixture("t1_eps.rs", include_str!("fixtures/t1_capacity_eps.rs"));
    assert_eq!(
        got,
        vec![
            deny("T1", 5),  // use sdn::CAPACITY_EPS
            deny("T1", 8),  // hand-rolled residual + sdn::CAPACITY_EPS >= b
            deny("T1", 12), // bare CAPACITY_EPS
            deny("T1", 26), // in a test module too
        ]
    );
    // The owner may name it, and crates outside T1 are not checked.
    for rel in ["crates/sdn/src/t1_eps.rs", "crates/netgraph/src/t1_eps.rs"] {
        let src = include_str!("fixtures/t1_capacity_eps.rs");
        assert!(
            lint_source(rel, src, &Config::default()).is_empty(),
            "{rel} should be silent"
        );
    }
}

/// Lints the semantic mini-workspace with the token-level panic rules off,
/// isolating the call-graph families.
fn lint_semws() -> nfv_lint::Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/semws");
    let mut cfg = Config::default();
    cfg.set("P1", None);
    cfg.set("P1-idx", None);
    nfv_lint::lint_workspace(&root, &cfg).expect("lint semws")
}

#[test]
fn semantic_workspace_pins_every_family() {
    let report = lint_semws();
    let got: Vec<(String, String, u32, Severity)> = report
        .violations
        .iter()
        .map(|v| (v.rule.clone(), v.path.clone(), v.line, v.severity))
        .collect();
    let engine = "crates/engine/src/lib.rs".to_string();
    let telemetry = "crates/telemetry/src/lib.rs".to_string();
    assert_eq!(
        got,
        vec![
            ("C1".to_string(), engine.clone(), 17, Severity::Deny),
            ("P2".to_string(), engine.clone(), 27, Severity::Deny),
            ("P2-cold".to_string(), engine.clone(), 39, Severity::Warn),
            ("C2".to_string(), engine.clone(), 44, Severity::Deny),
            ("C2".to_string(), engine, 61, Severity::Deny),
            ("TL1".to_string(), telemetry, 7, Severity::Deny),
        ]
    );
}

#[test]
fn semantic_workspace_reachability_and_allow_budget() {
    let report = lint_semws();
    let r = report.reachability.expect("worker entry root present");
    assert_eq!(r.entries, 1);
    assert_eq!(r.total_fns, 12);
    assert_eq!(r.reachable_fns, 5);
    assert_eq!(r.reachable_allowed_panics, 1);
    assert_eq!(r.cold_allowed_panics, 1);
    assert_eq!(report.allow_counts.get("P1"), Some(&2));
    assert_eq!(report.allow_counts.get("C1"), Some(&1));
    assert_eq!(report.allow_counts.get("C2"), Some(&1));
    assert_eq!(report.allow_counts.get("TL1"), Some(&1));
    assert_eq!(
        report.cold_sites,
        vec![("crates/engine/src/lib.rs".to_string(), 39)]
    );
}

#[test]
fn semantic_rules_are_individually_toggleable() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/semws");
    let mut cfg = Config::default();
    for rule in ["P1", "P1-idx", "P2", "P2-cold", "C1", "C2", "TL1"] {
        cfg.set(rule, None);
    }
    let report = nfv_lint::lint_workspace(&root, &cfg).expect("lint semws");
    assert_eq!(report.violations, vec![]);
}

#[test]
fn cli_exits_nonzero_on_a_dirty_semantic_workspace() {
    let semws = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/semws");
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join("semws-lint.json");
    let out = Command::new(env!("CARGO_BIN_EXE_nfv-lint"))
        .arg("--workspace-root")
        .arg(&semws)
        .arg("--json")
        .arg(&json)
        .arg("--cold-report")
        .output()
        .expect("spawn nfv-lint");
    assert_eq!(out.status.code(), Some(1), "stdout: {:?}", out.stdout);
    let report = std::fs::read_to_string(&json).expect("JSON report written");
    for rule in ["P2", "C1", "C2", "TL1"] {
        assert!(
            report.contains(&format!("\"rule\": \"{rule}\"")),
            "{report}"
        );
    }
    assert!(report.contains("\"version\": 2"), "{report}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("reachability: 1 entry roots"), "{stdout}");
}

#[test]
fn cli_max_allow_ratchet_fails_when_exceeded() {
    let semws = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/semws");
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join("semws-ratchet.json");
    // The fixture carries two justified P1 escapes; a budget of 1 must
    // fail even with every deny rule disabled.
    let out = Command::new(env!("CARGO_BIN_EXE_nfv-lint"))
        .arg("--workspace-root")
        .arg(&semws)
        .arg("--json")
        .arg(&json)
        .args([
            "--off", "P1", "--off", "P1-idx", "--off", "P2", "--off", "P2-cold",
        ])
        .args(["--off", "C1", "--off", "C2", "--off", "TL1"])
        .args(["--max-allow", "P1:1"])
        .output()
        .expect("spawn nfv-lint");
    assert_eq!(out.status.code(), Some(1), "stderr: {:?}", out.stderr);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("P1 allow count 2 exceeds"), "{stderr}");
}
