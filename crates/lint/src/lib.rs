//! `nfv-lint` — the workspace's in-tree determinism & panic-freedom
//! linter.
//!
//! Every reproducibility guarantee the workspace ships (byte-identical
//! parallel batch commits, pruned==unpruned `Appro_Multi` equivalence,
//! chaos replays with identical counts) rests on source-level invariants
//! the compiler does not check: no unordered iteration in result-affecting
//! code, no ambient entropy or wall-clock reads in planners, no panics on
//! user-reachable paths. This crate enforces them with a hand-rolled
//! token scanner (no external dependencies — the build container has no
//! crates.io access) and a repo-specific ruleset; see [`rules`] for the
//! rule table and the `lint:allow` escape convention.
//!
//! Run it locally with:
//!
//! ```text
//! cargo run -p nfv-lint --release -- --workspace-root .
//! ```
//!
//! The binary exits non-zero when any deny-severity violation survives
//! the escapes, and writes a machine-readable report to
//! `results/lint.json` (`--json` to redirect).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;

pub use rules::{lint_source, FileInfo, Violation};
pub use semantic::Reachability;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Effective severity of a reported violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Reported and fails the run.
    Deny,
    /// Reported but never fails the run.
    Warn,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        })
    }
}

/// All rule identifiers the linter knows, with their default severities.
/// `P1-idx` defaults to warn: indexing into internally-constructed,
/// length-checked buffers is pervasive in the hot paths and each site is
/// bounds-guarded by construction; the rule stays visible in the report
/// and can be escalated with `--deny P1-idx`.
pub const DEFAULT_SEVERITIES: &[(&str, Option<Severity>)] = &[
    ("D1", Some(Severity::Deny)),
    ("D2", Some(Severity::Deny)),
    ("P1", Some(Severity::Deny)),
    ("P1-idx", Some(Severity::Warn)),
    ("P2", Some(Severity::Deny)),
    ("P2-cold", Some(Severity::Warn)),
    ("T1", Some(Severity::Deny)),
    ("C1", Some(Severity::Deny)),
    ("C2", Some(Severity::Deny)),
    ("TL1", Some(Severity::Deny)),
    ("U1", Some(Severity::Deny)),
    ("O1", Some(Severity::Deny)),
    ("A1", Some(Severity::Deny)),
];

/// Per-rule severity configuration (`None` disables a rule).
#[derive(Debug, Clone)]
pub struct Config {
    severities: BTreeMap<String, Option<Severity>>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            severities: DEFAULT_SEVERITIES
                .iter()
                .map(|&(r, s)| (r.to_string(), s))
                .collect(),
        }
    }
}

impl Config {
    /// The severity a rule runs at, or `None` when disabled/unknown.
    #[must_use]
    pub fn severity(&self, rule: &str) -> Option<Severity> {
        self.severities.get(rule).copied().flatten()
    }

    /// Returns `true` if `rule` is one the linter knows.
    #[must_use]
    pub fn knows(&self, rule: &str) -> bool {
        self.severities.contains_key(rule)
    }

    /// Overrides one rule's severity (`None` turns it off).
    pub fn set(&mut self, rule: &str, severity: Option<Severity>) {
        self.severities.insert(rule.to_string(), severity);
    }
}

/// Outcome of linting a whole workspace.
#[derive(Debug)]
pub struct Report {
    /// Every violation, ordered by path then line.
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Workspace-wide `lint:allow` escape counts per rule — the
    /// `--max-allow` ratchet input.
    pub allow_counts: BTreeMap<String, usize>,
    /// P2 call-graph reachability summary (`None` when no `lint:entry`
    /// roots exist, e.g. in fixture workspaces without annotations).
    pub reachability: Option<Reachability>,
    /// Cold justified panic sites (`path`, `line`) for `--cold-report`.
    pub cold_sites: Vec<(String, u32)>,
}

impl Report {
    /// Number of deny-severity violations (the exit-code driver).
    #[must_use]
    pub fn denied(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Deny)
            .count()
    }

    /// Per-rule violation counts.
    #[must_use]
    pub fn counts(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for v in &self.violations {
            *m.entry(v.rule.clone()).or_insert(0) += 1;
        }
        m
    }

    /// Renders the machine-readable JSON report (schema v2: adds
    /// `allow_counts` and `reachability` over v1).
    #[must_use]
    pub fn to_json(&self) -> String {
        let map_obj = |m: &BTreeMap<String, usize>| -> String {
            let mut s = String::from("{");
            let mut first = true;
            for (k, n) in m {
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str(&format!("\n    \"{}\": {n}", json_escape(k)));
            }
            s.push_str(if m.is_empty() { "}" } else { "\n  }" });
            s
        };
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 2,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"denied\": {},\n", self.denied()));
        out.push_str(&format!("  \"counts\": {},\n", map_obj(&self.counts())));
        out.push_str(&format!(
            "  \"allow_counts\": {},\n",
            map_obj(&self.allow_counts)
        ));
        match &self.reachability {
            None => out.push_str("  \"reachability\": null,\n"),
            Some(r) => out.push_str(&format!(
                "  \"reachability\": {{\"entries\": {}, \"total_fns\": {}, \
                 \"reachable_fns\": {}, \"reachable_allowed_panics\": {}, \
                 \"cold_allowed_panics\": {}}},\n",
                r.entries,
                r.total_fns,
                r.reachable_fns,
                r.reachable_allowed_panics,
                r.cold_allowed_panics
            )),
        }
        out.push_str("  \"violations\": [");
        let mut first = true;
        for v in &self.violations {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"severity\": \"{}\", \"path\": \"{}\", \
                 \"line\": {}, \"message\": \"{}\"}}",
                json_escape(&v.rule),
                v.severity,
                json_escape(&v.path),
                v.line,
                json_escape(&v.message)
            ));
        }
        out.push_str(if self.violations.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Directories scanned under the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "compat", "tests", "examples"];
/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git"];

/// Lints every `.rs` file under the workspace `root`, in path order.
///
/// # Errors
///
/// Returns any I/O error from walking or reading the tree.
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, fs::read_to_string(path)?));
    }

    let mut violations = Vec::new();
    for (rel, src) in &sources {
        violations.extend(lint_source(rel, src, cfg));
    }
    let sem = semantic::analyze(&sources, cfg);
    violations.extend(sem.violations);
    violations.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    Ok(Report {
        violations,
        files_scanned: files.len(),
        allow_counts: sem.allow_counts,
        reachability: sem.reachability,
        cold_sites: sem.cold_sites,
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_knows_all_rules() {
        let cfg = Config::default();
        for rule in [
            "D1", "D2", "P1", "P1-idx", "P2", "P2-cold", "T1", "C1", "C2", "TL1", "U1", "O1", "A1",
        ] {
            assert!(cfg.knows(rule), "missing {rule}");
        }
        assert_eq!(cfg.severity("P1-idx"), Some(Severity::Warn));
        assert_eq!(cfg.severity("P2-cold"), Some(Severity::Warn));
        assert_eq!(cfg.severity("P1"), Some(Severity::Deny));
        assert_eq!(cfg.severity("T1"), Some(Severity::Deny));
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let report = Report {
            violations: vec![Violation {
                rule: "P1".into(),
                severity: Severity::Deny,
                path: "crates/x/src/a.rs".into(),
                line: 3,
                message: "a \"quoted\" message".into(),
            }],
            files_scanned: 1,
            allow_counts: BTreeMap::new(),
            reachability: None,
            cold_sites: vec![],
        };
        let json = report.to_json();
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"P1\": 1"));
        assert!(json.contains("\"version\": 2"));
        assert_eq!(report.denied(), 1);
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let report = Report {
            violations: vec![],
            files_scanned: 0,
            allow_counts: BTreeMap::new(),
            reachability: None,
            cold_sites: vec![],
        };
        let json = report.to_json();
        assert!(json.contains("\"violations\": []"));
        assert!(json.contains("\"reachability\": null"));
        assert_eq!(report.denied(), 0);
    }
}
