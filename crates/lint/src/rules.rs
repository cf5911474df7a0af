//! The repo-specific ruleset, evaluated over the lexed token stream.
//!
//! | Rule     | What it enforces                                              |
//! |----------|---------------------------------------------------------------|
//! | `D1`     | no `HashMap`/`HashSet` in result-affecting crates             |
//! | `D2`     | no wall-clock / ambient-entropy / env reads in planning code  |
//! | `P1`     | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` in       |
//! |          | library crates' non-test code                                 |
//! | `P1-idx` | no slice-index expressions in the same scope (warn-level)     |
//! | `U1`     | `unsafe` needs a `// SAFETY:` comment; library crate roots    |
//! |          | must `#![forbid(unsafe_code)]`                                |
//! | `O1`     | `#[allow(...)]` needs a trailing reason comment               |
//! | `A1`     | `lint:allow` escapes themselves must carry a reason           |
//! | `T1`     | capacity/residual comparisons must reference a named          |
//! |          | `sdn::cost` tolerance constant (no raw epsilons); only        |
//! |          | `sdn` names `CAPACITY_EPS` (others ask `sdn::fits`)           |
//!
//! The cross-file families (`P2` panic reachability, `C1`/`C2`
//! concurrency, `TL1` dead telemetry) live in [`crate::semantic`]; they
//! share this module's escape machinery.
//!
//! Escapes: `// lint:allow(RULE): reason` suppresses `RULE` on the same
//! line and the line directly below; `// lint:allow-file(RULE): reason`
//! suppresses `RULE` for the whole file. Reasons are mandatory (`A1`).

use crate::lexer::{lex, Comment, Tok, Token};
use crate::{Config, Severity};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (`D1`, `P1`, …).
    pub rule: String,
    /// Effective severity under the active [`Config`].
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Crates whose iteration order reaches planner output: rule `D1` bans
/// unordered containers here.
pub const D1_CRATES: &[&str] = &[
    "netgraph",
    "steiner",
    "core",
    "online",
    "engine",
    "telemetry",
];
/// Crates where ambient nondeterminism (`D2`) is banned; `sim`
/// and the linter itself may read clocks and the environment.
pub const D2_CRATES: &[&str] = &[
    "netgraph",
    "steiner",
    "sdn",
    "core",
    "online",
    "engine",
    "topology",
    "workload",
    "telemetry",
];
/// Library crates whose non-test code must be panic-free (`P1`).
pub const P1_CRATES: &[&str] = &[
    "netgraph",
    "steiner",
    "sdn",
    "core",
    "online",
    "engine",
    "telemetry",
];
/// Crates whose capacity/residual/bandwidth comparisons must go through
/// the named `sdn::cost` tolerance constants (`T1`). `netgraph`/`steiner`
/// stay out: their float comparisons are pure graph-weight orderings whose
/// exactness the pruned==unpruned equivalences depend on.
pub const T1_CRATES: &[&str] = &["sdn", "core", "online", "engine"];
/// The one file exempt from `T1`: where the constants themselves live.
pub const T1_EXEMPT_FILE: &str = "crates/sdn/src/cost.rs";
/// The only source tree of a `T1` crate that may name `CAPACITY_EPS`:
/// everywhere else capacity feasibility is asked of `sdn::fits`,
/// `Sdn::link_fits` or `Sdn::server_fits`, so the decision has one owner.
pub const T1_EPS_OWNER: &str = "crates/sdn/src/";
/// Identifier stems marking a comparison as touching ledger quantities.
const T1_STEMS: &[&str] = &["residual", "bandwidth", "capacity", "usable", "demand"];
/// Identifiers that satisfy `T1` when they appear in the same statement:
/// the named tolerance constants of `sdn::cost` plus the shared
/// feasibility predicates that encapsulate them.
const T1_GUARDS: &[&str] = &[
    "CAPACITY_EPS",
    "RELEASE_EPS",
    "COST_TIEBREAK_REL",
    "COST_FLOOR",
    "VALIDATE_REL_TOL",
    "PRUNE_GUARD_REL",
    "PRUNE_GUARD_ABS",
    "can_allocate",
    "fits",
    "link_fits",
    "server_fits",
];
/// Float literal values that duplicate a named tolerance constant: writing
/// them out is a `T1` violation anywhere in a comparison, whether or not a
/// ledger identifier is nearby (a raw `1e-9` slack *is* the regression
/// PR 5 unified away).
const T1_MAGIC: &[f64] = &[1e-9, 1e-6, 1e-12];
/// Identifiers hinting a statement compares integers (cache sizes, counts)
/// rather than `f64` ledger quantities; such statements are skipped.
const T1_INT_HINTS: &[&str] = &[
    "len",
    "count",
    "idx",
    "index",
    "usize",
    "bits",
    "capacity_hint",
];

/// How a file is classified before rules run.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Crate directory name (`netgraph`, `core`, …), `compat` for the
    /// vendored stubs, or the top-level dir (`tests`, `examples`).
    pub crate_dir: String,
    /// Test/bench/bin/example code: exempt from `D1`/`D2`/`P1`.
    pub is_test_like: bool,
    /// A `src/lib.rs` crate root (gets the `forbid(unsafe_code)` check).
    pub is_lib_root: bool,
}

impl FileInfo {
    /// Classifies a workspace-relative path.
    #[must_use]
    pub fn classify(rel: &str) -> FileInfo {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_dir = match parts.as_slice() {
            ["crates", name, ..] => (*name).to_string(),
            ["compat", ..] => "compat".to_string(),
            [first, ..] => (*first).to_string(),
            [] => String::new(),
        };
        let is_test_like = parts.iter().any(|p| {
            matches!(
                *p,
                "tests" | "benches" | "bin" | "examples" | "fixtures" | "build.rs"
            )
        });
        let is_lib_root = rel.ends_with("src/lib.rs");
        FileInfo {
            rel: rel.to_string(),
            crate_dir,
            is_test_like,
            is_lib_root,
        }
    }
}

/// A parsed `lint:allow` escape.
#[derive(Debug)]
pub(crate) struct Allow {
    pub(crate) rules: Vec<String>,
    /// Lines the escape covers; `None` means the whole file.
    pub(crate) lines: Option<(u32, u32)>,
}

/// Lints one file's source text, returning violations in line order.
#[must_use]
pub fn lint_source(rel: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    let info = FileInfo::classify(rel);
    let lexed = lex(src);
    let tokens = &lexed.tokens;

    let mut out: Vec<Violation> = Vec::new();
    let (allows, mut malformed) = parse_allows(&lexed.comments);
    for v in &mut malformed {
        v.path = info.rel.clone();
    }
    out.append(&mut malformed);

    let test_ranges = test_item_ranges(tokens);
    let dbg_ranges = debug_assert_ranges(tokens);
    let attr_ranges = attribute_ranges(tokens);
    let in_any = |ranges: &[(usize, usize)], i: usize| ranges.iter().any(|&(a, b)| i >= a && i < b);

    let planning =
        |crates: &[&str]| crates.contains(&info.crate_dir.as_str()) && !info.is_test_like;

    for (i, t) in tokens.iter().enumerate() {
        let line = t.line;
        match &t.tok {
            // ---- D1: unordered containers in result-affecting crates.
            Tok::Ident(id)
                if (id == "HashMap" || id == "HashSet")
                    && planning(D1_CRATES)
                    && !in_any(&test_ranges, i) =>
            {
                out.push(Violation {
                    rule: "D1".into(),
                    severity: Severity::Deny,
                    path: info.rel.clone(),
                    line,
                    message: format!(
                        "{id} has nondeterministic iteration order; use BTreeMap/BTreeSet, an \
                         indexed structure, or justify with lint:allow(D1)"
                    ),
                });
            }
            // ---- D2: ambient nondeterminism in planning code.
            Tok::Ident(id)
                if id == "thread_rng" && planning(D2_CRATES) && !in_any(&test_ranges, i) =>
            {
                out.push(d2(&info, line, "thread_rng() draws ambient entropy"));
            }
            Tok::Ident(id)
                if (id == "SystemTime" || id == "Instant")
                    && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::PathSep))
                    && matches!(tokens.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(n)) if n == "now")
                    && planning(D2_CRATES)
                    && !in_any(&test_ranges, i) =>
            {
                out.push(d2(
                    &info,
                    line,
                    &format!("{id}::now() reads the wall clock"),
                ));
            }
            Tok::Ident(id)
                if id == "std"
                    && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::PathSep))
                    && matches!(tokens.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(n)) if n == "env")
                    && planning(D2_CRATES)
                    && !in_any(&test_ranges, i) =>
            {
                out.push(d2(
                    &info,
                    line,
                    "std::env makes behaviour depend on the environment",
                ));
            }
            // ---- P1: panic sites in library crates.
            Tok::Ident(id) if id == "unwrap" || id == "expect" => {
                let method_call = i > 0
                    && tokens[i - 1].tok == Tok::Punct('.')
                    && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
                if method_call
                    && planning(P1_CRATES)
                    && !in_any(&test_ranges, i)
                    && !in_any(&dbg_ranges, i)
                {
                    out.push(Violation {
                        rule: "P1".into(),
                        severity: Severity::Deny,
                        path: info.rel.clone(),
                        line,
                        message: format!(
                            ".{id}() panics on the failure path; return SdnError (or justify the \
                             invariant with lint:allow(P1))"
                        ),
                    });
                }
            }
            Tok::Ident(id)
                if matches!(
                    id.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!')))
                    && planning(P1_CRATES)
                    && !in_any(&test_ranges, i)
                    && !in_any(&dbg_ranges, i) =>
            {
                out.push(Violation {
                    rule: "P1".into(),
                    severity: Severity::Deny,
                    path: info.rel.clone(),
                    line,
                    message: format!(
                        "{id}! aborts a user-reachable path; return SdnError (or justify the \
                         invariant with lint:allow(P1))"
                    ),
                });
            }
            // ---- P1-idx: slice-index expressions (heuristic, warn-level).
            Tok::Punct('[')
                if i > 0
                    && matches!(
                        tokens[i - 1].tok,
                        Tok::Ident(_) | Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?')
                    )
                    && planning(P1_CRATES)
                    && !in_any(&test_ranges, i)
                    && !in_any(&dbg_ranges, i)
                    && !in_any(&attr_ranges, i) =>
            {
                out.push(Violation {
                    rule: "P1-idx".into(),
                    severity: Severity::Deny, // remapped by config below
                    path: info.rel.clone(),
                    line,
                    message: "slice-index expression can panic; prefer .get() on untrusted indices"
                        .into(),
                });
            }
            // ---- U1: unsafe blocks need SAFETY comments.
            Tok::Ident(id) if id == "unsafe" && !in_any(&test_ranges, i) => {
                let documented = lexed.comments.iter().any(|c| {
                    c.text.contains("SAFETY:")
                        && (c.line == line || c.end_line == line || c.end_line + 1 == line)
                });
                if !documented {
                    out.push(Violation {
                        rule: "U1".into(),
                        severity: Severity::Deny,
                        path: info.rel.clone(),
                        line,
                        message: "unsafe without an immediately preceding // SAFETY: comment"
                            .into(),
                    });
                }
            }
            // ---- O1: #[allow(...)] needs a reason comment.
            Tok::Punct('#') => {
                let mut j = i + 1;
                if matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('!'))) {
                    j += 1;
                }
                if matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('[')))
                    && matches!(tokens.get(j + 1).map(|t| &t.tok), Some(Tok::Ident(n)) if n == "allow")
                {
                    // Doc comments (`///`, `//!`, `/**`) don't count: every
                    // documented item would satisfy O1 for free otherwise.
                    let has_reason = lexed.comments.iter().any(|c| {
                        !c.text.trim().is_empty()
                            && !is_doc_comment(&c.text)
                            && ((c.line == line && !c.own_line)
                                || (c.own_line && c.end_line + 1 == line))
                    });
                    if !has_reason {
                        out.push(Violation {
                            rule: "O1".into(),
                            severity: Severity::Deny,
                            path: info.rel.clone(),
                            line,
                            message: "#[allow(...)] without a reason comment on the same line or \
                                      the line above"
                                .into(),
                        });
                    }
                }
            }
            _ => {}
        }
    }

    // ---- T1: tolerance-guarded capacity comparisons (statement level).
    if T1_CRATES.contains(&info.crate_dir.as_str())
        && !info.is_test_like
        && info.rel != T1_EXEMPT_FILE
    {
        t1_tolerance(
            &info,
            tokens,
            &test_ranges,
            &dbg_ranges,
            &attr_ranges,
            &mut out,
        );
    }

    // ---- T1 (ownership): the capacity slack is named in `sdn` alone,
    // test modules included.
    if T1_CRATES.contains(&info.crate_dir.as_str())
        && !info.is_test_like
        && !info.rel.starts_with(T1_EPS_OWNER)
    {
        for t in tokens {
            if matches!(&t.tok, Tok::Ident(id) if id == "CAPACITY_EPS") {
                out.push(Violation {
                    rule: "T1".into(),
                    severity: Severity::Deny,
                    path: info.rel.clone(),
                    line: t.line,
                    message: "CAPACITY_EPS named outside the sdn crate; ask sdn::fits, \
                              Sdn::link_fits or Sdn::server_fits instead"
                        .into(),
                });
            }
        }
    }

    // ---- U1 (crate roots): library crates must forbid unsafe code.
    if info.is_lib_root && !has_forbid_unsafe(tokens) {
        out.push(Violation {
            rule: "U1".into(),
            severity: Severity::Deny,
            path: info.rel.clone(),
            line: 1,
            message: "crate root missing #![forbid(unsafe_code)]".into(),
        });
    }

    // Apply escapes, then config severities (dropping Off, remapping Warn).
    out.retain(|v| !suppressed(&allows, &v.rule, v.line));
    out.retain_mut(|v| match cfg.severity(&v.rule) {
        None => false,
        Some(s) => {
            v.severity = s;
            true
        }
    });
    out.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out
}

/// The `T1` statement pass: within each `;`/`{`/`}`-delimited segment, a
/// raw comparison operator in ledger context (an identifier with a
/// residual/bandwidth/capacity/usable/demand stem, or a magic tolerance
/// literal) must be accompanied by one of the named `sdn::cost` constants
/// or the `can_allocate` predicate.
///
/// Known approximations (documented in DESIGN.md §16): generic argument
/// lists opened by an uppercase-initial identifier are skipped wholesale,
/// comparisons against a literal `0`/`0.0` are treated as sign checks and
/// exempted, and statements mentioning `len`/`count`/`idx`-style
/// identifiers are assumed integral and skipped.
fn t1_tolerance(
    info: &FileInfo,
    tokens: &[Token],
    test_ranges: &[(usize, usize)],
    dbg_ranges: &[(usize, usize)],
    attr_ranges: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    let in_any = |ranges: &[(usize, usize)], i: usize| ranges.iter().any(|&(a, b)| i >= a && i < b);
    let mut seg_start = 0usize;
    let mut i = 0;
    while i <= tokens.len() {
        let boundary = i == tokens.len()
            || matches!(
                tokens[i].tok,
                Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}')
            );
        if !boundary {
            i += 1;
            continue;
        }
        let seg = seg_start..i;
        seg_start = i + 1;
        i += 1;
        if seg.is_empty() {
            continue;
        }
        if let Some(v) = t1_segment(info, tokens, seg.start, seg.end) {
            // The whole segment is exempt when its first token sits in
            // test/debug_assert/attribute territory.
            if !in_any(test_ranges, seg.start)
                && !in_any(dbg_ranges, seg.start)
                && !in_any(attr_ranges, seg.start)
            {
                out.push(v);
            }
        }
    }
}

/// Evaluates one statement segment for `T1`; returns the violation to
/// report, if any.
fn t1_segment(info: &FileInfo, tokens: &[Token], start: usize, end: usize) -> Option<Violation> {
    let mut has_money = false;
    let mut has_guard = false;
    let mut has_int_hint = false;
    let mut has_magic = false;
    for t in &tokens[start..end] {
        match &t.tok {
            Tok::Ident(id) => {
                if T1_GUARDS.contains(&id.as_str()) {
                    has_guard = true;
                }
                let lower = id.to_ascii_lowercase();
                if T1_STEMS.iter().any(|s| lower.contains(s)) {
                    has_money = true;
                }
                if T1_INT_HINTS
                    .iter()
                    .any(|h| lower == *h || lower.ends_with(&format!("_{h}")))
                {
                    has_int_hint = true;
                }
            }
            t @ Tok::Num(_) => {
                if let Some(v) = t.num_value() {
                    if T1_MAGIC.contains(&v) {
                        has_magic = true;
                    }
                }
            }
            _ => {}
        }
    }
    if has_guard || has_int_hint || !(has_money || has_magic) {
        return None;
    }
    let cmp_line = t1_first_comparison(tokens, start, end)?;
    Some(Violation {
        rule: "T1".into(),
        severity: Severity::Deny,
        path: info.rel.clone(),
        line: cmp_line,
        message: if has_magic {
            "raw tolerance literal in a comparison; use the named sdn::cost constants \
             (CAPACITY_EPS, RELEASE_EPS, …) or justify with lint:allow(T1)"
                .into()
        } else {
            "raw float comparison on a capacity/residual quantity; compare through the named \
             sdn::cost tolerance constants or justify with lint:allow(T1)"
                .into()
        },
    })
}

/// Finds the first genuine comparison operator in `[start, end)`, skipping
/// shifts, arrows, turbofish, and generic argument groups opened by an
/// uppercase-initial identifier. Comparisons whose immediate operand is a
/// literal zero are treated as sign checks and skipped.
fn t1_first_comparison(tokens: &[Token], start: usize, end: usize) -> Option<u32> {
    let is_zero = |idx: usize| -> bool {
        tokens
            .get(idx)
            .and_then(|t| t.tok.num_value())
            .is_some_and(|v| v == 0.0)
    };
    let mut k = start;
    while k < end {
        match &tokens[k].tok {
            // `Vec<...>` generic arguments and `sum::<f64>` turbofish:
            // skip the balanced group so the closing `>` is consumed too.
            Tok::Punct('<')
                if k > start
                    && (matches!(tokens[k - 1].tok, Tok::PathSep)
                        || matches!(&tokens[k - 1].tok, Tok::Ident(id)
                            if id.chars().next().is_some_and(char::is_uppercase))) =>
            {
                let mut depth = 0usize;
                while k < end {
                    match &tokens[k].tok {
                        Tok::Punct('<') => depth += 1,
                        Tok::Punct('>') if !matches!(tokens[k - 1].tok, Tok::Punct('-')) => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            Tok::Punct(c @ ('<' | '>')) => {
                let prev = k.checked_sub(1).map(|p| &tokens[p].tok);
                let next = tokens.get(k + 1).map(|t| &t.tok);
                let shift = prev == Some(&Tok::Punct(*c)) || next == Some(&Tok::Punct(*c));
                let arrow =
                    *c == '>' && matches!(prev, Some(Tok::Punct('-')) | Some(Tok::Punct('=')));
                let turbofish = matches!(prev, Some(Tok::PathSep));
                if !shift && !arrow && !turbofish {
                    let two = next == Some(&Tok::Punct('='));
                    let rhs = if two { k + 2 } else { k + 1 };
                    let lhs = k.wrapping_sub(1);
                    if !is_zero(rhs) && !is_zero(lhs) {
                        return Some(tokens[k].line);
                    }
                }
            }
            Tok::Punct(c @ ('=' | '!')) => {
                // `==` / `!=`; plain `=` assignment and `!` negation skip.
                let prev = k.checked_sub(1).map(|p| &tokens[p].tok);
                let next = tokens.get(k + 1).map(|t| &t.tok);
                let eq = next == Some(&Tok::Punct('='))
                    && prev != Some(&Tok::Punct('='))
                    && (*c == '!' || !matches!(prev, Some(Tok::Punct('<' | '>' | '=' | '!'))));
                if eq {
                    let rhs = k + 2;
                    let lhs = k.wrapping_sub(1);
                    if !is_zero(rhs) && !is_zero(lhs) {
                        return Some(tokens[k].line);
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

fn d2(info: &FileInfo, line: u32, what: &str) -> Violation {
    Violation {
        rule: "D2".into(),
        severity: Severity::Deny,
        path: info.rel.clone(),
        line,
        message: format!(
            "{what}; planning code must be a pure function of its inputs (lint:allow(D2) to \
             justify)"
        ),
    }
}

/// `true` for `///`, `//!`, and `/**` comments (their text starts with
/// the extra marker character after the lexer strips `//`/`/*`).
pub(crate) fn is_doc_comment(text: &str) -> bool {
    text.starts_with('/') || text.starts_with('!') || text.starts_with('*')
}

pub(crate) fn suppressed(allows: &[Allow], rule: &str, line: u32) -> bool {
    allows.iter().any(|a| {
        a.rules.iter().any(|r| r == rule)
            && match a.lines {
                None => true,
                Some((lo, hi)) => line >= lo && line <= hi,
            }
    })
}

/// Parses `lint:allow` / `lint:allow-file` escapes out of the comments;
/// malformed escapes (no rule list, empty reason) become `A1` violations.
///
/// A per-site escape covers its own comment run (consecutive own-line
/// comments form one run, so a justification may wrap) plus the first
/// code line after it; a trailing escape covers its own line.
pub(crate) fn parse_allows(comments: &[Comment]) -> (Vec<Allow>, Vec<Violation>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    // End line of the comment run each comment belongs to.
    let mut run_end: Vec<u32> = comments.iter().map(|c| c.end_line).collect();
    for i in (0..comments.len().saturating_sub(1)).rev() {
        if comments[i].own_line
            && comments[i + 1].own_line
            && comments[i + 1].line == comments[i].end_line + 1
        {
            run_end[i] = run_end[i + 1];
        }
    }
    for (ci, c) in comments.iter().enumerate() {
        // Doc comments never carry escapes: rustdoc prose legitimately
        // *mentions* the marker syntax (this crate's own docs do).
        if is_doc_comment(&c.text) {
            continue;
        }
        for (marker, file_wide) in [("lint:allow-file(", true), ("lint:allow(", false)] {
            let Some(start) = c.text.find(marker) else {
                continue;
            };
            let rest = &c.text[start + marker.len()..];
            let parsed = rest.find(')').and_then(|close| {
                let rules: Vec<String> = rest[..close]
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect();
                let after = rest[close + 1..].trim_start();
                let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
                if rules.is_empty() || reason.is_empty() {
                    None
                } else {
                    Some(rules)
                }
            });
            match parsed {
                Some(rules) => allows.push(Allow {
                    rules,
                    lines: if file_wide {
                        None
                    } else if c.own_line {
                        Some((c.line, run_end[ci] + 1))
                    } else {
                        Some((c.line, c.end_line))
                    },
                }),
                None => bad.push(Violation {
                    rule: "A1".into(),
                    severity: Severity::Deny,
                    path: String::new(), // filled in by lint_source
                    line: c.line,
                    message: format!("malformed {marker}...) escape: need `{marker}RULE): reason`"),
                }),
            }
            break; // allow-file match subsumes the allow( substring
        }
    }
    (allows, bad)
}

fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    let mut saw_forbid = false;
    for t in tokens {
        match &t.tok {
            Tok::Ident(id) if id == "forbid" || id == "deny" => saw_forbid = true,
            Tok::Ident(id) if id == "unsafe_code" && saw_forbid => return true,
            _ => {}
        }
    }
    false
}

/// Token ranges of items guarded by a test-ish attribute: `#[test]`,
/// `#[cfg(test)] mod/fn/...`. An attribute counts as test-ish when it
/// mentions the `test` identifier and does not mention `not` (so
/// `#[cfg(not(test))]` code is still linted).
pub(crate) fn test_item_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some((attr_end, testish)) = parse_attribute(tokens, i) {
            if testish {
                // Skip any further attributes, then the guarded item.
                let mut j = attr_end;
                while let Some((next_end, _)) = parse_attribute(tokens, j) {
                    j = next_end;
                }
                let end = item_end(tokens, j);
                ranges.push((i, end));
                i = end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    ranges
}

/// If an attribute starts at `i`, returns `(end_index, is_testish)`.
fn parse_attribute(tokens: &[Token], i: usize) -> Option<(usize, bool)> {
    if !matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct('#'))) {
        return None;
    }
    let mut j = i + 1;
    if matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('!'))) {
        j += 1;
    }
    if !matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('['))) {
        return None;
    }
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_not = false;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some((j + 1, has_test && !has_not));
                }
            }
            Tok::Ident(id) if id == "test" => has_test = true,
            Tok::Ident(id) if id == "not" => has_not = true,
            _ => {}
        }
        j += 1;
    }
    None
}

/// End (exclusive) of the item starting at `i`: the matching `}` of its
/// first brace block, or the first top-level `;`.
pub(crate) fn item_end(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    let mut depth = 0usize;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            Tok::Punct(';') if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Token ranges of `debug_assert*!(...)` invocations (their interiors are
/// exempt from `P1`: they compile out of release builds).
pub(crate) fn debug_assert_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_dbg = matches!(&tokens[i].tok, Tok::Ident(id) if id.starts_with("debug_assert"))
            && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!')));
        if is_dbg {
            let end = macro_end(tokens, i + 2);
            ranges.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    ranges
}

/// Token ranges of attributes `#[...]` / `#![...]` (exempt from `P1-idx`).
fn attribute_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some((end, _)) = parse_attribute(tokens, i) {
            ranges.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    ranges
}

/// End (exclusive) of a macro argument list starting at its opening
/// delimiter index.
fn macro_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}
