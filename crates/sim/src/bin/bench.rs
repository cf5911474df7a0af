//! Hot-path benchmark snapshot: `cargo run -p sim --release --bin bench
//! [quick|full|scale|pipeline] [--check]`.
//!
//! The default mode times the `Appro_Multi` combination scan — pruned +
//! warm scratch vs. the unpruned audit scan — on the paper's Fig. 5
//! configuration (250-switch Waxman network, `K = 3`, one sweep per
//! `D_max/|V|` ratio), plus Mehlhorn vs. KMB on the same topology, and
//! writes the measurements to `BENCH_2.json` (hand-rolled JSON; the
//! workspace has no serde_json).
//!
//! `scale` instead benchmarks the landmark-oracle layer on a 5 120-node
//! fat-tree: `Online_CP` with the oracle-ordered lazy candidate scan vs.
//! the exact scan (asserting byte-identical admissions along the way),
//! plus oracle-seeded vs. plain `Appro_Multi` through a bounded
//! [`PathCache`], writing `BENCH_3.json` with the headline
//! `oracle_speedup` ratio. Both scans share one terminal-SPT bank per
//! admission, so the ratio measures ALT pruning alone; the run also
//! counts the exact scan's Dijkstra runs against the anchor bound
//! `Σ (1 + |D_k|)`: one run per source and destination, none per server.
//!
//! `pipeline` benchmarks the streaming admission daemon: sustained
//! decisions/sec for the sequential loop, the `admit_batch` wave barrier,
//! and [`AdmissionPipeline`] on the same closed workloads (fig5-scale
//! Waxman and the 5 120-node fat-tree), asserting byte-identical
//! decisions across all three inside the binary and writing `BENCH_4.json`
//! with the headline `pipeline_speedup` (batch wall-clock over pipeline
//! wall-clock on the fat-tree row).
//!
//! With `--check`, the committed snapshot is read *first* and the run
//! fails (exit 1) if the freshly measured speedup regressed by more than
//! 25% against the committed baseline — the CI `bench-smoke` /
//! `scale-smoke` gates. (`scale --check` additionally requires the exact
//! scan's Dijkstra runs to stay within the anchor bound.) Speedup
//! ratios and work counts, not absolute times, are compared, so the gates
//! are robust to slow CI machines.

use nfv_engine::{admit_batch, admit_sequential, AdmissionPipeline, EngineConfig, PipelineConfig};
use nfv_multicast::{
    appro_multi_cached, appro_multi_unpruned, appro_multi_with_scratch, ApproScratch, PathCache,
    PathCacheOptions,
};
use nfv_online::{OnlineAlgorithm, OnlineCp, TimedRequest};
use sim::{ba_sdn, fat_tree_sdn, mean, metro_sdn, time_it, waxman_sdn};
use std::fmt::Write as _;
use workload::RequestGenerator;

const N: usize = 250;
const K: usize = 3;
const RATIOS: [f64; 3] = [0.10, 0.15, 0.20];
/// Committed-baseline path, relative to the repo root (the working
/// directory of `cargo run`).
const SNAPSHOT: &str = "BENCH_2.json";
/// A run fails `--check` when its speedup drops below `baseline / 1.25`.
const MAX_REGRESSION: f64 = 1.25;

struct RatioPoint {
    ratio: f64,
    pruned_ms: f64,
    unpruned_ms: f64,
}

fn run_hot_sweep(requests_per_ratio: usize) -> Vec<RatioPoint> {
    use rand::SeedableRng;
    let sdn = waxman_sdn(N, 0);
    let mut points = Vec::new();
    for &ratio in &RATIOS {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut gen = RequestGenerator::new(N).with_dmax_ratio(ratio);
        let requests = gen.generate_batch(requests_per_ratio, &mut rng);
        let mut scratch = ApproScratch::new();
        let mut pruned_ms = Vec::new();
        let mut unpruned_ms = Vec::new();
        for req in &requests {
            let (fast, t_fast) = time_it(|| appro_multi_with_scratch(&sdn, req, K, &mut scratch));
            let (slow, t_slow) = time_it(|| appro_multi_unpruned(&sdn, req, K));
            assert_eq!(fast, slow, "pruned and unpruned scans diverged");
            pruned_ms.push(t_fast);
            unpruned_ms.push(t_slow);
        }
        points.push(RatioPoint {
            ratio,
            pruned_ms: mean(&pruned_ms),
            unpruned_ms: mean(&unpruned_ms),
        });
    }
    points
}

fn run_steiner_point() -> (f64, f64) {
    let sdn = waxman_sdn(N, 0);
    let g = sdn.graph();
    let terms: Vec<netgraph::NodeId> = (0..25).map(|i| netgraph::NodeId::new(i * 10)).collect();
    // Warm up, then average a few runs of each routine.
    let mut m_ms = Vec::new();
    let mut k_ms = Vec::new();
    for _ in 0..5 {
        let (mt, t) = time_it(|| steiner::mehlhorn(g, &terms).expect("connected"));
        m_ms.push(t);
        let (kt, t) = time_it(|| steiner::kmb(g, &terms).expect("connected"));
        k_ms.push(t);
        assert!(mt.cost() <= 2.0 * kt.cost() + 1e-6 && kt.cost() <= 2.0 * mt.cost() + 1e-6);
    }
    (mean(&m_ms), mean(&k_ms))
}

fn render_json(
    mode: &str,
    requests_per_ratio: usize,
    points: &[RatioPoint],
    mehlhorn_ms: f64,
    kmb_ms: f64,
) -> String {
    let pruned_total: f64 = points.iter().map(|p| p.pruned_ms).sum();
    let unpruned_total: f64 = points.iter().map(|p| p.unpruned_ms).sum();
    let hot_speedup = unpruned_total / pruned_total;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"bench-v2\",");
    let _ = writeln!(
        out,
        "  \"config\": {{ \"n\": {N}, \"k\": {K}, \"mode\": \"{mode}\", \"requests_per_ratio\": {requests_per_ratio} }},"
    );
    let _ = writeln!(out, "  \"hot_speedup\": {hot_speedup:.4},");
    out.push_str("  \"appro_multi_hot\": {\n    \"per_ratio\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{ \"ratio\": {:.2}, \"pruned_ms\": {:.3}, \"unpruned_ms\": {:.3}, \"speedup\": {:.4} }}{comma}",
            p.ratio,
            p.pruned_ms,
            p.unpruned_ms,
            p.unpruned_ms / p.pruned_ms
        );
    }
    out.push_str("    ],\n");
    let _ = writeln!(out, "    \"pruned_total_ms\": {pruned_total:.3},");
    let _ = writeln!(out, "    \"unpruned_total_ms\": {unpruned_total:.3}");
    out.push_str("  },\n");
    let _ = writeln!(
        out,
        "  \"mehlhorn_vs_kmb\": {{ \"n\": {N}, \"terminals\": 25, \"mehlhorn_ms\": {mehlhorn_ms:.3}, \"kmb_ms\": {kmb_ms:.3}, \"speedup\": {:.4} }}",
        kmb_ms / mehlhorn_ms
    );
    out.push_str("}\n");
    out
}

/// Extracts a top-level numeric `"key": value` from a committed snapshot
/// without a JSON parser dependency.
fn parse_numeric_key(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = json.get(start..)?;
    let end = rest.find([',', '\n', '}'])?;
    rest.get(..end)?.trim().parse().ok()
}

fn parse_hot_speedup(json: &str) -> Option<f64> {
    parse_numeric_key(json, "hot_speedup")
}

// ---------------------------------------------------------------------------
// `scale` mode: the landmark-oracle layer at 5k nodes.
// ---------------------------------------------------------------------------

/// Committed scaling baseline, relative to the repo root.
const SCALE_SNAPSHOT: &str = "BENCH_3.json";
/// Fat-tree radix: `k = 64` gives `k²/4 + k² = 5 120` nodes.
const SCALE_K: usize = 64;
const SCALE_SERVERS: usize = 32;
const SCALE_LANDMARKS: usize = 8;
const SCALE_ONLINE_REQUESTS: usize = 6;
const SCALE_APPRO_REQUESTS: usize = 3;

struct OnlineScalePoint {
    exact_total_ms: f64,
    oracle_total_ms: f64,
    admitted: usize,
    requests: usize,
    pruned_candidates: u64,
    /// Dijkstra runs the exact scan made.
    exact_dijkstra_runs: u64,
    /// `Σ (1 + |D_k|)` over the requests: the most Dijkstra runs the exact
    /// scan may make. Each admission shares one shortest-path tree per
    /// anchor terminal across its candidates and, with the server as
    /// KMB's last terminal, builds none per server. `scale --check` fails
    /// above it, a work count that holds on any host.
    anchor_dijkstra_bound: u64,
}

/// Runs the same request sequence through the exact and the
/// oracle-ordered `Online_CP` scans on clones of one network, asserting
/// byte-identical decisions request by request.
fn run_scale_online(sdn: &sdn::Sdn, requests: &[sdn::MulticastRequest]) -> OnlineScalePoint {
    let mut exact_net = sdn.clone();
    let mut oracle_net = sdn.clone();
    let mut exact = OnlineCp::new();
    let mut fast = OnlineCp::new().with_oracle(SCALE_LANDMARKS);
    let pruned_before = telemetry::counter_value(telemetry::Counter::OnlineCandidatesPruned);
    let mut exact_total_ms = 0.0;
    let mut oracle_total_ms = 0.0;
    let mut admitted = 0;
    let mut exact_dijkstra_runs = 0;
    let mut anchor_dijkstra_bound = 0;
    for req in requests {
        anchor_dijkstra_bound += 1 + req.destinations.len() as u64;
        let runs_before = telemetry::counter_value(telemetry::Counter::DijkstraRuns);
        let (slow, t_slow) = time_it(|| exact.admit(&exact_net, req));
        exact_dijkstra_runs +=
            telemetry::counter_value(telemetry::Counter::DijkstraRuns) - runs_before;
        let (fast_tree, t_fast) = time_it(|| fast.admit(&oracle_net, req));
        assert_eq!(
            slow, fast_tree,
            "oracle scan diverged from the exact scan on request {}",
            req.id
        );
        exact_total_ms += t_slow;
        oracle_total_ms += t_fast;
        if let (Some(a), Some(b)) = (slow, fast_tree) {
            exact_net
                .allocate(&a.allocation(req))
                .expect("admitted tree allocates");
            oracle_net
                .allocate(&b.allocation(req))
                .expect("admitted tree allocates");
            admitted += 1;
        }
    }
    OnlineScalePoint {
        exact_total_ms,
        oracle_total_ms,
        admitted,
        requests: requests.len(),
        pruned_candidates: telemetry::counter_value(telemetry::Counter::OnlineCandidatesPruned)
            - pruned_before,
        exact_dijkstra_runs,
        anchor_dijkstra_bound,
    }
}

struct ApproScalePoint {
    plain_total_ms: f64,
    seeded_total_ms: f64,
    requests: usize,
    spt_hits: u64,
    spt_misses: u64,
    spt_evictions: u64,
}

/// Plans the same requests twice (cold + warm pass) through a plain
/// unbounded [`PathCache`] and through a bounded, oracle-seeded one,
/// asserting identical plans everywhere.
fn run_scale_appro(sdn: &sdn::Sdn, requests: &[sdn::MulticastRequest]) -> ApproScalePoint {
    let mut plain = PathCache::new(sdn);
    let mut plain_total_ms = 0.0;
    let mut reference = Vec::new();
    for pass in 0..2 {
        for req in requests {
            let (tree, t) = time_it(|| appro_multi_cached(sdn, req, 1, &mut plain));
            plain_total_ms += t;
            if pass == 0 {
                reference.push(tree);
            }
        }
    }

    let hits_before = telemetry::counter_value(telemetry::Counter::SptCacheHits);
    let misses_before = telemetry::counter_value(telemetry::Counter::SptCacheMisses);
    let mut seeded = PathCache::with_options(
        sdn,
        PathCacheOptions {
            capacity: Some(64),
            landmarks: SCALE_LANDMARKS,
        },
    );
    let mut seeded_total_ms = 0.0;
    for _ in 0..2 {
        for (req, expected) in requests.iter().zip(&reference) {
            let (tree, t) = time_it(|| appro_multi_cached(sdn, req, 1, &mut seeded));
            seeded_total_ms += t;
            assert_eq!(
                &tree, expected,
                "oracle-seeded plan diverged from the plain plan on request {}",
                req.id
            );
        }
    }
    ApproScalePoint {
        plain_total_ms,
        seeded_total_ms,
        requests: requests.len(),
        spt_hits: telemetry::counter_value(telemetry::Counter::SptCacheHits) - hits_before,
        spt_misses: telemetry::counter_value(telemetry::Counter::SptCacheMisses) - misses_before,
        spt_evictions: seeded.spt_evictions(),
    }
}

/// One auxiliary topology family benchmarked by `scale` alongside the
/// fat-tree gate row: the oracle-ordered vs. exact `Online_CP` scan on a
/// structurally different network shape.
struct TopoScalePoint {
    label: &'static str,
    n: usize,
    point: OnlineScalePoint,
}

/// Runs the oracle-vs-exact comparison on the Barabási–Albert and
/// metro-ring families (~4k nodes each): hub-dominated and sparse
/// high-diameter shapes the fat-tree row cannot represent. Informational
/// rows — the `--check` gate stays on the fat-tree `oracle_speedup`.
fn run_scale_topologies() -> Vec<TopoScalePoint> {
    use rand::SeedableRng;
    let mut rows = Vec::new();
    for (label, sdn) in [
        ("barabasi_albert", ba_sdn(4_096, SCALE_SERVERS, 0)),
        ("metro_rings", metro_sdn(64, 64, SCALE_SERVERS, 0)),
    ] {
        let n = sdn.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut gen = RequestGenerator::new(n).with_dmax_ratio(0.001);
        let requests = gen.generate_batch(4, &mut rng);
        let point = run_scale_online(&sdn, &requests);
        assert!(point.admitted > 0, "{label} fixture admits nothing");
        println!(
            "  {label:>16} (n={n}): exact {:8.1} ms  oracle {:8.1} ms  speedup {:.2}x  ({}/{} admitted)",
            point.exact_total_ms,
            point.oracle_total_ms,
            point.exact_total_ms / point.oracle_total_ms,
            point.admitted,
            point.requests
        );
        rows.push(TopoScalePoint { label, n, point });
    }
    rows
}

fn render_scale_json(
    n: usize,
    online: &OnlineScalePoint,
    appro: &ApproScalePoint,
    topologies: &[TopoScalePoint],
) -> String {
    let oracle_speedup = online.exact_total_ms / online.oracle_total_ms;
    let hit_rate = if appro.spt_hits + appro.spt_misses > 0 {
        appro.spt_hits as f64 / (appro.spt_hits + appro.spt_misses) as f64
    } else {
        0.0
    };
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"bench-v3-scale\",");
    let _ = writeln!(
        out,
        "  \"config\": {{ \"fat_tree_k\": {SCALE_K}, \"n\": {n}, \"servers\": {SCALE_SERVERS}, \"landmarks\": {SCALE_LANDMARKS}, \"online_requests\": {}, \"appro_requests\": {} }},",
        online.requests, appro.requests
    );
    let _ = writeln!(out, "  \"oracle_speedup\": {oracle_speedup:.4},");
    let _ = writeln!(
        out,
        "  \"online\": {{ \"exact_total_ms\": {:.3}, \"oracle_total_ms\": {:.3}, \"admitted\": {}, \"pruned_candidates\": {}, \"exact_dijkstra_runs\": {}, \"anchor_dijkstra_bound\": {} }},",
        online.exact_total_ms,
        online.oracle_total_ms,
        online.admitted,
        online.pruned_candidates,
        online.exact_dijkstra_runs,
        online.anchor_dijkstra_bound
    );
    let _ = writeln!(
        out,
        "  \"appro\": {{ \"plain_total_ms\": {:.3}, \"seeded_total_ms\": {:.3}, \"seeded_speedup\": {:.4} }},",
        appro.plain_total_ms,
        appro.seeded_total_ms,
        appro.plain_total_ms / appro.seeded_total_ms
    );
    let _ = writeln!(
        out,
        "  \"spt_cache\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {hit_rate:.4}, \"evictions\": {} }},",
        appro.spt_hits, appro.spt_misses, appro.spt_evictions
    );
    out.push_str("  \"topologies\": [\n");
    for (i, row) in topologies.iter().enumerate() {
        let comma = if i + 1 < topologies.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{ \"label\": \"{}\", \"n\": {}, \"exact_total_ms\": {:.3}, \"oracle_total_ms\": {:.3}, \"speedup\": {:.4}, \"admitted\": {}, \"requests\": {} }}{comma}",
            row.label,
            row.n,
            row.point.exact_total_ms,
            row.point.oracle_total_ms,
            row.point.exact_total_ms / row.point.oracle_total_ms,
            row.point.admitted,
            row.point.requests
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn run_scale(check: bool) {
    telemetry::enable();
    // `NFV_SCALE_K` overrides the fat-tree radix for manual scaling
    // sweeps (the EXPERIMENTS.md table). Override runs print
    // measurements but never touch BENCH_3.json, and the CI gate always
    // runs at the committed default.
    let k_override: Option<usize> = std::env::var("NFV_SCALE_K")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&k| k != SCALE_K);
    let fat_tree_k = k_override.unwrap_or(SCALE_K);
    assert!(
        !(check && k_override.is_some()),
        "--check compares against the committed baseline and cannot run with NFV_SCALE_K"
    );
    let baseline = if check {
        let json = std::fs::read_to_string(SCALE_SNAPSHOT)
            .unwrap_or_else(|e| panic!("--check needs a committed {SCALE_SNAPSHOT}: {e}"));
        let b = parse_numeric_key(&json, "oracle_speedup")
            .expect("baseline has an oracle_speedup field");
        println!("baseline oracle_speedup: {b:.2}x");
        Some(b)
    } else {
        None
    };

    let (sdn, build_ms) = time_it(|| fat_tree_sdn(fat_tree_k, SCALE_SERVERS, 0));
    let n = sdn.node_count();
    println!(
        "bench: scale, fat-tree k={fat_tree_k} (n={n}, built in {build_ms:.1} ms), \
         {SCALE_SERVERS} servers, {SCALE_LANDMARKS} landmarks"
    );

    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut gen = RequestGenerator::new(n).with_dmax_ratio(0.001);
    let online_reqs = gen.generate_batch(SCALE_ONLINE_REQUESTS, &mut rng);
    let appro_reqs = gen.generate_batch(SCALE_APPRO_REQUESTS, &mut rng);

    let online = run_scale_online(&sdn, &online_reqs);
    assert!(online.admitted > 0, "scale fixture admits nothing");
    println!(
        "  online: exact {:8.1} ms  oracle {:8.1} ms  speedup {:.2}x  \
         ({}/{} admitted, {} candidates pruned)",
        online.exact_total_ms,
        online.oracle_total_ms,
        online.exact_total_ms / online.oracle_total_ms,
        online.admitted,
        online.requests,
        online.pruned_candidates
    );
    println!(
        "  exact-scan Dijkstras: {} (anchor bound {})",
        online.exact_dijkstra_runs, online.anchor_dijkstra_bound
    );

    let appro = run_scale_appro(&sdn, &appro_reqs);
    println!(
        "  appro:  plain {:8.1} ms  seeded {:8.1} ms  speedup {:.2}x  \
         (spt cache: {} hits / {} misses / {} evictions)",
        appro.plain_total_ms,
        appro.seeded_total_ms,
        appro.plain_total_ms / appro.seeded_total_ms,
        appro.spt_hits,
        appro.spt_misses,
        appro.spt_evictions
    );

    let topologies = run_scale_topologies();

    let json = render_scale_json(n, &online, &appro, &topologies);
    let oracle_speedup = parse_numeric_key(&json, "oracle_speedup").expect("own JSON is parseable");
    println!("oracle_speedup: {oracle_speedup:.2}x");

    if k_override.is_some() {
        println!("(NFV_SCALE_K sweep run: snapshot not written)");
        return;
    }
    if let Some(baseline) = baseline {
        std::fs::write("BENCH_3.new.json", &json).expect("write BENCH_3.new.json");
        let floor = baseline / MAX_REGRESSION;
        let mut failed = false;
        if oracle_speedup < floor {
            eprintln!(
                "FAIL: oracle_speedup {oracle_speedup:.2}x below {floor:.2}x \
                 (baseline {baseline:.2}x / {MAX_REGRESSION})"
            );
            failed = true;
        }
        if online.exact_dijkstra_runs > online.anchor_dijkstra_bound {
            eprintln!(
                "FAIL: the exact scan ran {} Dijkstras, above the anchor bound {}",
                online.exact_dijkstra_runs, online.anchor_dijkstra_bound
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "OK: within 25% of the committed baseline ({baseline:.2}x) and within the \
             anchor Dijkstra bound"
        );
    } else {
        std::fs::write(SCALE_SNAPSHOT, &json).expect("write BENCH_3.json");
        println!("wrote {SCALE_SNAPSHOT}");
    }
}

// ---------------------------------------------------------------------------
// `pipeline` mode: streaming admission throughput, gated on BENCH_4.json.
// ---------------------------------------------------------------------------

/// Committed streaming-throughput baseline, relative to the repo root.
const PIPE_SNAPSHOT: &str = "BENCH_4.json";
/// `pipeline --check` fails outright when the pipeline is not at least
/// this much faster than the `admit_batch` wave barrier on the fat-tree
/// row, however low the committed baseline drifts.
const PIPE_FLOOR: f64 = 1.5;
/// Worker threads for both the batch baseline and the pipeline
/// (`NFV_PIPELINE_WORKERS` overrides for manual sweeps; override runs
/// never touch the snapshot). The batch engine gets the same explicit
/// count so the comparison is wave barrier vs. pipeline, not threaded
/// vs. sequential.
const PIPE_WORKERS: usize = 4;
const PIPE_WINDOW: usize = 6;
const PIPE_REFRESH: usize = 6;
/// Requests in the fig5-scale row (uncontended regime).
const PIPE_FIG5_REQUESTS: usize = 64;
/// Requests in the n=5120 fat-tree gate row (contended regime).
const PIPE_SCALE_REQUESTS: usize = 40;

/// One workload row: the same closed request sequence admitted three
/// ways, with byte-identical decisions asserted along the way.
struct PipelinePoint {
    label: &'static str,
    n: usize,
    k: usize,
    requests: usize,
    sequential_ms: f64,
    batch_ms: f64,
    pipeline_ms: f64,
    admitted: usize,
    batch_replanned: usize,
    pipe_hits: usize,
    pipe_replanned: usize,
    stalls: u64,
    snapshots: u64,
}

impl PipelinePoint {
    /// Requests decided per second of wall-clock, for one of the columns.
    fn rps(&self, total_ms: f64) -> f64 {
        self.requests as f64 / (total_ms / 1_000.0)
    }
}

/// Admits `requests` sequentially, through the wave-barrier batch engine,
/// and through the streaming pipeline (arrivals one second apart, holding
/// times effectively infinite so the closed workloads match), asserting
/// byte-identical decisions and residual state across all three.
fn run_pipeline_point(
    label: &'static str,
    sdn: &sdn::Sdn,
    requests: &[sdn::MulticastRequest],
    k: usize,
    workers: usize,
) -> PipelinePoint {
    let mut seq_net = sdn.clone();
    let (seq, sequential_ms) = time_it(|| admit_sequential(&mut seq_net, requests, k));

    let mut batch_net = sdn.clone();
    let config = EngineConfig::new(k).with_workers(workers);
    let ((batch, batch_report), batch_ms) =
        time_it(|| admit_batch(&mut batch_net, requests, &config));
    assert_eq!(seq, batch, "{label}: batch decisions diverged");
    assert_eq!(seq_net, batch_net, "{label}: batch residual state diverged");

    let stream: Vec<TimedRequest> = requests
        .iter()
        .enumerate()
        .map(|(i, req)| TimedRequest::new(req.clone(), i as f64, f64::MAX))
        .collect();
    let pipe_net = sdn.clone();
    let pipe_cfg = PipelineConfig::new(k)
        .with_workers(workers)
        .with_window(PIPE_WINDOW)
        .with_refresh(PIPE_REFRESH);
    let (out, pipeline_ms) = time_it(move || {
        let mut pipeline = AdmissionPipeline::launch(pipe_net, pipe_cfg);
        for tr in stream {
            pipeline.push(tr);
        }
        pipeline.finish()
    });
    assert_eq!(seq, out.decisions, "{label}: pipeline decisions diverged");
    assert_eq!(
        seq_net, out.sdn,
        "{label}: pipeline residual state diverged"
    );

    PipelinePoint {
        label,
        n: sdn.node_count(),
        k,
        requests: requests.len(),
        sequential_ms,
        batch_ms,
        pipeline_ms,
        admitted: out.report.admitted,
        batch_replanned: batch_report.replanned,
        pipe_hits: out.report.speculative_hits,
        pipe_replanned: out.report.replanned,
        stalls: out.report.stalls,
        snapshots: out.report.snapshots_published,
    }
}

fn print_pipeline_point(p: &PipelinePoint) {
    println!(
        "  {:>14} (n={}, k={}, {} requests): seq {:8.1} ms  batch {:8.1} ms  pipeline {:8.1} ms",
        p.label, p.n, p.k, p.requests, p.sequential_ms, p.batch_ms, p.pipeline_ms
    );
    println!(
        "  {:>14}  {:6.1} / {:6.1} / {:6.1} decisions/s  speedup vs batch {:.2}x  \
         ({} admitted, batch replans {}, pipeline {} hits + {} replans, {} stalls, {} snapshots)",
        "",
        p.rps(p.sequential_ms),
        p.rps(p.batch_ms),
        p.rps(p.pipeline_ms),
        p.batch_ms / p.pipeline_ms,
        p.admitted,
        p.batch_replanned,
        p.pipe_hits,
        p.pipe_replanned,
        p.stalls,
        p.snapshots
    );
}

fn render_pipeline_json(workers: usize, points: &[PipelinePoint]) -> String {
    // The gate ratio comes from the last (fat-tree) row: the contended
    // regime where the wave barrier pays for its deferred suffixes.
    let gate = points.last().expect("at least one pipeline row");
    let pipeline_speedup = gate.batch_ms / gate.pipeline_ms;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"bench-v4-pipeline\",");
    let _ = writeln!(
        out,
        "  \"config\": {{ \"workers\": {workers}, \"window\": {PIPE_WINDOW}, \"refresh\": {PIPE_REFRESH} }},"
    );
    let _ = writeln!(out, "  \"pipeline_speedup\": {pipeline_speedup:.4},");
    out.push_str("  \"rows\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{ \"label\": \"{}\", \"n\": {}, \"k\": {}, \"requests\": {},\n      \
             \"sequential_ms\": {:.3}, \"batch_ms\": {:.3}, \"pipeline_ms\": {:.3},\n      \
             \"sequential_rps\": {:.2}, \"batch_rps\": {:.2}, \"pipeline_rps\": {:.2},\n      \
             \"speedup_vs_batch\": {:.4}, \"admitted\": {}, \"batch_replanned\": {},\n      \
             \"pipeline_speculative_hits\": {}, \"pipeline_replanned\": {}, \"stalls\": {}, \"snapshots\": {} }}{comma}",
            p.label,
            p.n,
            p.k,
            p.requests,
            p.sequential_ms,
            p.batch_ms,
            p.pipeline_ms,
            p.rps(p.sequential_ms),
            p.rps(p.batch_ms),
            p.rps(p.pipeline_ms),
            p.batch_ms / p.pipeline_ms,
            p.admitted,
            p.batch_replanned,
            p.pipe_hits,
            p.pipe_replanned,
            p.stalls,
            p.snapshots
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_pipeline(check: bool) {
    telemetry::enable();
    // Any set NFV_PIPELINE_WORKERS is an override — even the default
    // worker count — so override runs never write the snapshot and
    // --check always refuses the env var. Junk values fail loudly
    // instead of silently running the gated configuration.
    let workers_override: Option<usize> = std::env::var("NFV_PIPELINE_WORKERS").ok().map(|v| {
        v.parse::<usize>()
            .ok()
            .filter(|&w| w > 0)
            .unwrap_or_else(|| panic!("NFV_PIPELINE_WORKERS must be a positive integer, got {v:?}"))
    });
    assert!(
        !(check && workers_override.is_some()),
        "--check compares against the committed baseline and cannot run with NFV_PIPELINE_WORKERS"
    );
    let workers = workers_override.unwrap_or(PIPE_WORKERS);
    let baseline = if check {
        let json = std::fs::read_to_string(PIPE_SNAPSHOT)
            .unwrap_or_else(|e| panic!("--check needs a committed {PIPE_SNAPSHOT}: {e}"));
        let b = parse_numeric_key(&json, "pipeline_speedup")
            .expect("baseline has a pipeline_speedup field");
        println!("baseline pipeline_speedup: {b:.2}x");
        Some(b)
    } else {
        None
    };

    use rand::SeedableRng;
    println!("bench: pipeline, {workers} workers, window {PIPE_WINDOW}, refresh {PIPE_REFRESH}");

    // Fig. 5 scale: the paper's 250-switch Waxman setting with stock
    // demands — the uncontended regime, where the pipeline must merely
    // not lose to the wave barrier.
    let wax = waxman_sdn(N, 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut gen = RequestGenerator::new(N).with_dmax_ratio(0.15);
    let wax_reqs = gen.generate_batch(PIPE_FIG5_REQUESTS, &mut rng);
    let wax_point = run_pipeline_point("waxman_fig5", &wax, &wax_reqs, K, workers);
    print_pipeline_point(&wax_point);

    // The 5 120-node fat-tree with hot demands (400–900 Mbps against
    // 1–10 Gbps links): commits routinely cross feasibility thresholds,
    // so the wave barrier defers whole suffixes while the pipeline
    // replans only the requests actually disturbed. This is the gated
    // row.
    let ft = fat_tree_sdn(SCALE_K, SCALE_SERVERS, 0);
    let n_ft = ft.node_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let mut gen = RequestGenerator::new(n_ft)
        .with_dmax_ratio(0.0015)
        .with_bandwidth_range(400.0, 900.0);
    let ft_reqs = gen.generate_batch(PIPE_SCALE_REQUESTS, &mut rng);
    let ft_point = run_pipeline_point("fat_tree_5120", &ft, &ft_reqs, 2, workers);
    print_pipeline_point(&ft_point);

    let points = [wax_point, ft_point];
    let json = render_pipeline_json(workers, &points);
    let pipeline_speedup =
        parse_numeric_key(&json, "pipeline_speedup").expect("own JSON is parseable");
    println!("pipeline_speedup: {pipeline_speedup:.2}x");

    // The pipeline gauges/histograms ride along for the CI artifact.
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/telemetry.json", telemetry::snapshot().to_json())
        .expect("write results/telemetry.json");

    if workers_override.is_some() {
        println!("(NFV_PIPELINE_WORKERS sweep run: snapshot not written)");
        return;
    }
    if let Some(baseline) = baseline {
        std::fs::write("BENCH_4.new.json", &json).expect("write BENCH_4.new.json");
        let floor = (baseline / MAX_REGRESSION).max(PIPE_FLOOR);
        if pipeline_speedup < floor {
            eprintln!(
                "FAIL: pipeline_speedup {pipeline_speedup:.2}x below {floor:.2}x \
                 (baseline {baseline:.2}x / {MAX_REGRESSION}, absolute floor {PIPE_FLOOR}x)"
            );
            std::process::exit(1);
        }
        println!(
            "OK: within 25% of the committed baseline ({baseline:.2}x) and above the {PIPE_FLOOR}x floor"
        );
    } else {
        std::fs::write(PIPE_SNAPSHOT, &json).expect("write BENCH_4.json");
        println!("wrote {PIPE_SNAPSHOT}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    if args.iter().any(|a| a == "pipeline") {
        run_pipeline(check);
        return;
    }
    if args.iter().any(|a| a == "scale") {
        run_scale(check);
        return;
    }
    let mode = if args.iter().any(|a| a == "full") {
        "full"
    } else {
        "quick"
    };
    let requests_per_ratio = if mode == "full" { 8 } else { 4 };

    let baseline = if check {
        let json = std::fs::read_to_string(SNAPSHOT)
            .unwrap_or_else(|e| panic!("--check needs a committed {SNAPSHOT}: {e}"));
        let b = parse_hot_speedup(&json).expect("baseline has a hot_speedup field");
        println!("baseline hot_speedup: {b:.2}x");
        Some(b)
    } else {
        None
    };

    println!("bench: Appro_Multi hot path, n={N}, K={K}, mode={mode}");
    let points = run_hot_sweep(requests_per_ratio);
    for p in &points {
        println!(
            "  ratio {:.2}: pruned {:8.2} ms  unpruned {:8.2} ms  speedup {:.2}x",
            p.ratio,
            p.pruned_ms,
            p.unpruned_ms,
            p.unpruned_ms / p.pruned_ms
        );
    }
    let (mehlhorn_ms, kmb_ms) = run_steiner_point();
    println!(
        "  mehlhorn {mehlhorn_ms:.2} ms vs kmb {kmb_ms:.2} ms ({:.2}x)",
        kmb_ms / mehlhorn_ms
    );

    let json = render_json(mode, requests_per_ratio, &points, mehlhorn_ms, kmb_ms);
    let hot_speedup = parse_hot_speedup(&json).expect("own JSON is parseable");
    println!("hot_speedup: {hot_speedup:.2}x");

    if let Some(baseline) = baseline {
        // Artifact for inspection, without clobbering the committed
        // baseline the comparison ran against.
        std::fs::write("BENCH_2.new.json", &json).expect("write BENCH_2.new.json");
        let floor = baseline / MAX_REGRESSION;
        if hot_speedup < floor {
            eprintln!(
                "FAIL: hot_speedup {hot_speedup:.2}x regressed below {floor:.2}x \
                 (baseline {baseline:.2}x / {MAX_REGRESSION})"
            );
            std::process::exit(1);
        }
        println!("OK: within 25% of the committed baseline ({baseline:.2}x)");
    } else {
        std::fs::write(SNAPSHOT, &json).expect("write BENCH_2.json");
        println!("wrote {SNAPSHOT}");
    }
}
