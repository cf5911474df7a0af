//! Deterministic telemetry for the NFV multicast planner and engine.
//!
//! This crate is a process-global registry of named **counters**, **gauges**,
//! and fixed-bucket **histograms**, plus a structured **event log**. It is
//! deliberately dependency-free and deterministic by construction:
//!
//! * Every quantity recorded from result-affecting code is a logical count
//!   (runs, hits, prunes, replans, ...), never a wall-clock measurement.
//! * Events carry a logical sequence number (their position in the log), not
//!   a timestamp, and are only recorded from sequential control paths.
//!
//! Recording is gated on a global enable flag (off by default). When the
//! flag is off every record call is a single relaxed atomic load, and the
//! registry contents never change — so instrumented library code can run
//! under parallel test harnesses without cross-test interference. Binaries
//! that want the numbers (e.g. `sim --bin fig5`, `sim --bin chaos`) call
//! [`enable`] up front and [`snapshot`] at the end.
//!
//! Counter updates use relaxed atomics. In the one parallel region of the
//! workspace (the planner pool of `nfv-engine`'s streaming pipeline),
//! worker updates interleave, so only totals are meaningful; the pipeline's
//! scheduling metrics (stalls, snapshot staleness, commit-queue depth)
//! vary run to run by design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Every named counter in the registry.
///
/// Counters are monotonic `u64`s recorded from result-affecting code; they
/// must only ever count logical work (never time, never memory addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    // -- netgraph -----------------------------------------------------------
    /// Full Dijkstra executions (both plain and target-pruned variants).
    DijkstraRuns,
    /// Decrease-key operations performed by the indexed quad heap.
    HeapDecreaseKeys,
    /// Multi-source Voronoi closure constructions.
    VoronoiClosureBuilds,
    /// Shortest-path-tree cache hits (CSR SSSP cache).
    SptCacheHits,
    /// Shortest-path-tree cache misses (fresh Dijkstra required).
    SptCacheMisses,
    /// Shortest-path trees evicted from the SSSP cache. Nothing records it:
    /// the cache never evicts.
    SptCacheEvictions, // lint:allow(TL1): the admission benchmark's `netgraph.spt_evictions` still reads it
    /// Landmark distance-oracle constructions.
    OracleBuilds,
    // -- nfv_multicast ------------------------------------------------------
    /// `PathCache` admissions decided on the cheap full-graph fingerprint.
    PathCacheFastPath,
    /// `PathCache` admissions that needed the full pseudo-tree scan.
    PathCacheSlowPath,
    /// Candidate server combinations fully evaluated by `Appro_Multi`.
    CombosEvaluated,
    /// Combinations pruned by the LB1 attach-cost lower bound.
    CombosPrunedLb1,
    /// Combinations pruned by the LB2 spanning lower bound.
    CombosPrunedLb2,
    /// Combinations skipped because their winner vector was already seen.
    CombosDeduped,
    // -- nfv_online ---------------------------------------------------------
    /// Requests admitted by the online algorithm.
    OnlineAdmitted,
    /// Requests rejected by the online algorithm (any reason).
    OnlineRejected,
    /// Rejections because no feasible pseudo-tree exists.
    OnlineRejectedInfeasible,
    /// Rejections because the tree cost crossed the admission threshold.
    OnlineRejectedThreshold,
    /// Rejections at the final capacity check against the ledger.
    OnlineRejectedCapacity,
    /// Candidate servers skipped because the exponential cost saturated
    /// (utilisation at or above the sigma threshold).
    OnlineSaturatedServers,
    /// Candidate servers whose exact Steiner evaluation was skipped because
    /// the oracle lower bound already exceeded the incumbent admission cost.
    OnlineCandidatesPruned,
    /// Rejections by the Lukovszki–Schmid-style strategy because every
    /// feasible embedding exceeded the hop budget.
    OnlineHopBoundRejections,
    /// Rejections by the Even–Medina–Patt-Shamir-style strategy because
    /// the cheapest embedding was priced above the request's benefit.
    OnlinePriceRejections,
    /// Admission-graph cache hits inside `OnlineCp`.
    AdmissionCacheHits,
    /// Admission-graph rebuilds inside `OnlineCp`.
    AdmissionCacheRebuilds,
    /// Sessions departed and released back to the substrate.
    SessionsDeparted,
    // -- engine -------------------------------------------------------------
    /// Speculative plans committed without replanning.
    EngineSpeculativeCommits,
    /// Speculative plans invalidated and replanned sequentially.
    EngineReplans,
    /// Read-only `Sdn` snapshots published by the pipeline committer for
    /// the planner pool to plan against.
    PipelineSnapshots,
    /// Times the pipeline committer had to block because the head-of-line
    /// plan had not been delivered by a worker yet. Scheduling-dependent
    /// (see the crate docs): decisions stay deterministic, this count does
    /// not.
    PipelineStalls,
    /// Sessions found broken by a fault event.
    RepairBroken,
    /// Sessions fully rerouted by the repair loop.
    RepairRepaired,
    /// Sessions kept alive with a degraded terminal set.
    RepairDegraded,
    /// Sessions dropped by the repair loop.
    RepairDropped,
    /// Sessions deferred to a later repair pass.
    RepairDeferred,
    /// Invariant-auditor passes that completed clean.
    AuditPasses,
    /// Departures for sessions the manager does not know (guarded no-ops).
    DoubleRelease,
    /// Backup trees successfully precomputed at protection time.
    BackupPlanned,
    /// Broken sessions restored by swapping to a precomputed backup tree.
    BackupHits,
    /// Broken sessions whose backups did not cover the failure (fell back
    /// to a full reroute through the pending-repair queue).
    BackupMisses,
    /// Backup trees discarded without being used (session departed,
    /// grafted, pruned, re-optimized, or a sibling backup was chosen).
    BackupDiscarded,
    /// Destinations attached to live sessions by dynamic-Steiner grafting.
    Grafts,
    /// Destinations detached from live sessions with exact residual release.
    Prunes,
    /// Sessions re-optimized from scratch after drift crossed the bound.
    Reoptimizations,
    // -- sim / arena --------------------------------------------------------
    /// Arena cells scored: one (algorithm, workload, seed) simulation
    /// whose outcome row entered `results/arena.json`.
    ArenaCellsScored,
    // -- telemetry internal -------------------------------------------------
    /// Events discarded because the event log hit its capacity bound.
    EventsDropped,
}

impl Counter {
    /// Every counter, in registry (serialisation) order.
    pub const ALL: [Counter; 45] = [
        Counter::DijkstraRuns,
        Counter::HeapDecreaseKeys,
        Counter::VoronoiClosureBuilds,
        Counter::SptCacheHits,
        Counter::SptCacheMisses,
        Counter::SptCacheEvictions,
        Counter::OracleBuilds,
        Counter::PathCacheFastPath,
        Counter::PathCacheSlowPath,
        Counter::CombosEvaluated,
        Counter::CombosPrunedLb1,
        Counter::CombosPrunedLb2,
        Counter::CombosDeduped,
        Counter::OnlineAdmitted,
        Counter::OnlineRejected,
        Counter::OnlineRejectedInfeasible,
        Counter::OnlineRejectedThreshold,
        Counter::OnlineRejectedCapacity,
        Counter::OnlineSaturatedServers,
        Counter::OnlineCandidatesPruned,
        Counter::OnlineHopBoundRejections,
        Counter::OnlinePriceRejections,
        Counter::AdmissionCacheHits,
        Counter::AdmissionCacheRebuilds,
        Counter::SessionsDeparted,
        Counter::EngineSpeculativeCommits,
        Counter::EngineReplans,
        Counter::PipelineSnapshots,
        Counter::PipelineStalls,
        Counter::RepairBroken,
        Counter::RepairRepaired,
        Counter::RepairDegraded,
        Counter::RepairDropped,
        Counter::RepairDeferred,
        Counter::AuditPasses,
        Counter::DoubleRelease,
        Counter::BackupPlanned,
        Counter::BackupHits,
        Counter::BackupMisses,
        Counter::BackupDiscarded,
        Counter::Grafts,
        Counter::Prunes,
        Counter::Reoptimizations,
        Counter::ArenaCellsScored,
        Counter::EventsDropped,
    ];

    /// Stable snake_case name used in JSON and text snapshots.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::DijkstraRuns => "dijkstra_runs",
            Counter::HeapDecreaseKeys => "heap_decrease_keys",
            Counter::VoronoiClosureBuilds => "voronoi_closure_builds",
            Counter::SptCacheHits => "spt_cache_hits",
            Counter::SptCacheMisses => "spt_cache_misses",
            Counter::SptCacheEvictions => "spt_cache_evictions",
            Counter::OracleBuilds => "oracle_builds",
            Counter::PathCacheFastPath => "path_cache_fast_path",
            Counter::PathCacheSlowPath => "path_cache_slow_path",
            Counter::CombosEvaluated => "combos_evaluated",
            Counter::CombosPrunedLb1 => "combos_pruned_lb1",
            Counter::CombosPrunedLb2 => "combos_pruned_lb2",
            Counter::CombosDeduped => "combos_deduped",
            Counter::OnlineAdmitted => "online_admitted",
            Counter::OnlineRejected => "online_rejected",
            Counter::OnlineRejectedInfeasible => "online_rejected_infeasible",
            Counter::OnlineRejectedThreshold => "online_rejected_threshold",
            Counter::OnlineRejectedCapacity => "online_rejected_capacity",
            Counter::OnlineSaturatedServers => "online_saturated_servers",
            Counter::OnlineCandidatesPruned => "online_candidates_pruned",
            Counter::OnlineHopBoundRejections => "online_hop_bound_rejections",
            Counter::OnlinePriceRejections => "online_price_rejections",
            Counter::AdmissionCacheHits => "admission_cache_hits",
            Counter::AdmissionCacheRebuilds => "admission_cache_rebuilds",
            Counter::SessionsDeparted => "sessions_departed",
            Counter::EngineSpeculativeCommits => "engine_speculative_commits",
            Counter::EngineReplans => "engine_replans",
            Counter::PipelineSnapshots => "pipeline_snapshots",
            Counter::PipelineStalls => "pipeline_stalls",
            Counter::RepairBroken => "repair_broken",
            Counter::RepairRepaired => "repair_repaired",
            Counter::RepairDegraded => "repair_degraded",
            Counter::RepairDropped => "repair_dropped",
            Counter::RepairDeferred => "repair_deferred",
            Counter::AuditPasses => "audit_passes",
            Counter::DoubleRelease => "double_release",
            Counter::BackupPlanned => "backup_planned",
            Counter::BackupHits => "backup_hits",
            Counter::BackupMisses => "backup_misses",
            Counter::BackupDiscarded => "backup_discarded",
            Counter::Grafts => "grafts",
            Counter::Prunes => "prunes",
            Counter::Reoptimizations => "reoptimizations",
            Counter::ArenaCellsScored => "arena_cells_scored",
            Counter::EventsDropped => "events_dropped",
        }
    }
}

const COUNTER_COUNT: usize = Counter::ALL.len();

static COUNTERS: [AtomicU64; COUNTER_COUNT] = [const { AtomicU64::new(0) }; COUNTER_COUNT];

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

/// Every named gauge in the registry. Gauges hold the most recent value of a
/// level-style quantity (set, not accumulated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Live sessions currently holding resources.
    ActiveSessions,
    /// Sessions parked in the repair retry queue.
    PendingRepairs,
    /// Speculative plans currently in flight inside the admission
    /// pipeline's bounded window.
    PipelineDepth,
    /// Bandwidth units currently held by `Reserved`-policy backup trees
    /// (the standing capacity overhead of proactive protection).
    ReservedBackupBandwidth,
}

impl Gauge {
    /// Every gauge, in registry order.
    pub const ALL: [Gauge; 4] = [
        Gauge::ActiveSessions,
        Gauge::PendingRepairs,
        Gauge::PipelineDepth,
        Gauge::ReservedBackupBandwidth,
    ];

    /// Stable snake_case name used in JSON and text snapshots.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::ActiveSessions => "active_sessions",
            Gauge::PendingRepairs => "pending_repairs",
            Gauge::PipelineDepth => "pipeline_depth",
            Gauge::ReservedBackupBandwidth => "reserved_backup_bandwidth",
        }
    }
}

const GAUGE_COUNT: usize = Gauge::ALL.len();

static GAUGES: [AtomicU64; GAUGE_COUNT] = [const { AtomicU64::new(0) }; GAUGE_COUNT];

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Every named histogram in the registry. All histograms share the same
/// fixed power-of-two bucket layout (see [`HIST_EDGES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Sessions broken per fault event handed to the repair loop.
    RepairBatchBroken,
    /// Combinations evaluated per `Appro_Multi` scan.
    CombosPerScan,
    /// Snapshot staleness at plan validation: how many snapshot epochs
    /// the pipeline published between a plan's dispatch and its commit.
    /// Scheduling-dependent (see the crate docs).
    SnapshotStaleness,
    /// Completed plans queued behind the head-of-line request when a
    /// pipeline commit lands (out-of-order completions waiting their
    /// turn). Scheduling-dependent (see the crate docs).
    CommitQueueWait,
    /// Edges added to a session's tree per graft (0 for already-covered
    /// destinations).
    GraftAttachEdges,
    /// Accumulated drift as an integer percentage of the session's current
    /// tree cost, observed at each drift check.
    DriftRatioPct,
    /// Planner invocations needed to restore one broken session: 0 for a
    /// backup-tree swap, ≥1 for a reactive replan — the logical failover
    /// latency (plan-events, not wall clock).
    FailoverPlanEvents,
}

impl Hist {
    /// Every histogram, in registry order.
    pub const ALL: [Hist; 7] = [
        Hist::RepairBatchBroken,
        Hist::CombosPerScan,
        Hist::SnapshotStaleness,
        Hist::CommitQueueWait,
        Hist::GraftAttachEdges,
        Hist::DriftRatioPct,
        Hist::FailoverPlanEvents,
    ];

    /// Stable snake_case name used in JSON and text snapshots.
    pub const fn name(self) -> &'static str {
        match self {
            Hist::RepairBatchBroken => "repair_batch_broken",
            Hist::CombosPerScan => "combos_per_scan",
            Hist::SnapshotStaleness => "snapshot_staleness",
            Hist::CommitQueueWait => "commit_queue_wait",
            Hist::GraftAttachEdges => "graft_attach_edges",
            Hist::DriftRatioPct => "drift_ratio_pct",
            Hist::FailoverPlanEvents => "failover_plan_events",
        }
    }
}

/// Inclusive upper edges of the shared histogram buckets; one extra overflow
/// bucket captures everything above the last edge.
pub const HIST_EDGES: [u64; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

const HIST_COUNT: usize = Hist::ALL.len();
const BUCKET_COUNT: usize = HIST_EDGES.len() + 1;

static HISTOGRAMS: [AtomicU64; HIST_COUNT * BUCKET_COUNT] =
    [const { AtomicU64::new(0) }; HIST_COUNT * BUCKET_COUNT];

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A structured telemetry event. Events are enum-shaped (never free-form
/// strings) and are only recorded from sequential control paths, so their
/// sequence numbers are deterministic across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A departure arrived for a session the manager does not know; the
    /// resources were already released and the call was a guarded no-op.
    UnknownDeparture {
        /// Raw id of the departing request.
        request: u64,
    },
    /// A broken session was fully rerouted.
    SessionRepaired {
        /// Raw id of the repaired request.
        request: u64,
    },
    /// A broken session was kept alive with a reduced terminal set.
    SessionDegraded {
        /// Raw id of the degraded request.
        request: u64,
        /// Number of terminals shed to keep the session alive.
        shed_terminals: u64,
    },
    /// A broken session could not be repaired and was dropped.
    SessionDropped {
        /// Raw id of the dropped request.
        request: u64,
    },
    /// A broken session was deferred to a later repair pass.
    SessionDeferred {
        /// Raw id of the deferred request.
        request: u64,
    },
    /// A broken session was restored by swapping to a precomputed backup
    /// tree (no replanning).
    SessionFailedOver {
        /// Raw id of the failed-over request.
        request: u64,
    },
    /// A new destination was attached to a live session by grafting.
    SessionGrafted {
        /// Raw id of the grafted session.
        request: u64,
        /// Raw node id of the attached destination.
        destination: u64,
    },
    /// A destination was detached from a live session.
    SessionPruned {
        /// Raw id of the pruned session.
        request: u64,
        /// Raw node id of the detached destination.
        destination: u64,
    },
    /// A drifted session was re-optimized against a fresh plan.
    SessionReoptimized {
        /// Raw id of the re-optimized request.
        request: u64,
    },
}

impl Event {
    /// Stable snake_case tag used in JSON and text snapshots.
    pub const fn kind(self) -> &'static str {
        match self {
            Event::UnknownDeparture { .. } => "unknown_departure",
            Event::SessionRepaired { .. } => "session_repaired",
            Event::SessionDegraded { .. } => "session_degraded",
            Event::SessionDropped { .. } => "session_dropped",
            Event::SessionDeferred { .. } => "session_deferred",
            Event::SessionFailedOver { .. } => "session_failed_over",
            Event::SessionGrafted { .. } => "session_grafted",
            Event::SessionPruned { .. } => "session_pruned",
            Event::SessionReoptimized { .. } => "session_reoptimized",
        }
    }

    /// The request id the event refers to.
    pub const fn request(self) -> u64 {
        match self {
            Event::UnknownDeparture { request }
            | Event::SessionRepaired { request }
            | Event::SessionDegraded { request, .. }
            | Event::SessionDropped { request }
            | Event::SessionDeferred { request }
            | Event::SessionFailedOver { request }
            | Event::SessionGrafted { request, .. }
            | Event::SessionPruned { request, .. }
            | Event::SessionReoptimized { request } => request,
        }
    }

    /// Secondary payload (0 when the variant carries none).
    pub const fn arg(self) -> u64 {
        match self {
            Event::SessionDegraded { shed_terminals, .. } => shed_terminals,
            Event::SessionGrafted { destination, .. }
            | Event::SessionPruned { destination, .. } => destination,
            _ => 0,
        }
    }
}

/// An event together with its logical sequence number (position in the log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// 0-based position of the event in the log.
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

/// Hard bound on the in-memory event log; further events increment
/// [`Counter::EventsDropped`] instead of growing the log.
pub const MAX_EVENTS: usize = 4096;

static EVENTS: Mutex<Vec<EventRecord>> = Mutex::new(Vec::new());

fn events_lock() -> std::sync::MutexGuard<'static, Vec<EventRecord>> {
    match EVENTS.lock() {
        Ok(guard) => guard,
        // A panic while holding the log lock cannot corrupt a Vec of Copy
        // records; recover the data rather than propagating the poison.
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// Global enable gate and recording API
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn recording on. Off by default so instrumented library code is inert
/// under parallel test harnesses.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn recording off. Already-recorded data is kept until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether recording is currently on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

static ZERO_CELL: AtomicU64 = AtomicU64::new(0);

fn counter_cell(c: Counter) -> &'static AtomicU64 {
    // The index is always in range by construction; the fallback cell keeps
    // this total without indexing panics.
    COUNTERS.get(c as usize).unwrap_or(&ZERO_CELL)
}

fn gauge_cell(g: Gauge) -> &'static AtomicU64 {
    GAUGES.get(g as usize).unwrap_or(&ZERO_CELL)
}

fn hist_cell(h: Hist, bucket: usize) -> &'static AtomicU64 {
    HISTOGRAMS
        .get(h as usize * BUCKET_COUNT + bucket)
        .unwrap_or(&ZERO_CELL)
}

/// Increment a counter by one.
#[inline]
pub fn hit(c: Counter) {
    add(c, 1);
}

/// Increment a counter by `n`.
#[inline]
pub fn add(c: Counter, n: u64) {
    if !is_enabled() {
        return;
    }
    counter_cell(c).fetch_add(n, Ordering::Relaxed);
}

/// Read a counter's current value (works even while disabled).
pub fn counter_value(c: Counter) -> u64 {
    counter_cell(c).load(Ordering::Relaxed)
}

/// Set a gauge to `v`.
#[inline]
pub fn gauge_set(g: Gauge, v: u64) {
    if !is_enabled() {
        return;
    }
    gauge_cell(g).store(v, Ordering::Relaxed);
}

/// Read a gauge's current value (works even while disabled).
pub fn gauge_value(g: Gauge) -> u64 {
    gauge_cell(g).load(Ordering::Relaxed)
}

/// Record one observation `v` into histogram `h`.
#[inline]
pub fn observe(h: Hist, v: u64) {
    if !is_enabled() {
        return;
    }
    let bucket = HIST_EDGES
        .iter()
        .position(|&edge| v <= edge)
        .unwrap_or(HIST_EDGES.len());
    hist_cell(h, bucket).fetch_add(1, Ordering::Relaxed);
}

/// Append a structured event to the log. Must only be called from
/// sequential control paths so sequence numbers stay deterministic.
pub fn record(event: Event) {
    if !is_enabled() {
        return;
    }
    let mut log = events_lock();
    if log.len() >= MAX_EVENTS {
        drop(log);
        counter_cell(Counter::EventsDropped).fetch_add(1, Ordering::Relaxed);
        return;
    }
    let seq = log.len() as u64;
    log.push(EventRecord { seq, event });
}

/// Zero every counter, gauge, and histogram and clear the event log.
/// Does not change the enabled flag.
pub fn reset() {
    for cell in COUNTERS
        .iter()
        .chain(GAUGES.iter())
        .chain(HISTOGRAMS.iter())
    {
        cell.store(0, Ordering::Relaxed);
    }
    events_lock().clear();
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time copy of the whole registry, suitable for serialisation,
/// diffing, and regression pinning.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter, in registry order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, in registry order.
    pub gauges: Vec<(String, u64)>,
    /// One entry per histogram, in registry order.
    pub histograms: Vec<HistogramSnapshot>,
    /// The event log in sequence order.
    pub events: Vec<EventRecord>,
}

/// Frozen contents of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// The histogram's registry name.
    pub name: String,
    /// `(inclusive_upper_edge, count)` per bucket; the final bucket uses
    /// `u64::MAX` as its edge and holds the overflow count.
    pub buckets: Vec<(u64, u64)>,
    /// Total number of observations.
    pub total: u64,
}

/// Capture the current registry contents.
pub fn snapshot() -> Snapshot {
    let counters = Counter::ALL
        .iter()
        .map(|&c| (c.name().to_owned(), counter_value(c)))
        .collect();
    let gauges = Gauge::ALL
        .iter()
        .map(|&g| (g.name().to_owned(), gauge_value(g)))
        .collect();
    let histograms = Hist::ALL
        .iter()
        .map(|&h| {
            let mut buckets = Vec::with_capacity(BUCKET_COUNT);
            let mut total = 0u64;
            for b in 0..BUCKET_COUNT {
                let edge = HIST_EDGES.get(b).copied().unwrap_or(u64::MAX);
                let count = hist_cell(h, b).load(Ordering::Relaxed);
                total += count;
                buckets.push((edge, count));
            }
            HistogramSnapshot {
                name: h.name().to_owned(),
                buckets,
                total,
            }
        })
        .collect();
    let events = events_lock().clone();
    Snapshot {
        counters,
        gauges,
        histograms,
        events,
    }
}

impl Snapshot {
    /// Serialise to the stable JSON shape written to `results/telemetry.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{name}\": {value}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{name}\": {value}");
        }
        out.push_str("\n  },\n  \"histograms\": [");
        for (i, hist) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"total\": {}, \"buckets\": [",
                hist.name, hist.total
            );
            for (j, (edge, count)) in hist.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{edge}, {count}]");
            }
            out.push_str("]}");
        }
        out.push_str("\n  ],\n  \"events\": [");
        for (i, rec) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"seq\": {}, \"kind\": \"{}\", \"request\": {}, \"arg\": {}}}",
                rec.seq,
                rec.event.kind(),
                rec.event.request(),
                rec.event.arg()
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Render a human-readable text report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== counters ==\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
        out.push_str("== gauges ==\n");
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
        out.push_str("== histograms ==\n");
        for hist in &self.histograms {
            let _ = write!(out, "  {:<28} total={}", hist.name, hist.total);
            for (edge, count) in &hist.buckets {
                if *count == 0 {
                    continue;
                }
                if *edge == u64::MAX {
                    let _ = write!(out, "  inf:{count}");
                } else {
                    let _ = write!(out, "  le{edge}:{count}");
                }
            }
            out.push('\n');
        }
        let _ = writeln!(out, "== events ({}) ==", self.events.len());
        for rec in &self.events {
            let _ = write!(
                out,
                "  [{}] {} request={}",
                rec.seq,
                rec.event.kind(),
                rec.event.request()
            );
            if let Event::SessionDegraded { shed_terminals, .. } = rec.event {
                let _ = write!(out, " shed_terminals={shed_terminals}");
            }
            out.push('\n');
        }
        out
    }

    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests share one process-global registry, so everything that
    // mutates it lives in this single test; the cargo test harness may run
    // `#[test]` fns in parallel threads.
    #[test]
    fn registry_record_snapshot_roundtrip() {
        reset();
        // Disabled: recording is inert.
        disable();
        hit(Counter::DijkstraRuns);
        gauge_set(Gauge::ActiveSessions, 9);
        observe(Hist::CombosPerScan, 3);
        record(Event::SessionDropped { request: 1 });
        assert_eq!(counter_value(Counter::DijkstraRuns), 0);
        assert_eq!(gauge_value(Gauge::ActiveSessions), 0);
        assert!(snapshot().events.is_empty());

        // Enabled: everything lands.
        enable();
        hit(Counter::DijkstraRuns);
        add(Counter::CombosEvaluated, 41);
        gauge_set(Gauge::ActiveSessions, 7);
        observe(Hist::CombosPerScan, 1);
        observe(Hist::CombosPerScan, 1);
        observe(Hist::CombosPerScan, 5);
        observe(Hist::CombosPerScan, 1_000_000);
        record(Event::UnknownDeparture { request: 42 });
        record(Event::SessionDegraded {
            request: 3,
            shed_terminals: 2,
        });
        disable();

        assert_eq!(counter_value(Counter::DijkstraRuns), 1);
        assert_eq!(counter_value(Counter::CombosEvaluated), 41);
        assert_eq!(gauge_value(Gauge::ActiveSessions), 7);

        let snap = snapshot();
        assert_eq!(snap.counter("combos_evaluated"), Some(41));
        assert_eq!(snap.counter("no_such_counter"), None);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events.first().map(|r| r.seq), Some(0));
        assert_eq!(
            snap.events.get(1).map(|r| r.event),
            Some(Event::SessionDegraded {
                request: 3,
                shed_terminals: 2
            })
        );
        let combos = snap
            .histograms
            .iter()
            .find(|h| h.name == "combos_per_scan")
            .expect("combos_per_scan histogram present");
        assert_eq!(combos.total, 4);
        assert_eq!(combos.buckets.first(), Some(&(1, 2)));
        assert_eq!(combos.buckets.last(), Some(&(u64::MAX, 1)));

        // Text rendering mentions the non-zero rows.
        let text = snap.to_text();
        assert!(text.contains("combos_evaluated"));
        assert!(text.contains("session_degraded"));

        reset();
        assert_eq!(counter_value(Counter::DijkstraRuns), 0);
        assert!(snapshot().events.is_empty());
    }

    #[test]
    fn registry_order_matches_discriminants() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }
}
