//! Streaming admission: a continuous plan/commit pipeline over an
//! unbounded arrival/departure stream.
//!
//! [`crate::admit_sequential`] plans and commits one request at a time,
//! so planning never overlaps a commit. [`AdmissionPipeline`] overlaps
//! them: a bounded window of in-flight requests is planned by worker
//! threads against versioned read-only [`Sdn`] snapshots while the
//! caller's thread — the single **committer** — commits decisions in
//! strict arrival order, so planning for request `n + w` overlaps the
//! commit of request `n`. A closed batch is the special case of a stream
//! whose sessions never depart.
//!
//! ## Determinism
//!
//! Each speculative plan is validated with a feasibility-threshold
//! disturbance check (see the `spec` module): the committer tracks, per
//! snapshot epoch, the deduplicated set of links and servers that
//! commits and releases touched, and a plan commits speculatively only
//! when none of them crossed the request's feasibility threshold between
//! its snapshot and the live state. Workers ship the *raw* planned tree
//! ([`nfv_multicast::CapPlan`], before the accumulated multi-traversal
//! load check), and the committer resolves that check against the live
//! residuals at commit time — a tree unfit on its snapshot can become
//! fit after departures release capacity, so only the live verdict
//! reproduces the sequential decision. A disturbed (or
//! lost) plan is re-planned inline on the live state — exactly the
//! sequential decision. Decisions, trees, and the final residual state
//! are therefore **byte-identical to the sequential reference**
//! regardless of worker count, window size, or thread scheduling; the
//! property tests in `tests/tests/pipeline_properties.rs` pin this.
//!
//! Pipeline *telemetry* is the deliberate exception: stall counts,
//! snapshot staleness, and commit-queue depth measure scheduling, so they
//! vary run to run. No telemetry `Event`s are recorded from worker
//! threads (events carry logical sequence numbers; only the committer
//! records them), which keeps the event log deterministic.
//!
//! ## Services
//!
//! The committer is an event loop with pluggable services: admission
//! (always on), repair (enable with [`PipelineConfig::with_repair`] —
//! fault events then trigger [`SessionManager::repair`]), and the
//! invariant auditor (debug builds, or `NFV_AUDIT=1`). Fault events drain
//! the window first and force the next snapshot publish past the refresh
//! throttle, so no speculative plan ever straddles a liveness change —
//! neither one in flight when the fault lands, nor one planned afterwards
//! against a stale pre-fault snapshot.

use crate::audit::Auditor;
use crate::repair::{RepairConfig, RepairReport, SessionManager};
use crate::spec::{feasibility_disturbed, TouchedSet};
use netgraph::{EdgeId, NodeId};
use nfv_multicast::{appro_multi_cap_with_scratch, Admission, ApproScratch, CapPlan};
use nfv_online::TimedRequest;
use sdn::{MulticastRequest, RequestId, Sdn, SdnError};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Tuning knobs for [`AdmissionPipeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Maximum servers per request (the paper's `K`).
    pub k: usize,
    /// Planner worker threads. `0` disables speculation entirely: every
    /// request is planned inline at commit time on the live state — the
    /// sequential reference the pipelined modes must reproduce. `0` does
    /// *not* mean "auto": a streaming daemon's thread budget is an
    /// explicit deployment choice.
    pub workers: usize,
    /// Maximum in-flight speculative plans. Bounds both memory and the
    /// worst-case staleness of a plan's snapshot.
    pub window: usize,
    /// Publish a fresh snapshot once at least this many state mutations
    /// (commits + releases + faults) happened since the last one. `1`
    /// republishes on any staleness, minimizing replans at the cost of
    /// one `Sdn` clone per mutation burst.
    pub refresh: usize,
    /// Repair service: when set, fault events injected via
    /// [`AdmissionPipeline::inject`] run [`SessionManager::repair`] with
    /// this config after applying the fault.
    pub repair: Option<RepairConfig>,
    /// Proactive protection: when set, every admission is followed by
    /// [`SessionManager::protect`], so a later fault can restore the
    /// session with a precomputed backup-tree swap instead of a replan.
    pub resilience: Option<crate::resilience::ResilienceConfig>,
}

impl PipelineConfig {
    /// A config with `k` servers, no planner threads (inline reference
    /// mode), a window of 8, and per-mutation snapshot refresh.
    #[must_use]
    pub fn new(k: usize) -> Self {
        PipelineConfig {
            k,
            workers: 0,
            window: 8,
            refresh: 1,
            repair: None,
            resilience: None,
        }
    }

    /// Sets the planner worker count (`0` = inline reference mode).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the in-flight window bound (clamped to at least 1).
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Sets the snapshot refresh threshold (clamped to at least 1).
    #[must_use]
    pub fn with_refresh(mut self, refresh: usize) -> Self {
        self.refresh = refresh.max(1);
        self
    }

    /// Enables the repair service.
    #[must_use]
    pub fn with_repair(mut self, repair: RepairConfig) -> Self {
        self.repair = Some(repair);
        self
    }

    /// Enables proactive backup-tree protection.
    #[must_use]
    pub fn with_resilience(mut self, resilience: crate::resilience::ResilienceConfig) -> Self {
        self.resilience = Some(resilience);
        self
    }
}

/// A liveness event injected into the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A link goes down.
    FailLink(EdgeId),
    /// A failed link comes back.
    RecoverLink(EdgeId),
    /// A server (its computing capacity) goes down.
    FailServer(NodeId),
    /// A failed server comes back.
    RecoverServer(NodeId),
}

/// One element of a mixed arrival/fault stream, for
/// [`run_stream`]-style drivers.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A timed request arrival (its departure is implied by
    /// [`TimedRequest::duration`]).
    Arrival(TimedRequest),
    /// A link/server failure or recovery.
    Fault(FaultEvent),
}

/// Statistics from one pipeline run.
///
/// `admitted`, `rejected`, `replanned` + `speculative_hits`, and
/// `departed` are deterministic for a given stream and config family —
/// any worker count ≥ 1 yields the same decisions. `stalls`,
/// `snapshots_published`, and `disturbance_checks` measure *scheduling*
/// and may vary run to run; they are reported for observability, never
/// gated on byte-equality.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Requests admitted.
    pub admitted: usize,
    /// Requests rejected.
    pub rejected: usize,
    /// Commits taken straight from a speculative plan.
    pub speculative_hits: usize,
    /// Plans invalidated by a feasibility-threshold crossing and
    /// re-planned inline by the committer.
    pub replanned: usize,
    /// Sessions released because their departure time passed.
    pub departed: usize,
    /// Read-only snapshots published for the planner pool.
    pub snapshots_published: u64,
    /// Times the committer blocked waiting for the head-of-line plan.
    pub stalls: u64,
    /// Distinct touched elements scanned by disturbance checks.
    pub disturbance_checks: usize,
}

/// Everything a finished pipeline hands back.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// The network with every decision applied.
    pub sdn: Sdn,
    /// Decisions in strict arrival order.
    pub decisions: Vec<Admission>,
    /// Run statistics.
    pub report: PipelineReport,
    /// The session store (live sessions, pending repairs, guards).
    pub sessions: SessionManager,
}

/// A planning job shipped to the worker pool.
struct PlanJob {
    seq: u64,
    request: MulticastRequest,
    snapshot: Arc<Sdn>,
}

/// A worker's answer. `plan: None` means the planner panicked; the
/// committer re-plans inline, reproducing the panic deterministically on
/// its own thread.
struct PlanResult {
    seq: u64,
    plan: Option<CapPlan>,
}

/// An arrival whose speculative plan is still outstanding.
struct InFlight {
    seq: u64,
    timed: TimedRequest,
    epoch: u64,
    snapshot: Arc<Sdn>,
}

/// How the decision for one arrival is obtained at commit time.
enum Speculation {
    /// No worker pool: plan inline (the sequential reference).
    Inline,
    /// The worker panicked; plan inline to surface it deterministically.
    Lost,
    /// A speculative plan from snapshot `epoch` — the raw planned tree,
    /// its accumulated-load check still pending against the live state.
    Plan {
        plan: CapPlan,
        epoch: u64,
        snapshot: Arc<Sdn>,
    },
}

/// The streaming admission daemon. See the [module docs](self).
///
/// The caller's thread is the committer: [`AdmissionPipeline::push`]
/// dispatches the arrival to the worker pool and, when the window is
/// full, commits the head-of-line decision before returning. Feed
/// arrivals in nondecreasing arrival-time order (generators and
/// `run_dynamic` both produce sorted streams).
pub struct AdmissionPipeline {
    cfg: PipelineConfig,
    sdn: Sdn,
    sessions: SessionManager,
    /// Scheduled departure time per admitted session.
    deadlines: BTreeMap<RequestId, f64>,
    window: VecDeque<InFlight>,
    /// Out-of-order worker results parked until their turn.
    reorder: BTreeMap<u64, Option<CapPlan>>,
    /// Per-epoch deduplicated sets of elements commits/releases touched
    /// while that epoch's snapshot was current.
    deltas: BTreeMap<u64, TouchedSet>,
    snapshot: Arc<Sdn>,
    epoch: u64,
    mutations_since_publish: usize,
    next_seq: u64,
    /// Whether any state-changing fault was ever injected. Without a
    /// repair service, sessions may then legitimately straddle dead
    /// elements, so the tree-health audit stands down.
    faulted: bool,
    last_arrival: f64,
    decisions: Vec<Admission>,
    report: PipelineReport,
    scratch: ApproScratch,
    auditor: Auditor,
    jobs: Option<mpsc::Sender<PlanJob>>,
    results: mpsc::Receiver<PlanResult>,
    handles: Vec<JoinHandle<()>>,
}

impl AdmissionPipeline {
    /// Starts the daemon: spawns `config.workers` planner threads (none
    /// for `workers == 0`) and publishes the initial snapshot.
    #[must_use]
    pub fn launch(sdn: Sdn, config: PipelineConfig) -> Self {
        let config = PipelineConfig {
            window: config.window.max(1),
            refresh: config.refresh.max(1),
            ..config
        };
        let snapshot = Arc::new(sdn.clone());
        let (job_tx, job_rx) = mpsc::channel::<PlanJob>();
        let (result_tx, result_rx) = mpsc::channel::<PlanResult>();
        let mut handles = Vec::with_capacity(config.workers);
        let jobs = if config.workers == 0 {
            None
        } else {
            let shared = Arc::new(Mutex::new(job_rx));
            for _ in 0..config.workers {
                let rx = Arc::clone(&shared);
                let tx = result_tx.clone();
                let k = config.k;
                handles.push(std::thread::spawn(move || worker_loop(&rx, &tx, k)));
            }
            Some(job_tx)
        };
        let mut deltas = BTreeMap::new();
        deltas.insert(0u64, TouchedSet::new());
        let mut report = PipelineReport::default();
        if jobs.is_some() {
            report.snapshots_published = 1;
            telemetry::hit(telemetry::Counter::PipelineSnapshots);
        }
        AdmissionPipeline {
            cfg: config,
            sdn,
            sessions: config
                .resilience
                .map_or_else(SessionManager::new, SessionManager::with_resilience),
            deadlines: BTreeMap::new(),
            window: VecDeque::new(),
            reorder: BTreeMap::new(),
            deltas,
            snapshot,
            epoch: 0,
            mutations_since_publish: 0,
            next_seq: 0,
            faulted: false,
            last_arrival: f64::NEG_INFINITY,
            decisions: Vec::new(),
            report,
            scratch: ApproScratch::new(),
            auditor: Auditor::from_env(),
            jobs,
            results: result_rx,
            handles,
        }
    }

    /// Offers one timed arrival to the daemon. Departures are implicit:
    /// every session admitted at time `t` with duration `d` is released
    /// by the first commit at time `>= t + d` (the same lazy-release
    /// semantics as `nfv_online::run_dynamic`).
    ///
    /// # Panics
    ///
    /// Panics if `timed` arrives earlier than a previously pushed
    /// arrival — the stream must be sorted, as every generator produces.
    // lint:entry(committer)
    pub fn push(&mut self, timed: TimedRequest) {
        assert!(
            timed.arrival >= self.last_arrival,
            "arrivals must be fed in nondecreasing time order"
        );
        self.last_arrival = timed.arrival;
        if self.jobs.is_none() {
            self.commit_decision(timed, Speculation::Inline);
            return;
        }
        if self.window.len() >= self.cfg.window {
            self.commit_head();
        }
        self.maybe_publish();
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(jobs) = &self.jobs {
            jobs.send(PlanJob {
                seq,
                request: timed.request.clone(),
                snapshot: Arc::clone(&self.snapshot),
            })
            .expect("planner workers outlive the job channel"); // lint:allow(P1): workers only exit when finish() closes the channel
        }
        self.window.push_back(InFlight {
            seq,
            timed,
            epoch: self.epoch,
            snapshot: Arc::clone(&self.snapshot),
        });
        telemetry::gauge_set(telemetry::Gauge::PipelineDepth, self.window.len() as u64);
    }

    /// Injects a liveness event. The window is drained first (no
    /// speculative plan may straddle a liveness change), the fault is
    /// applied to the live network, and — when the repair service is
    /// configured — broken sessions are released and replanned. Any
    /// state-changing fault or non-quiet repair forces the next
    /// [`push`](Self::push) to publish a fresh snapshot regardless of
    /// [`PipelineConfig::refresh`], so no plan is ever computed against
    /// pre-fault liveness.
    ///
    /// Returns what the repair service did (quiet when no repair service
    /// is configured).
    ///
    /// # Errors
    ///
    /// Propagates [`Sdn`] errors for unknown links/servers; the stream
    /// state is unchanged in that case (beyond the drain).
    // lint:entry(committer)
    pub fn inject(&mut self, fault: FaultEvent) -> Result<RepairReport, SdnError> {
        self.drain();
        let changed = match fault {
            FaultEvent::FailLink(e) => self.sdn.fail_link(e)?,
            FaultEvent::RecoverLink(e) => self.sdn.recover_link(e)?,
            FaultEvent::FailServer(v) => self.sdn.fail_server(v)?,
            FaultEvent::RecoverServer(v) => self.sdn.recover_server(v)?,
        };
        if changed {
            // A liveness flip is invisible to the touched-set disturbance
            // check (it tracks residual movement only), so the stale
            // snapshot must never serve another plan: force the next push
            // to republish regardless of the refresh throttle.
            self.mutations_since_publish = self.cfg.refresh;
            self.faulted = true;
        }
        let report = if let Some(repair) = self.cfg.repair {
            let r = self
                .sessions
                .repair(&mut self.sdn, &repair, &mut self.scratch);
            if !r.is_quiet() {
                // Repair rewrites whole allocations outside the delta
                // bookkeeping; republish before the next plan as well.
                self.mutations_since_publish = self.cfg.refresh;
            }
            // Sessions the repair service dropped keep their scheduled
            // deadline; when it fires, the departure is a guarded no-op.
            self.check_invariants();
            r
        } else {
            // Without a repair service, sessions may legitimately straddle
            // dead elements until they depart; check_invariants stands
            // down once `faulted` is set, so no audit runs here either.
            RepairReport::default()
        };
        Ok(report)
    }

    /// Commits every in-flight decision. The pipeline stays usable.
    pub fn drain(&mut self) {
        while !self.window.is_empty() {
            self.commit_head();
        }
    }

    /// Drains the window, stops the worker pool, and hands back the final
    /// network, the decision log, and the session store. No decision is
    /// lost or duplicated: exactly one decision per pushed arrival, in
    /// arrival order.
    #[must_use]
    // lint:entry(committer)
    pub fn finish(mut self) -> PipelineOutcome {
        self.drain();
        self.jobs = None; // close the channel; workers drain and exit
        for h in std::mem::take(&mut self.handles) {
            // A worker that panicked already surfaced its panic via the
            // inline replan of its lost plan; the join result is moot.
            drop(h.join());
        }
        PipelineOutcome {
            sdn: self.sdn,
            decisions: self.decisions,
            report: self.report,
            sessions: self.sessions,
        }
    }

    /// Number of in-flight speculative plans.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.window.len()
    }

    /// Running statistics (final totals come from [`finish`](Self::finish)).
    #[must_use]
    pub fn report(&self) -> &PipelineReport {
        &self.report
    }

    fn maybe_publish(&mut self) {
        if self.snapshot.version() == self.sdn.version()
            || self.mutations_since_publish < self.cfg.refresh
        {
            return;
        }
        self.snapshot = Arc::new(self.sdn.clone());
        self.epoch += 1;
        self.deltas.insert(self.epoch, TouchedSet::new());
        self.mutations_since_publish = 0;
        self.report.snapshots_published += 1;
        telemetry::hit(telemetry::Counter::PipelineSnapshots);
    }

    // lint:entry(committer)
    fn commit_head(&mut self) {
        let Some(head) = self.window.pop_front() else {
            return;
        };
        let plan = self.await_plan(head.seq);
        telemetry::observe(telemetry::Hist::CommitQueueWait, self.reorder.len() as u64);
        telemetry::observe(telemetry::Hist::SnapshotStaleness, self.epoch - head.epoch);
        let spec = match plan {
            Some(plan) => Speculation::Plan {
                plan,
                epoch: head.epoch,
                snapshot: head.snapshot,
            },
            None => Speculation::Lost,
        };
        self.commit_decision(head.timed, spec);
        // Deltas below the oldest in-flight epoch can never be referenced
        // again.
        let min_epoch = self.window.front().map_or(self.epoch, |f| f.epoch);
        self.deltas = self.deltas.split_off(&min_epoch);
        telemetry::gauge_set(telemetry::Gauge::PipelineDepth, self.window.len() as u64);
    }

    /// Blocks until the plan for `seq` is available, parking other
    /// workers' results in the reorder buffer.
    fn await_plan(&mut self, seq: u64) -> Option<CapPlan> {
        let mut stalled = false;
        loop {
            if let Some(plan) = self.reorder.remove(&seq) {
                return plan;
            }
            match self.results.try_recv() {
                Ok(r) => {
                    self.reorder.insert(r.seq, r.plan);
                }
                Err(mpsc::TryRecvError::Empty) => {
                    if !stalled {
                        stalled = true;
                        self.report.stalls += 1;
                        telemetry::hit(telemetry::Counter::PipelineStalls);
                    }
                    let r = self
                        .results
                        .recv()
                        .expect("planner workers outlive their jobs"); // lint:allow(P1): workers send one result per job before exiting
                    self.reorder.insert(r.seq, r.plan);
                }
                Err(mpsc::TryRecvError::Disconnected) => {
                    // Workers exit only after the job channel closes in
                    // finish(), which drains the window first.
                    // lint:allow(P1): guarded by finish()'s drain-before-close ordering
                    unreachable!("planner pool disconnected with plans in flight")
                }
            }
        }
    }

    fn commit_decision(&mut self, timed: TimedRequest, spec: Speculation) {
        let now = timed.arrival;
        self.release_due(now);
        let req = &timed.request;
        let decision = match spec {
            Speculation::Plan {
                plan,
                epoch,
                snapshot,
            } if !self.disturbed_since(epoch, &snapshot, req) => {
                self.report.speculative_hits += 1;
                telemetry::hit(telemetry::Counter::EngineSpeculativeCommits);
                // The feasible subgraph is unchanged, so the planned tree
                // is the one the sequential loop would compute now. Its
                // accumulated-load check runs against the live residuals
                // it is about to be charged to: only the live verdict
                // matches the sequential decision.
                plan.admit(&self.sdn, req)
            }
            Speculation::Plan { .. } | Speculation::Lost => {
                self.report.replanned += 1;
                telemetry::hit(telemetry::Counter::EngineReplans);
                appro_multi_cap_with_scratch(&self.sdn, req, self.cfg.k, &mut self.scratch)
            }
            Speculation::Inline => {
                appro_multi_cap_with_scratch(&self.sdn, req, self.cfg.k, &mut self.scratch)
            }
        };

        if let Admission::Admitted(tree) = &decision {
            let alloc = tree.allocation(req);
            self.sessions
                .commit(&mut self.sdn, req.clone(), tree.clone())
                .expect("admitted tree fits residual capacities"); // lint:allow(P1): the tree was planned or validated on this exact residual state
            self.touch(&alloc);
            self.deadlines.insert(req.id, now + timed.duration);
            self.report.admitted += 1;
            self.mutations_since_publish += 1;
            if self.cfg.resilience.is_some() {
                // Protect at admission time. Reserved-policy reservations
                // move live residuals, so they enter the epoch delta like
                // any other commit.
                let charged = self
                    .sessions
                    .protect(&mut self.sdn, req.id, &mut self.scratch);
                for reservation in &charged {
                    self.touch(reservation);
                    self.mutations_since_publish += 1;
                }
            }
        } else {
            self.report.rejected += 1;
        }
        self.decisions.push(decision);
        self.check_invariants();
    }

    /// Releases every session whose departure time passed, in ascending
    /// id order — the same semantics as `ActiveSessions::release_due`.
    // lint:entry(committer)
    fn release_due(&mut self, now: f64) {
        let due: Vec<RequestId> = self
            .deadlines
            .iter()
            .filter(|(_, &dep)| dep <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            self.deadlines.remove(&id);
            let alloc = self.sessions.session(id).map(|s| s.allocation.clone());
            // The departure also hands back any reserved backup capacity;
            // snapshot those allocations before they are discarded.
            let reservations = self.sessions.reserved_backup_allocations(id);
            let outcome = self
                .sessions
                .depart(&mut self.sdn, id)
                .expect("a tracked session releases cleanly"); // lint:allow(P1): the allocation was applied at commit, so release balances
            if outcome == crate::repair::Departure::Released {
                if let Some(alloc) = alloc {
                    self.touch(&alloc);
                }
                for reservation in &reservations {
                    self.touch(reservation);
                    self.mutations_since_publish += 1;
                }
                self.report.departed += 1;
                self.mutations_since_publish += 1;
            }
            // Cancelled/Unknown: the session was torn down earlier (e.g.
            // by the repair service); nothing was released now.
        }
    }

    /// Records elements whose residuals just moved into the current
    /// epoch's delta (no-op in inline mode, which keeps no deltas).
    fn touch(&mut self, alloc: &sdn::Allocation) {
        if self.jobs.is_none() {
            return;
        }
        if let Some(delta) = self.deltas.get_mut(&self.epoch) {
            delta.absorb(alloc);
        }
    }

    /// Whether any element touched since snapshot `epoch` crossed `req`'s
    /// feasibility threshold between that snapshot and the live state.
    fn disturbed_since(&mut self, epoch: u64, snapshot: &Sdn, req: &MulticastRequest) -> bool {
        let mut scanned = 0usize;
        let disturbed = self.deltas.range(epoch..).any(|(_, delta)| {
            scanned += delta.links.len() + delta.servers.len();
            feasibility_disturbed(
                delta,
                |e| snapshot.usable_bandwidth(e),
                |v| snapshot.usable_computing(v),
                &self.sdn,
                req,
            )
        });
        self.report.disturbance_checks += scanned;
        disturbed
    }

    fn check_invariants(&self) {
        // The tree-health audit flags sessions on dead elements; without
        // a repair service that is a legitimate post-fault state, not an
        // engine bug, so auditing stops at the first fault.
        if self.cfg.repair.is_none() && self.faulted {
            return;
        }
        if self.auditor.is_enabled() {
            if let Err(e) = self.auditor.check(&self.sdn, &self.sessions) {
                panic!("pipeline invariant violated: {e}"); // lint:allow(P1): an audit failure is an engine bug, never workload-dependent
            }
        }
    }
}

/// Worker thread body: pull a job, plan it against the job's snapshot,
/// send the result. One persistent [`PathCache`](nfv_multicast::PathCache)
/// per worker carries shortest-path trees across requests *and*
/// snapshots — the fingerprint re-syncs whenever the snapshot version
/// moves, and the topology never changes under a running pipeline.
// lint:entry(worker)
fn worker_loop(
    jobs: &Mutex<mpsc::Receiver<PlanJob>>,
    results: &mpsc::Sender<PlanResult>,
    k: usize,
) {
    let mut cache: Option<nfv_multicast::PathCache> = None;
    loop {
        let job = {
            let Ok(guard) = jobs.lock() else {
                return; // a sibling worker panicked while holding the lock
            };
            match guard.recv() {
                Ok(job) => job,
                Err(_) => return, // channel closed: shutdown
            }
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cache = cache.get_or_insert_with(|| nfv_multicast::PathCache::new(&job.snapshot));
            nfv_multicast::appro_multi_cap_plan_cached(&job.snapshot, &job.request, k, cache)
        }));
        let plan = match outcome {
            Ok(plan) => Some(plan),
            Err(_) => {
                // The cache may be mid-update: rebuild before the next job.
                cache = None;
                None
            }
        };
        if results.send(PlanResult { seq: job.seq, plan }).is_err() {
            return; // committer gone: shutdown
        }
    }
}

/// Convenience driver: launches a pipeline, feeds `events` in order, and
/// finishes it.
///
/// # Errors
///
/// Propagates [`AdmissionPipeline::inject`] errors for unknown
/// links/servers in fault events.
pub fn run_stream<I>(
    sdn: Sdn,
    events: I,
    config: PipelineConfig,
) -> Result<PipelineOutcome, SdnError>
where
    I: IntoIterator<Item = StreamEvent>,
{
    let mut pipeline = AdmissionPipeline::launch(sdn, config);
    for event in events {
        match event {
            StreamEvent::Arrival(timed) => pipeline.push(timed),
            StreamEvent::Fault(fault) => {
                pipeline.inject(fault)?;
            }
        }
    }
    Ok(pipeline.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admit_sequential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sdn::{NfvType, SdnBuilder, ServiceChain};
    use workload::{OpenLoopWorkload, RequestGenerator};

    /// A ring of `n` 600 Mbps links with a server on every fourth node;
    /// seeded link and server weights let plans on different snapshots
    /// pick different arcs of the ring.
    fn ring_sdn(n: usize, seed: u64) -> Sdn {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bld = SdnBuilder::new();
        let nodes: Vec<_> = (0..n).map(|_| bld.add_switch()).collect();
        for i in 0..n {
            bld.add_link(nodes[i], nodes[(i + 1) % n], 600.0, rng.gen_range(0.5..2.0))
                .unwrap();
        }
        for i in (0..n).step_by(4) {
            bld.attach_server(nodes[i], 2_000.0, rng.gen_range(0.5..2.0))
                .unwrap();
        }
        bld.build().unwrap()
    }

    fn stream(n_nodes: usize, count: usize, seed: u64, mean_holding: f64) -> Vec<TimedRequest> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = RequestGenerator::new(n_nodes);
        OpenLoopWorkload::new(1.0, mean_holding)
            .generate(&mut gen, count, &mut rng)
            .into_iter()
            .map(|(req, arrival, duration)| TimedRequest::new(req, arrival, duration))
            .collect()
    }

    #[test]
    fn inline_mode_without_departures_matches_admit_sequential() {
        let requests = stream(16, 30, 1, f64::INFINITY);
        let plain: Vec<MulticastRequest> = requests.iter().map(|t| t.request.clone()).collect();
        let mut seq_net = ring_sdn(16, 1);
        let pipe_net = seq_net.clone();
        let seq = admit_sequential(&mut seq_net, &plain, 2);

        let mut pipeline = AdmissionPipeline::launch(pipe_net, PipelineConfig::new(2));
        for tr in requests {
            pipeline.push(tr);
        }
        let out = pipeline.finish();
        assert_eq!(out.decisions, seq);
        assert_eq!(out.sdn, seq_net);
        assert_eq!(out.report.admitted + out.report.rejected, seq.len());
        assert_eq!(out.report.speculative_hits, 0);
        assert_eq!(out.report.departed, 0);
    }

    #[test]
    fn pipelined_closed_batch_matches_admit_sequential_under_contention() {
        let mut rejected = 0;
        let mut replanned = 0;
        for seed in 0..6u64 {
            let requests = stream(24, 40, seed, f64::INFINITY);
            let plain: Vec<MulticastRequest> = requests.iter().map(|t| t.request.clone()).collect();
            let mut seq_net = ring_sdn(24, seed);
            let pipe_net = seq_net.clone();
            let seq = admit_sequential(&mut seq_net, &plain, 2);

            let cfg = PipelineConfig::new(2)
                .with_workers(4)
                .with_window(6)
                .with_refresh(6);
            let mut pipeline = AdmissionPipeline::launch(pipe_net, cfg);
            for tr in requests {
                pipeline.push(tr);
            }
            let out = pipeline.finish();
            assert_eq!(out.decisions, seq, "seed {seed}: decisions diverged");
            assert_eq!(out.sdn, seq_net, "seed {seed}: residual state diverged");
            rejected += out.report.rejected;
            replanned += out.report.replanned;
        }
        assert!(rejected > 0, "the ring must run out of capacity");
        assert!(replanned > 0, "commits must disturb in-flight plans");
    }

    #[test]
    fn pipelined_matches_inline_with_departures() {
        for workers in [1, 2, 3] {
            let events = stream(24, 50, 7, 12.0);
            let net = ring_sdn(24, 7);
            let reference = {
                let mut p = AdmissionPipeline::launch(net.clone(), PipelineConfig::new(2));
                for tr in events.clone() {
                    p.push(tr);
                }
                p.finish()
            };
            let mut p = AdmissionPipeline::launch(
                net,
                PipelineConfig::new(2).with_workers(workers).with_window(6),
            );
            for tr in events {
                p.push(tr);
            }
            let out = p.finish();
            assert_eq!(out.decisions, reference.decisions, "workers = {workers}");
            assert_eq!(out.sdn, reference.sdn, "workers = {workers}");
            assert_eq!(out.report.departed, reference.report.departed);
            assert!(out.report.departed > 0, "workload must exercise departures");
        }
    }

    #[test]
    fn fault_events_drain_the_window_and_trigger_repair() {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let m1 = bld.add_server(4_000.0, 1.0);
        let m2 = bld.add_server(4_000.0, 1.0);
        let d = bld.add_switch();
        let e0 = bld.add_link(s, m1, 1_000.0, 1.0).unwrap();
        let e1 = bld.add_link(m1, d, 1_000.0, 1.0).unwrap();
        let _ = bld.add_link(s, m2, 1_000.0, 3.0).unwrap();
        let _ = bld.add_link(m2, d, 1_000.0, 3.0).unwrap();
        let net = bld.build().unwrap();
        let chain = ServiceChain::new(vec![NfvType::Firewall]);
        let req = MulticastRequest::new(RequestId(0), s, vec![d], 100.0, chain);

        let cfg = PipelineConfig::new(1)
            .with_workers(2)
            .with_repair(RepairConfig::new(1));
        let mut p = AdmissionPipeline::launch(net, cfg);
        p.push(TimedRequest::new(req, 0.0, 1e9));
        assert_eq!(p.depth(), 1);
        // The session routes via the cheap path through m1. Killing e1
        // drains the window (committing the admission) and reroutes the
        // session through m2.
        let report = p.inject(FaultEvent::FailLink(e1)).unwrap();
        assert_eq!(p.depth(), 0);
        assert_eq!(report.broken, vec![RequestId(0)]);
        assert_eq!(report.repaired, vec![RequestId(0)]);
        let out = p.finish();
        assert_eq!(
            out.sessions
                .session(RequestId(0))
                .unwrap()
                .tree
                .servers_used(),
            vec![m2]
        );
        assert_eq!(out.report.admitted, 1);
        // The original cheap-path links are free again.
        assert_eq!(
            out.sdn.residual_bandwidth(e0),
            out.sdn.bandwidth_capacity(e0)
        );
    }

    #[test]
    fn run_stream_mixes_arrivals_and_faults() {
        let net = ring_sdn(16, 3);
        let arrivals = stream(16, 10, 3, f64::INFINITY);
        let some_link = net.graph().edges().next().unwrap().id;
        let mut events: Vec<StreamEvent> = arrivals.into_iter().map(StreamEvent::Arrival).collect();
        events.insert(5, StreamEvent::Fault(FaultEvent::FailLink(some_link)));
        events.push(StreamEvent::Fault(FaultEvent::RecoverLink(some_link)));
        let cfg = PipelineConfig::new(2)
            .with_workers(2)
            .with_repair(RepairConfig::new(2));
        let out = run_stream(net, events, cfg).unwrap();
        assert_eq!(out.decisions.len(), 10);
    }

    #[test]
    fn resilient_pipeline_fails_over_without_a_plan_event() {
        use crate::resilience::{BackupPolicy, ResilienceConfig};
        for policy in [BackupPolicy::BestEffort, BackupPolicy::Reserved] {
            let mut bld = SdnBuilder::new();
            let s = bld.add_switch();
            let m1 = bld.add_server(4_000.0, 1.0);
            let m2 = bld.add_server(4_000.0, 1.0);
            let d = bld.add_switch();
            let _ = bld.add_link(s, m1, 1_000.0, 1.0).unwrap();
            let e1 = bld.add_link(m1, d, 1_000.0, 1.0).unwrap();
            let _ = bld.add_link(s, m2, 1_000.0, 3.0).unwrap();
            let _ = bld.add_link(m2, d, 1_000.0, 3.0).unwrap();
            let net = bld.build().unwrap();
            let chain = ServiceChain::new(vec![NfvType::Firewall]);
            let req = MulticastRequest::new(RequestId(0), s, vec![d], 100.0, chain);

            let cfg = PipelineConfig::new(1)
                .with_workers(2)
                .with_repair(RepairConfig::new(1))
                .with_resilience(ResilienceConfig::new(1).with_policy(policy).with_top_f(2));
            let mut p = AdmissionPipeline::launch(net, cfg);
            p.push(TimedRequest::new(req, 0.0, 1e9));
            // The protected session fails over with zero planner work.
            let report = p.inject(FaultEvent::FailLink(e1)).unwrap();
            assert_eq!(report.swapped, vec![RequestId(0)], "{policy:?}");
            assert!(report.repaired.is_empty());
            assert_eq!(report.plan_events, 0, "{policy:?}");
            let out = p.finish();
            assert_eq!(
                out.sessions
                    .session(RequestId(0))
                    .unwrap()
                    .tree
                    .servers_used(),
                vec![m2]
            );
        }
    }

    #[test]
    #[should_panic(expected = "nondecreasing time order")]
    fn out_of_order_arrivals_panic() {
        let requests = stream(8, 2, 5, f64::INFINITY);
        let mut p = AdmissionPipeline::launch(ring_sdn(8, 5), PipelineConfig::new(1));
        p.push(requests[1].clone());
        p.push(requests[0].clone());
    }
}
