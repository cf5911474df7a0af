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
//! sequential decision. Every decision — speculative, re-planned, or
//! inline — comes from the one cached planner
//! ([`nfv_multicast::appro_multi_cap_cached`] over handles on one tree
//! store), so all of them break equal-cost ties by the same rule (see
//! [`nfv_multicast::appro_multi_cached`]). Decisions, trees, and the final
//! residual state are therefore **byte-identical to the sequential
//! reference** [`crate::admit_sequential`], which plans through the same
//! planner, regardless of worker count, window size, or thread
//! scheduling, on any network; the property tests in
//! `tests/tests/pipeline_properties.rs` pin this, on integer link costs
//! too.
//!
//! Pipeline *telemetry* is the deliberate exception: stall counts,
//! snapshot staleness, and commit-queue depth measure scheduling, so they
//! vary run to run. No telemetry `Event`s are recorded from worker
//! threads (events carry logical sequence numbers; only the committer
//! records them), which keeps the event log deterministic.
//!
//! ## Services
//!
//! The committer admits and departs, nothing else: each arrival first
//! departs the sessions due at its arrival time, then is decided and,
//! when admitted, charged to the ledger and kept in one
//! [`ActiveSessions`] table. Debug builds run the invariant
//! [`audit`] after every decision. Faults, repair and backup protection
//! belong to [`SessionManager`](crate::SessionManager), which the chaos
//! and churn replays drive directly.

use crate::audit::audit;
use crate::repair::CommittedSession;
use crate::spec::{feasibility_disturbed, TouchedSet};
use nfv_multicast::{appro_multi_cap_cached, Admission, CapPlan, PathCache};
use nfv_online::{ActiveSessions, TimedRequest};
use sdn::{MulticastRequest, Sdn};
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
    /// (commits + releases) happened since the last one. `1`
    /// republishes on any staleness, minimizing replans at the cost of
    /// one `Sdn` clone per mutation burst.
    pub refresh: usize,
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
    /// The sessions still live at the end of the stream, with their
    /// requests and trees.
    pub sessions: ActiveSessions<CommittedSession>,
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
/// arrivals in nondecreasing arrival-time order, as the workload
/// generators produce them (`nfv_online::run_dynamic` sorts its input
/// before its replay; the pipeline does not).
pub struct AdmissionPipeline {
    cfg: PipelineConfig,
    sdn: Sdn,
    sessions: ActiveSessions<CommittedSession>,
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
    last_arrival: f64,
    decisions: Vec<Admission>,
    report: PipelineReport,
    /// The committer's handle on the workers' tree store: inline and
    /// re-planned decisions use the workers' planner, so every decision
    /// follows one tie rule.
    cache: PathCache,
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
        let cache = PathCache::new(&sdn);
        let jobs = if config.workers == 0 {
            None
        } else {
            let shared = Arc::new(Mutex::new(job_rx));
            for _ in 0..config.workers {
                let rx = Arc::clone(&shared);
                let tx = result_tx.clone();
                let k = config.k;
                let cache = cache.share();
                handles.push(std::thread::spawn(move || worker_loop(&rx, &tx, k, cache)));
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
            sessions: ActiveSessions::default(),
            window: VecDeque::new(),
            reorder: BTreeMap::new(),
            deltas,
            snapshot,
            epoch: 0,
            mutations_since_publish: 0,
            next_seq: 0,
            last_arrival: f64::NEG_INFINITY,
            decisions: Vec::new(),
            report,
            cache,
            jobs,
            results: result_rx,
            handles,
        }
    }

    /// Offers one timed arrival to the daemon. Departures are implicit:
    /// every session admitted at time `t` with duration `d` is released
    /// by the first commit at time `>= t + d` (the same lazy-release
    /// semantics as the online replay behind `nfv_online::run_dynamic`
    /// and `run_online`).
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

    /// Commits every in-flight decision. The pipeline stays usable.
    pub fn drain(&mut self) {
        while !self.window.is_empty() {
            self.commit_head();
        }
    }

    /// Drains the window, stops the worker pool, and hands back the final
    /// network, the decision log, and the live sessions. No decision is
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
        // Departures release in ascending id order, as the sequential
        // replay does; each moves live residuals.
        for id in self.sessions.due(now) {
            if let Some(s) = self.sessions.depart(&mut self.sdn, id) {
                self.touch(&s.allocation);
                self.report.departed += 1;
                self.mutations_since_publish += 1;
            }
        }
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
                appro_multi_cap_cached(&self.sdn, req, self.cfg.k, &mut self.cache)
            }
            Speculation::Inline => {
                appro_multi_cap_cached(&self.sdn, req, self.cfg.k, &mut self.cache)
            }
        };

        if let Admission::Admitted(tree) = &decision {
            let alloc = tree.allocation(req);
            self.sdn
                .allocate(&alloc)
                .expect("admitted tree fits residual capacities"); // lint:allow(P1): the tree was planned or validated on this exact residual state
            self.touch(&alloc);
            self.sessions.insert_with(
                req.id,
                now + timed.duration,
                alloc,
                CommittedSession {
                    request: req.clone(),
                    tree: tree.clone(),
                },
            );
            self.report.admitted += 1;
            self.mutations_since_publish += 1;
        } else {
            self.report.rejected += 1;
        }
        self.decisions.push(decision);
        self.check_invariants();
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
            feasibility_disturbed(delta, snapshot, &self.sdn, req)
        });
        self.report.disturbance_checks += scanned;
        disturbed
    }

    fn check_invariants(&self) {
        if cfg!(debug_assertions) {
            if let Err(e) = audit(&self.sdn, self.sessions.iter(), []) {
                panic!("pipeline invariant violated: {e}"); // lint:allow(P1): an audit failure is an engine bug, never workload-dependent
            }
        }
    }
}

/// Worker thread body: pull a job, plan it against the job's snapshot,
/// send the result. Every worker plans through its own
/// [`PathCache::share`] of one cache, so a shortest-path tree any worker
/// computed serves all of them, across requests *and* snapshots — each
/// handle's fingerprint re-syncs whenever the snapshot version moves, and
/// the topology never changes under a running pipeline.
// lint:entry(worker)
fn worker_loop(
    jobs: &Mutex<mpsc::Receiver<PlanJob>>,
    results: &mpsc::Sender<PlanResult>,
    k: usize,
    mut cache: PathCache,
) {
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
            nfv_multicast::appro_multi_cap_plan_cached(&job.snapshot, &job.request, k, &mut cache)
        }));
        let plan = match outcome {
            Ok(plan) => Some(plan),
            Err(_) => {
                // The handle's working memory may be mid-update: take a
                // fresh handle on the same store before the next job.
                cache = cache.share();
                None
            }
        };
        if results.send(PlanResult { seq: job.seq, plan }).is_err() {
            return; // committer gone: shutdown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admit_sequential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sdn::SdnBuilder;
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
    #[should_panic(expected = "nondecreasing time order")]
    fn out_of_order_arrivals_panic() {
        let requests = stream(8, 2, 5, f64::INFINITY);
        let mut p = AdmissionPipeline::launch(ring_sdn(8, 5), PipelineConfig::new(1));
        p.push(requests[1].clone());
        p.push(requests[0].clone());
    }
}
