//! The four paper workloads, their admission loops, and the replay that
//! checks every decision against the ledger.
//!
//! Every loop is closed and single-process: the next arrival is offered
//! once the previous decision is made. Arrival and departure times are
//! simulated time that decides which sessions have left before each
//! arrival; they are not wall-clock schedules.

use crate::digest::Digest;
use crate::gen::{self, Shape};
use crate::host;
use crate::trace::Tracer;
use netgraph::NodeId;
use nfv_engine::{AdmissionPipeline, PipelineConfig};
use nfv_multicast::{appro_multi_cap_plan_cached, Admission, PathCache, PseudoMulticastTree};
use nfv_online::{ActiveSessions, OnlineAlgorithm, OnlineCp, TimedRequest};
use sdn::{Allocation, MulticastRequest, RequestId, Sdn};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// 250-switch Waxman network with 25 servers (Figs. 5 and 7).
    Waxman250,
    /// The AS1755 ISP topology: 87 PoPs, 9 servers (Figs. 6 and 9).
    As1755,
    /// The k = 64 fat-tree: 5 120 nodes, 32 servers.
    FatTree5120,
}

impl Topology {
    /// The network with the paper's capacity ranges. The topology and its
    /// capacities are fixed; the workload seed drives only the requests.
    #[must_use]
    pub fn build(self) -> Sdn {
        match self {
            Topology::Waxman250 => sim::waxman_sdn(250, 0),
            Topology::As1755 => sim::isp_sdn(0),
            Topology::FatTree5120 => sim::fat_tree_sdn(64, 32, 0),
        }
    }

    #[must_use]
    pub fn nodes(self) -> usize {
        match self {
            Topology::Waxman250 => 250,
            Topology::As1755 => 87,
            Topology::FatTree5120 => 5_120,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The sequential reference loop with one warm `PathCache`:
    /// `appro_multi_cap_plan_cached`, `CapPlan::admit`, `Sdn::allocate`.
    Sequential { k: usize },
    /// `Online_CP`; `landmarks > 0` turns on the oracle-ordered scan.
    Online { landmarks: usize },
    /// `AdmissionPipeline` with one worker per CPU; the committer runs on
    /// the benchmark thread.
    Pipeline { k: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub topology: Topology,
    pub engine: Engine,
    pub shape: Shape,
    /// Requests in one pass over the stream.
    pub requests: usize,
    /// Wall time of one pass on the reference host; a timed run of
    /// `--seconds` makes `seconds / pass_s` passes (see
    /// [`Workload::passes`]).
    pub pass_s: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "waxman250-k3",
        why: "Fig. 5/7 Waxman, K=3, sequential loop with a warm PathCache: the combination scan is nearly all the time",
        topology: Topology::Waxman250,
        engine: Engine::Sequential { k: 3 },
        shape: Shape {
            dmax_ratio: (0.05, 0.2),
            bandwidth: (50.0, 200.0),
            erlangs: 200.0,
        },
        requests: 240,
        pass_s: 11.0,
    },
    Workload {
        name: "as1755-online",
        why: "Fig. 6/9 AS1755 Online_CP with departures: sub-ms decisions, so graph rebuilds, the ledger and sessions weigh most",
        topology: Topology::As1755,
        engine: Engine::Online { landmarks: 0 },
        shape: Shape {
            dmax_ratio: (0.05, 0.2),
            bandwidth: (50.0, 200.0),
            erlangs: 90.0,
        },
        requests: 3_000,
        pass_s: 2.5,
    },
    Workload {
        name: "fattree5120-stream",
        why: "Appro_Multi_Cap through AdmissionPipeline on the 5120-node fat-tree: SSSP dominates and speculation commits and replans",
        topology: Topology::FatTree5120,
        engine: Engine::Pipeline { k: 2 },
        shape: Shape {
            dmax_ratio: (0.0015, 0.0015),
            bandwidth: (50.0, 400.0),
            erlangs: 20.0,
        },
        requests: 400,
        pass_s: 4.0,
    },
    Workload {
        name: "fattree5120-oracle",
        why: "Online_CP with the landmark oracle on the fat-tree with hot demands: the only run of the oracle and the terminal SPT bank",
        topology: Topology::FatTree5120,
        engine: Engine::Online { landmarks: 8 },
        shape: Shape {
            dmax_ratio: (0.0015, 0.0015),
            bandwidth: (400.0, 900.0),
            erlangs: 20.0,
        },
        requests: 140,
        pass_s: 18.0,
    },
];

/// The fewest passes a timed run makes, so every decision's median is
/// taken over several host phases.
pub const MIN_PASSES: usize = 3;

#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The admission state a pass starts from, built once per set-up.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one per set-up; boxing would buy nothing
pub enum State {
    /// A `PathCache` holding the shortest-path trees of every server and of
    /// the first request's source (see [`warm_cache`]).
    Cache(PathCache),
    /// `Online_CP` with the admission graph for the first arrival's
    /// bandwidth built.
    Online(OnlineCp),
    /// Nothing beyond the network: every `AdmissionPipeline` worker builds
    /// its own cache, so a pass launches a pipeline on the bare network.
    Network,
}

/// A `PathCache` with the shortest-path trees of every server and of
/// `first`'s source built, as the sequential loop starts from.
#[must_use]
pub fn warm_cache(sdn: &Sdn, first: &TimedRequest) -> PathCache {
    let mut cache = PathCache::new(sdn);
    for &v in sdn.servers() {
        let _ = cache.spt(v);
    }
    let _ = cache.spt(first.request.source);
    cache
}

#[derive(Debug, Clone)]
pub struct Prepared {
    pub sdn: Sdn,
    pub state: State,
}

impl Workload {
    /// The seeded request stream; see [`gen::stream`].
    #[must_use]
    pub fn stream(&self, seed: u64, requests: usize) -> Vec<TimedRequest> {
        gen::stream(&self.shape, self.topology.nodes(), seed, requests)
    }

    /// Passes a timed run of `seconds` makes: as many as last that long
    /// on the reference host, and at least [`MIN_PASSES`]. The count does
    /// not depend on how fast this host or the code runs, so each
    /// decision's median is always taken over the same number of tries.
    #[must_use]
    pub fn passes(&self, seconds: f64) -> usize {
        ((seconds / self.pass_s).round() as usize).max(MIN_PASSES)
    }

    /// Builds the network and the admission state, including every lazy
    /// build the first decision would otherwise pay.
    #[must_use]
    pub fn prepare(&self, first: &TimedRequest) -> Prepared {
        let sdn = self.topology.build();
        let state = match self.engine {
            Engine::Sequential { .. } => State::Cache(warm_cache(&sdn, first)),
            Engine::Pipeline { .. } => State::Network,
            Engine::Online { landmarks } => {
                let mut algo = OnlineCp::new().with_oracle(landmarks);
                // The admission graph (and its oracle) is cached per
                // bandwidth and network version, so a probe with the first
                // arrival's bandwidth builds the graph the first decision
                // reuses. One fixed destination keeps the probe's own
                // candidate scan small and the same for every seed.
                let probe = MulticastRequest::new(
                    RequestId(u64::MAX),
                    NodeId::new(0),
                    vec![NodeId::new(1)],
                    first.request.bandwidth,
                    first.request.chain.clone(),
                );
                let _ = algo.admit(&sdn, &probe);
                State::Online(algo)
            }
        };
        Prepared { sdn, state }
    }
}

/// Per-pass pipeline figures.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    pub speculative_hits: usize,
    pub replanned: usize,
    pub stalls: u64,
    pub snapshots: u64,
    pub worker_busy_ratio: f64,
    pub committer_busy_ratio: f64,
}

/// One pass over the stream.
#[derive(Debug, Clone)]
pub struct Pass {
    pub decisions: Vec<Option<PseudoMulticastTree>>,
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub final_sdn: Sdn,
    /// Decisions whose commit the ledger refused.
    pub failed: usize,
    pub departed: usize,
    pub fast_path: u64,
    pub slow_path: u64,
    pub pipeline: Option<PipelineStats>,
}

impl Pass {
    #[must_use]
    pub fn digest(&self, stream: &[TimedRequest]) -> u64 {
        let mut d = Digest::default();
        for (tr, tree) in stream.iter().zip(&self.decisions) {
            d.push_decision(tr.request.id.0, tree.as_ref());
        }
        d.value()
    }

    #[must_use]
    pub fn admitted(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_some()).count()
    }

    #[must_use]
    pub fn cost_sum(&self) -> f64 {
        self.decisions
            .iter()
            .flatten()
            .map(PseudoMulticastTree::total_cost)
            .sum()
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs one pass of `engine` from `prep` over `stream`.
pub fn run_pass(engine: Engine, prep: &Prepared, stream: &[TimedRequest], tr: &mut Tracer) -> Pass {
    match (engine, &prep.state) {
        (Engine::Sequential { k }, State::Cache(cache)) => {
            sequential_pass(k, &prep.sdn, cache.clone(), stream, tr)
        }
        (Engine::Online { .. }, State::Online(algo)) => {
            online_pass(&prep.sdn, algo.clone(), stream, tr)
        }
        (Engine::Pipeline { k }, State::Network) => pipeline_pass(k, &prep.sdn, stream, tr),
        _ => unreachable!("prepare builds the state its engine needs"),
    }
}

/// The sequential reference loop: release due departures, plan through
/// the warm `PathCache`, run the admission check, allocate.
pub fn sequential_pass(
    k: usize,
    base: &Sdn,
    mut cache: PathCache,
    stream: &[TimedRequest],
    tr: &mut Tracer,
) -> Pass {
    let (fast0, slow0) = (cache.fast_path_count(), cache.slow_path_count());
    let mut pass = closed_loop(base, stream, tr, |sdn, req, tr| {
        let s = tr.enter("core.plan", Some(req.id.0));
        let plan = appro_multi_cap_plan_cached(sdn, req, k, &mut cache);
        tr.exit(s);
        let s = tr.enter("core.admit_check", Some(req.id.0));
        let admission = plan.admit(sdn, req);
        tr.exit(s);
        admission.into_tree()
    });
    pass.fast_path = cache.fast_path_count() - fast0;
    pass.slow_path = cache.slow_path_count() - slow0;
    pass
}

/// The `Online_CP` loop: release due departures, admit, allocate.
fn online_pass(base: &Sdn, mut algo: OnlineCp, stream: &[TimedRequest], tr: &mut Tracer) -> Pass {
    closed_loop(base, stream, tr, |sdn, req, tr| {
        let s = tr.enter("online.admit", Some(req.id.0));
        let tree = algo.admit(sdn, req);
        tr.exit(s);
        tree
    })
}

/// One closed-loop pass: for each arrival, release the sessions due by
/// then, `decide`, and allocate an admitted tree. A decision's latency
/// covers all three.
fn closed_loop(
    base: &Sdn,
    stream: &[TimedRequest],
    tr: &mut Tracer,
    mut decide: impl FnMut(&Sdn, &MulticastRequest, &mut Tracer) -> Option<PseudoMulticastTree>,
) -> Pass {
    let mut sdn = base.clone();
    let mut active = ActiveSessions::new();
    let mut decisions = Vec::with_capacity(stream.len());
    let mut latencies_ms = Vec::with_capacity(stream.len());
    let (mut failed, mut departed) = (0, 0);
    let start = Instant::now();
    for timed in stream {
        let req = &timed.request;
        let id = Some(req.id.0);
        let t0 = Instant::now();
        let root = tr.enter("decision", id);
        let s = tr.enter("sessions.release_due", id);
        departed += active.release_due(&mut sdn, timed.arrival);
        tr.exit(s);
        let tree = decide(&sdn, req, tr);
        if let Some(tree) = &tree {
            let s = tr.enter("sdn.allocate", id);
            let alloc = tree.allocation(req);
            let ok = sdn.allocate(&alloc).is_ok();
            tr.exit(s);
            if ok {
                active.insert(req.id, timed.arrival + timed.duration, alloc);
            } else {
                failed += 1;
            }
        }
        tr.exit(root);
        latencies_ms.push(ms_since(t0));
        decisions.push(tree);
    }
    Pass {
        decisions,
        latencies_ms,
        wall_s: start.elapsed().as_secs_f64(),
        final_sdn: sdn,
        failed,
        departed,
        fast_path: 0,
        slow_path: 0,
        pipeline: None,
    }
}

/// The pipeline loop. A decision's latency runs from the start of its
/// `push` to the first moment the committed count passes its index.
fn pipeline_pass(k: usize, base: &Sdn, stream: &[TimedRequest], tr: &mut Tracer) -> Pass {
    let workers = host::nproc();
    let config = PipelineConfig::new(k)
        .with_workers(workers)
        .with_window(6)
        .with_refresh(6);
    let owned: Vec<TimedRequest> = stream.to_vec();
    let sdn = base.clone();
    let me = host::current_tid();
    let before: BTreeMap<u64, u64> = host::thread_schedstats()
        .into_iter()
        .map(|(tid, run, _)| (tid, run))
        .collect();
    let mut started: Vec<Instant> = Vec::with_capacity(stream.len());
    let mut latencies_ms = vec![0.0; stream.len()];
    let mut observed = 0usize;
    let start = Instant::now();
    let mut pipe = AdmissionPipeline::launch(sdn, config);
    for timed in owned {
        let id = Some(timed.request.id.0);
        started.push(Instant::now());
        let s = tr.enter("engine.push", id);
        pipe.push(timed);
        tr.exit(s);
        let done = pipe.report().admitted + pipe.report().rejected;
        while observed < done {
            latencies_ms[observed] = ms_since(started[observed]);
            observed += 1;
        }
    }
    // Workers exit inside `finish`, so their CPU time is read first.
    let wall_ns = start.elapsed().as_nanos() as f64;
    let mut worker_ns = 0u64;
    let mut committer_ns = 0u64;
    for (tid, run, _) in host::thread_schedstats() {
        let delta = run.saturating_sub(before.get(&tid).copied().unwrap_or(0));
        if Some(tid) == me {
            committer_ns = delta;
        } else if !before.contains_key(&tid) {
            worker_ns += delta;
        }
    }
    let s = tr.enter("engine.finish", None);
    let out = pipe.finish();
    tr.exit(s);
    while observed < stream.len() {
        latencies_ms[observed] = ms_since(started[observed]);
        observed += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let decisions = out
        .decisions
        .into_iter()
        .map(Admission::into_tree)
        .collect();
    Pass {
        decisions,
        latencies_ms,
        wall_s,
        final_sdn: out.sdn,
        failed: 0,
        departed: out.report.departed,
        fast_path: 0,
        slow_path: 0,
        pipeline: Some(PipelineStats {
            speculative_hits: out.report.speculative_hits,
            replanned: out.report.replanned,
            stalls: out.report.stalls,
            snapshots: out.report.snapshots_published,
            worker_busy_ratio: worker_ns as f64 / (workers as f64 * wall_ns),
            committer_busy_ratio: committer_ns as f64 / wall_ns,
        }),
    }
}

/// Replays a pass's decisions on a fresh copy of the network with an
/// independent session table, and checks that
///
/// - every admitted tree is valid for its request and fits the ledger
///   state it was admitted on;
/// - the replayed ledger equals the pass's final ledger;
/// - releasing every live session returns each residual to the fresh
///   network's within `sdn::RELEASE_EPS`.
///
/// Each release of the final drain is traced as `sdn.release`.
pub fn verify(
    fresh: &Sdn,
    stream: &[TimedRequest],
    pass: &Pass,
    tr: &mut Tracer,
) -> Result<(), String> {
    if pass.decisions.len() != stream.len() {
        return Err(format!(
            "{} decisions for {} arrivals",
            pass.decisions.len(),
            stream.len()
        ));
    }
    let mut sdn = fresh.clone();
    let mut live: BTreeMap<RequestId, (f64, Allocation)> = BTreeMap::new();
    let release = |sdn: &mut Sdn, alloc: &Allocation, tr: &mut Tracer| {
        let s = tr.enter("sdn.release", Some(alloc.request().0));
        let r = sdn.release(alloc);
        tr.exit(s);
        r.map_err(|e| format!("release of {} refused: {e}", alloc.request()))
    };
    for (timed, decision) in stream.iter().zip(&pass.decisions) {
        let req = &timed.request;
        let due: Vec<RequestId> = live
            .iter()
            .filter(|(_, (dep, _))| *dep <= timed.arrival)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            if let Some((_, alloc)) = live.remove(&id) {
                release(&mut sdn, &alloc, tr)?;
            }
        }
        let Some(tree) = decision else { continue };
        if tree.request != req.id {
            return Err(format!("tree for {} answers {}", tree.request, req.id));
        }
        tree.validate(&sdn, req)
            .map_err(|e| format!("invalid tree for {}: {e}", req.id))?;
        let alloc = tree.allocation(req);
        sdn.allocate(&alloc)
            .map_err(|e| format!("tree for {} exceeds the ledger: {e}", req.id))?;
        live.insert(req.id, (timed.arrival + timed.duration, alloc));
    }
    if sdn != pass.final_sdn {
        return Err("replayed ledger differs from the pass's final ledger".into());
    }
    let root = tr.enter("drain", None);
    for (_, (_, alloc)) in std::mem::take(&mut live) {
        release(&mut sdn, &alloc, tr)?;
    }
    tr.exit(root);
    residuals_restored(fresh, &sdn)
}

/// Residuals of `drained` equal `fresh`'s within the release tolerance.
pub fn residuals_restored(fresh: &Sdn, drained: &Sdn) -> Result<(), String> {
    let eps = sdn::RELEASE_EPS;
    let close = |a: f64, b: f64| (a - b).abs() <= eps * a.abs().max(1.0);
    for e in fresh.graph().edges().map(|r| r.id) {
        let (a, b) = (fresh.residual_bandwidth(e), drained.residual_bandwidth(e));
        if !close(a, b) {
            return Err(format!("link {e} residual {b} after drain, fresh {a}"));
        }
    }
    for &v in fresh.servers() {
        let (a, b) = (fresh.residual_computing(v), drained.residual_computing(v));
        match (a, b) {
            (Some(a), Some(b)) if close(a, b) => {}
            _ => {
                return Err(format!(
                    "server {v} residual {b:?} after drain, fresh {a:?}"
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_valid_and_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::report::valid_name(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
        }
    }

    #[test]
    fn pass_count_follows_seconds_only() {
        let w = find("as1755-online").expect("listed");
        assert_eq!(w.passes(40.0), 16);
        assert_eq!(w.passes(0.1), MIN_PASSES);
        for w in &WORKLOADS {
            assert!(w.passes(40.0) >= MIN_PASSES);
        }
    }

    #[test]
    fn topology_sizes_match() {
        for t in [Topology::Waxman250, Topology::As1755, Topology::FatTree5120] {
            assert_eq!(t.nodes(), t.build().node_count());
        }
    }

    #[test]
    fn verify_accepts_a_real_pass_and_rejects_a_tampered_one() {
        let w = find("as1755-online").expect("listed");
        let stream = w.stream(3, 150);
        let prep = w.prepare(&stream[0]);
        let pass = run_pass(w.engine, &prep, &stream, &mut Tracer::new(false));
        assert_eq!(pass.failed, 0);
        let mut tr = Tracer::new(true);
        verify(&prep.sdn, &stream, &pass, &mut tr).expect("a real pass verifies");
        assert!(tr.spans().iter().any(|s| s.name == "sdn.release"));

        // Dropping one admitted tree leaves the final ledger unexplained.
        let mut tampered = pass.clone();
        let i = tampered
            .decisions
            .iter()
            .position(Option::is_some)
            .expect("something is admitted");
        tampered.decisions[i] = None;
        assert!(verify(&prep.sdn, &stream, &tampered, &mut Tracer::new(false)).is_err());

        // A tree moved to another request is refused.
        let mut moved = pass;
        let tree = moved.decisions[i].clone();
        let j = moved
            .decisions
            .iter()
            .position(Option::is_none)
            .expect("a rejection");
        moved.decisions[j] = tree;
        assert!(verify(&prep.sdn, &stream, &moved, &mut Tracer::new(false)).is_err());
    }

    #[test]
    fn sequential_pass_is_repeatable() {
        let w = find("waxman250-k3").expect("listed");
        let stream = w.stream(1, 12);
        let prep = w.prepare(&stream[0]);
        let a = run_pass(w.engine, &prep, &stream, &mut Tracer::new(false));
        let b = run_pass(w.engine, &prep, &stream, &mut Tracer::new(true));
        assert_eq!(a.digest(&stream), b.digest(&stream));
        assert_eq!(a.final_sdn, b.final_sdn);
    }
}
