//! `Online_CP` (Algorithm 2): online admission with the exponential cost
//! model and LCA-based pseudo-multicast trees.

use crate::OnlineAlgorithm;
use netgraph::{
    CsrGraph, DijkstraScratch, EdgeId, Graph, LandmarkOracle, NodeId, RootedTree, RootingScratch,
    UnionFind,
};
use nfv_multicast::{PseudoMulticastTree, ServerUse};
use sdn::{ExponentialCostModel, FeasibleGraph, LinearCostModel, MulticastRequest, Sdn};
use steiner::{SteinerTree, TerminalSptBank};

/// How `Online_CP` prices residual resources when weighting the admission
/// graph `G_k`.
///
/// The paper's algorithm uses [`CostMode::Exponential`]; the linear mode
/// exists for the ablation benches, which quantify how much of the
/// throughput gain comes from workload-aware pricing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostMode {
    /// Eq. 1–2 with `α = β = 2|V|` (the paper's setting).
    #[default]
    Exponential,
    /// Load-oblivious unit prices (`w_e = c_e`, `w_v = c_v`), thresholds
    /// disabled.
    Linear,
}

/// How the bandwidth admission threshold `σ_e = |V| − 1` is applied.
///
/// Algorithm 2's listing (line 9) writes the rejection condition as a sum
/// over the tree, `Σ_{e∈T} w_e(k) ≥ σ_e`; the competitive analysis
/// (Lemma 1, inequality (8); Lemma 2 Case 2) only ever needs the
/// *per-edge* bound `w_e(k) < σ_e`, which each summand inherits from the
/// sum. The sum rule rejects trees once mean link utilization passes
/// roughly `log(|V|/|T|)/log(2|V|)` (≈ 40 % in the paper's parameter
/// range), stranding most of the network's capacity — irreconcilable with
/// the throughput the paper reports for `Online_CP`. The per-edge rule
/// keeps admitting until individual links approach
/// `log|V|/log(2|V|) ≈ 87 %` utilization and satisfies the same analysis,
/// so it is the default; `sim ablation` measures both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThresholdRule {
    /// `w_e(k) < σ_e` must hold for every tree edge individually.
    #[default]
    PerEdge,
    /// `Σ_{e∈T} w_e(k) < σ_e` over the whole tree (the literal line 9).
    TreeSum,
}

/// Cached admission graph `G_k` for one `(Sdn::version, bandwidth)` pair.
///
/// The exponential weights are a pure function of the residual state, so
/// the cache stays valid exactly until the next successful allocation,
/// release, or reset bumps [`Sdn::version`]. Rejections do not move the
/// version — under saturation, where most arrivals are rejected, this
/// removes the full graph rebuild from the hot path. A stale cache is
/// rebuilt in place: the graph, its edge map and the σ-cut keep their
/// allocations from one generation to the next.
#[derive(Debug, Clone, Default)]
struct AdmissionGraphCache {
    /// The `(Sdn::version, bandwidth bits)` the graph was built for;
    /// `None` before the first build.
    key: Option<(u64, u64)>,
    graph: FeasibleGraph,
    /// Landmark oracle over `graph` (present only in oracle mode):
    /// admissible lower bounds on weighted-graph distances, rebuilt
    /// together with the graph it describes so it can never go stale.
    oracle: Option<LandmarkOracle>,
    /// The σ-cut of `graph` (present only under
    /// [`CostMode::Exponential`], the one mode with thresholds).
    cut: Option<SigmaCut>,
}

impl AdmissionGraphCache {
    /// Brings the cache up to date for bandwidth `b` against `sdn`'s
    /// residual state, with the landmark oracle when `landmarks > 0` and
    /// the σ-cut in the exponential mode. Returns whether it already was.
    fn refresh(&mut self, sdn: &Sdn, b: f64, mode: CostMode, landmarks: usize) -> bool {
        let key = (sdn.version(), b.to_bits());
        if self.key == Some(key) {
            return true;
        }
        rebuild_admission_graph(&mut self.graph, sdn, b, mode);
        // The oracle prices the same weighted graph the Steiner scan runs
        // on, so its bounds are admissible for exactly the trees this
        // cache generation will build.
        self.oracle = (landmarks > 0).then(|| {
            let csr = CsrGraph::from_graph(self.graph.graph());
            LandmarkOracle::build(&csr, landmarks, &mut DijkstraScratch::new())
        });
        if mode == CostMode::Exponential {
            self.cut
                .get_or_insert_with(SigmaCut::default)
                .rebuild(self.graph.graph(), ExponentialCostModel::threshold(sdn));
        } else {
            self.cut = None;
        }
        self.key = Some(key);
        false
    }
}

/// Connected-component labels of an admission graph `G_k`, once over
/// every edge and once over its *light* edges only — those whose stored
/// weight (tie-break included) is below `σ`.
///
/// A tree whose terminals lie in two light components contains an edge of
/// weight `≥ σ`: step 9 of Algorithm 2 rejects it under
/// [`ThresholdRule::PerEdge`] outright, and under
/// [`ThresholdRule::TreeSum`] too, since the non-negative weights sum to
/// at least that edge's. So the scan can drop such a server before its
/// Steiner tree is built (DESIGN.md §"The σ-cut gate").
#[derive(Debug, Clone, Default)]
struct SigmaCut {
    /// Component label per node over every edge of `G_k`.
    full: Vec<usize>,
    /// Component label per node over the light edges of `G_k`.
    light: Vec<usize>,
    /// Working memory: the union–find behind both labellings.
    uf: UnionFind,
    /// Working memory: the heavy edges' endpoints.
    heavy: Vec<(usize, usize)>,
}

impl SigmaCut {
    /// Relabels both partitions for `g` in place, with one union–find and
    /// one pass over `g`'s edges: the light edges are joined first, then
    /// the few heavy ones merge light components into full ones.
    fn rebuild(&mut self, g: &Graph, sigma: f64) {
        let n = g.node_count();
        let SigmaCut {
            full,
            light,
            uf,
            heavy,
        } = self;
        uf.reset(n);
        heavy.clear();
        for e in g.edges() {
            // The exact complement of step 9's `w ≥ σ`.
            if e.weight < sigma {
                uf.union(e.u.index(), e.v.index());
            } else {
                heavy.push((e.u.index(), e.v.index()));
            }
        }
        light.clear();
        light.extend((0..n).map(|x| uf.find(x)));
        for &(u, v) in heavy.iter() {
            uf.union(u, v);
        }
        full.clear();
        full.extend((0..n).map(|x| uf.find(x)));
    }

    /// The cut as seen from `request`'s anchors `{s_k} ∪ D_k`.
    fn anchors(&self, request: &MulticastRequest) -> AnchorCut<'_> {
        let shared = |labels: &[usize]| {
            let l = *labels.get(request.source.index())?;
            request
                .destinations
                .iter()
                .all(|d| labels.get(d.index()) == Some(&l))
                .then_some(l)
        };
        AnchorCut {
            cut: self,
            light: shared(&self.light),
            full: shared(&self.full),
        }
    }
}

/// A [`SigmaCut`] pinned to one request's anchors.
struct AnchorCut<'a> {
    cut: &'a SigmaCut,
    /// The anchors' light component, if they all share one.
    light: Option<usize>,
    /// The anchors' full component, if they all share one.
    full: Option<usize>,
}

impl AnchorCut<'_> {
    /// `None` when server `v` has to be evaluated; otherwise the outcome
    /// [`AdmissionCtx::evaluate`] is certain to return for it.
    fn verdict(&self, v: NodeId) -> Option<EvalOutcome> {
        let joins = |anchors: Option<usize>, labels: &[usize]| {
            anchors.is_some() && labels.get(v.index()).copied() == anchors
        };
        if joins(self.light, &self.cut.light) {
            return None;
        }
        // Any tree over {s_k, v} ∪ D_k crosses the cut, so step 9 blocks
        // it — when KMB finds one at all, i.e. when G_k connects them.
        Some(if joins(self.full, &self.cut.full) {
            EvalOutcome::ThresholdBlocked
        } else {
            EvalOutcome::Skip
        })
    }
}

/// Why `Online_CP` rejected a request; each reason has its telemetry
/// counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rejection {
    /// No server can be connected to the terminals in `G_k`.
    Infeasible,
    /// No candidate was admissible and a σ threshold (step 7 or 9)
    /// blocked at least one server.
    Threshold,
    /// Every admissible candidate failed the final ledger check.
    Capacity,
}

impl Rejection {
    /// Picks the reason from what the scan saw.
    fn from_scan(had_candidates: bool, threshold_blocked: bool) -> Self {
        if had_candidates {
            Rejection::Capacity
        } else if threshold_blocked {
            Rejection::Threshold
        } else {
            Rejection::Infeasible
        }
    }

    /// The telemetry counter this reason increments.
    fn counter(self) -> telemetry::Counter {
        match self {
            Rejection::Infeasible => telemetry::Counter::OnlineRejectedInfeasible,
            Rejection::Threshold => telemetry::Counter::OnlineRejectedThreshold,
            Rejection::Capacity => telemetry::Counter::OnlineRejectedCapacity,
        }
    }
}

/// The `Online_CP` admission algorithm (Algorithm 2, `K = 1`).
///
/// One instance decides a whole stream in one working memory: `G_k` and
/// its σ-cut, the terminal SPT bank with KMB's buffers, and the rooted
/// tree of steps 10–12 are all rebuilt in place, decision after decision
/// (DESIGN.md §13).
#[derive(Debug, Clone, Default)]
pub struct OnlineCp {
    mode: CostMode,
    rule: ThresholdRule,
    /// Landmarks for the candidate-scan oracle (0 = exact scan).
    oracle_landmarks: usize,
    cache: AdmissionGraphCache,
    cache_hits: u64,
    work: Workspace,
}

/// The per-decision buffers `Online_CP` keeps between decisions.
#[derive(Debug, Clone, Default)]
struct Workspace {
    scan: ScanMemory,
    /// Phase-1 survivors with their server weights.
    survivors: Vec<(NodeId, f64)>,
    /// The exact scan's admissible candidates.
    candidates: Vec<Candidate>,
}

impl OnlineCp {
    /// Creates the paper's `Online_CP` (exponential cost model, per-edge
    /// threshold rule).
    #[must_use]
    pub fn new() -> Self {
        OnlineCp::default()
    }

    /// Creates an `Online_CP` variant with an explicit cost mode
    /// (ablation).
    #[must_use]
    pub fn with_mode(mode: CostMode) -> Self {
        OnlineCp {
            mode,
            ..OnlineCp::default()
        }
    }

    /// Overrides the bandwidth threshold rule (ablation).
    #[must_use]
    pub fn with_threshold_rule(mut self, rule: ThresholdRule) -> Self {
        self.rule = rule;
        self
    }

    /// Enables the landmark-oracle candidate scan: servers are ordered by
    /// an admissible lower bound on their admission weight and evaluated
    /// lazily, stopping once the bound proves no remaining server can beat
    /// the incumbent. Decisions are byte-identical to the exact scan —
    /// the bound never underestimates a winner away — but at 5k+ nodes
    /// most candidates skip their Steiner construction entirely.
    ///
    /// `landmarks = 0` disables the oracle (the default exact scan).
    #[must_use]
    pub fn with_oracle(mut self, landmarks: usize) -> Self {
        self.oracle_landmarks = landmarks;
        self
    }

    /// The configured oracle landmark count (0 = exact scan).
    #[must_use]
    pub fn oracle_landmarks(&self) -> usize {
        self.oracle_landmarks
    }

    /// The active cost mode.
    #[must_use]
    pub fn mode(&self) -> CostMode {
        self.mode
    }

    /// The active threshold rule.
    #[must_use]
    pub fn threshold_rule(&self) -> ThresholdRule {
        self.rule
    }

    /// Admission-graph cache hits: requests whose `G_k` was reused from a
    /// previous request with the same bandwidth against the same network
    /// version.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Algorithm 2 for one request: the admitted tree, or why there is
    /// none.
    fn decide(
        &mut self,
        sdn: &Sdn,
        request: &MulticastRequest,
    ) -> Result<PseudoMulticastTree, Rejection> {
        let b = request.bandwidth;
        let demand = request.computing_demand();
        let sigma = ExponentialCostModel::threshold(sdn);

        let mode = self.mode;
        let rule = self.rule;
        if self.cache.refresh(sdn, b, mode, self.oracle_landmarks) {
            self.cache_hits += 1;
            telemetry::hit(telemetry::Counter::AdmissionCacheHits);
        } else {
            telemetry::hit(telemetry::Counter::AdmissionCacheRebuilds);
        }
        let cache = &self.cache;
        let Workspace {
            scan,
            survivors,
            candidates,
        } = &mut self.work;
        if cache.graph.graph().edge_count() == 0 {
            return Err(Rejection::Infeasible);
        }
        let ctx = AdmissionCtx {
            sdn,
            request,
            b,
            demand,
            sigma,
            mode,
            rule,
            graph: &cache.graph,
        };

        // Phase 1: cheap per-server checks. These always run over every
        // server, so the saturation telemetry and the threshold-blocked
        // rejection reason are identical with and without the oracle.
        let saturated = phase1_survivors(sdn, request, mode, sigma, survivors);
        telemetry::add(telemetry::Counter::OnlineSaturatedServers, saturated);
        let mut threshold_blocked = saturated > 0;
        // The σ-cut gate: drop every survivor whose evaluation is already
        // decided, recording the rejection reason it would have given.
        if let Some(cut) = &cache.cut {
            let anchors = cut.anchors(request);
            survivors.retain(|&(v, _)| match anchors.verdict(v) {
                None => true,
                Some(outcome) => {
                    threshold_blocked |= matches!(outcome, EvalOutcome::ThresholdBlocked);
                    false
                }
            });
        }
        // Every scan draws its shortest-path trees from one bank.
        ctx.start_scan(scan, survivors.iter().map(|&(v, _)| v));

        if let Some(oracle) = &cache.oracle {
            // Oracle scan: order survivors by an admissible lower bound on
            // their final admission weight (`wv` plus the Steiner bound
            // over {s_k, v} ∪ D_k, since the send-back term is ≥ 0), then
            // evaluate lazily. The bound never exceeds the true weight, so
            // stopping once it passes the incumbent cannot change the
            // decision — only skip Steiner constructions that were going
            // to lose anyway.
            let mut terminals = vec![request.source];
            terminals.extend(request.destinations.iter().copied());
            let mut ranked: Vec<Survivor> = survivors
                .iter()
                .enumerate()
                .map(|(pos, &(v, wv))| {
                    terminals.push(v);
                    let lb = wv
                        + steiner::steiner_lower_bound(&terminals, |x, y| oracle.lower_bound(x, y));
                    terminals.pop();
                    Survivor { pos, v, wv, lb }
                })
                .collect();
            ranked.sort_by(|x, y| {
                x.lb.partial_cmp(&y.lb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.pos.cmp(&y.pos))
            });

            let mut had_candidates = false;
            let mut best: Option<(f64, usize, PseudoMulticastTree)> = None;
            for (idx, s) in ranked.iter().enumerate() {
                if let Some((best_w, _, _)) = &best {
                    // Strictly worse than the incumbent (with a margin so
                    // float noise can never prune an exact tie, which the
                    // position rule below might still award differently).
                    if s.lb > best_w * (1.0 + sdn::PRUNE_GUARD_REL) + sdn::PRUNE_GUARD_ABS {
                        telemetry::add(
                            telemetry::Counter::OnlineCandidatesPruned,
                            (ranked.len() - idx) as u64,
                        );
                        break;
                    }
                }
                match ctx.evaluate(s.v, s.wv, scan) {
                    EvalOutcome::Admissible(c) => {
                        had_candidates = true;
                        // The final ledger check runs per candidate here;
                        // the exact scan's "sort then first-allocatable"
                        // is the same min over (weight, server position).
                        let Some(tree) = ctx.materialize(&c, scan) else {
                            continue;
                        };
                        if sdn.can_allocate(&tree.allocation(request)) {
                            let replace = match &best {
                                None => true,
                                Some((bw, bp, _)) => {
                                    c.weight < *bw || (c.weight == *bw && s.pos < *bp)
                                }
                            };
                            if replace {
                                best = Some((c.weight, s.pos, tree));
                            }
                        }
                    }
                    EvalOutcome::ThresholdBlocked => threshold_blocked = true,
                    EvalOutcome::Skip => {}
                }
            }
            // No early-exit fires without an incumbent, so on rejection
            // every survivor was evaluated and the reason comes from
            // exactly the same evidence as the exact scan's.
            return best
                .map(|(_, _, tree)| tree)
                .ok_or(Rejection::from_scan(had_candidates, threshold_blocked));
        }

        // Exact scan (the paper's listing): evaluate every survivor in
        // server order.
        candidates.clear();
        for &(v, wv) in survivors.iter() {
            match ctx.evaluate(v, wv, scan) {
                EvalOutcome::Admissible(c) => candidates.push(c),
                EvalOutcome::ThresholdBlocked => threshold_blocked = true,
                EvalOutcome::Skip => {}
            }
        }

        // Try candidates cheapest-first; the send-back path may need 2·b_k
        // on some link, so the accumulated allocation is the final check.
        candidates.sort_by(|a, b| a.weight.partial_cmp(&b.weight).expect("weights are finite")); // lint:allow(P1): candidate weights are finite sums of finite unit costs
        let had_candidates = !candidates.is_empty();
        for c in candidates.iter() {
            let Some(tree) = ctx.materialize(c, scan) else {
                continue;
            };
            if sdn.can_allocate(&tree.allocation(request)) {
                return Ok(tree);
            }
        }
        Err(Rejection::from_scan(had_candidates, threshold_blocked))
    }
}

/// Rebuilds the admission graph `G_k` in `graph` for bandwidth `b` under
/// the chosen cost mode: the network's alive, residual-feasible links (a
/// [`FeasibleGraph`]), weighted under `mode`. Shared by `OnlineCp`'s
/// cache and the `EmpPricing` strategy so the two graphs can never drift
/// apart.
///
/// G_k keeps links with enough residual bandwidth for one traversal (a
/// link on the send-back path needs 2·b_k; that stricter joint check
/// happens on the final allocation) and excludes failed links exactly like
/// saturated ones. A fresh network has every exponential weight at exactly
/// zero, which would leave the Steiner routine picking among ties
/// arbitrarily (and wastefully); an infinitesimal unit-cost term,
/// normalised by the dearest kept link, breaks those ties toward
/// cost-efficient trees without ever influencing a loaded decision or the
/// admission thresholds.
pub(crate) fn rebuild_admission_graph(
    graph: &mut FeasibleGraph,
    sdn: &Sdn,
    b: f64,
    mode: CostMode,
) {
    let model = ExponentialCostModel::for_network(sdn);
    let linear = LinearCostModel::new();
    let c_max = sdn
        .graph()
        .edges()
        .filter(|e| sdn.link_fits(e.id, b))
        .map(|e| e.weight)
        .fold(sdn::COST_FLOOR, f64::max);
    graph.rebuild(sdn, b, |e| {
        Some(match mode {
            CostMode::Exponential => {
                let tiebreak = sdn::COST_TIEBREAK_REL * sdn.unit_bandwidth_cost(e) / c_max;
                model.edge_weight(sdn, e) + tiebreak
            }
            CostMode::Linear => linear.edge_cost(sdn, e, 1.0),
        })
    });
}

/// Phase 1 of an online candidate scan (Algorithm 2, steps 6–7): the
/// servers that are alive, have the residual computing for `request`'s
/// whole chain, and — under [`CostMode::Exponential`] — a server weight
/// below `sigma`. Replaces `survivors` with them in [`Sdn::servers`]
/// order with their server weights, and returns how many servers the
/// `sigma` threshold blocked.
///
/// `Online_CP` passes `σ = |V| − 1`; `EMP_Online` passes `∞`, since it
/// prices and never thresholds (a surviving server's weight is finite:
/// its utilisation stays below 1).
pub(crate) fn phase1_survivors(
    sdn: &Sdn,
    request: &MulticastRequest,
    mode: CostMode,
    sigma: f64,
    survivors: &mut Vec<(NodeId, f64)>,
) -> u64 {
    let demand = request.computing_demand();
    let model = ExponentialCostModel::for_network(sdn);
    let linear = LinearCostModel::new();
    survivors.clear();
    let mut saturated = 0;
    for &v in sdn.servers() {
        // Hard feasibility: the server must be up and the chain must fit
        // its residual capacity.
        if !sdn.server_fits(v, demand) {
            continue;
        }
        let wv = match mode {
            CostMode::Exponential => model.server_weight(sdn, v).expect("server"), // lint:allow(P1): v is drawn from servers()
            CostMode::Linear => linear.server_cost(sdn, v, 1.0).expect("server"), // lint:allow(P1): v is drawn from servers()
        };
        // Step 7: server-side admission threshold. The exponential cost
        // saturated: utilisation pushed the normalised weight past σ.
        if mode == CostMode::Exponential && wv >= sigma {
            saturated += 1;
            continue;
        }
        survivors.push((v, wv));
    }
    saturated
}

/// One evaluated admission candidate: its weight and the Steiner tree it
/// came from, rooted again and materialized into a
/// [`PseudoMulticastTree`] only if it reaches the final allocation check.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub(crate) weight: f64,
    /// The processing server `v`.
    server: NodeId,
    /// The Steiner tree over `{s_k} ∪ D_k ∪ {v}` in `G_k` edge ids.
    tree: SteinerTree,
    /// The send-back target `u = LCA({v} ∪ D_k)`.
    lca: NodeId,
}

/// A server that passed [`phase1_survivors`] and still awaits the
/// oracle scan's Steiner-tree evaluation. `pos` is its rank among the
/// survivors (server order); `lb` is an admissible lower bound on the
/// candidate's final admission weight.
struct Survivor {
    pos: usize,
    v: NodeId,
    wv: f64,
    lb: f64,
}

/// What evaluating one surviving server produced.
pub(crate) enum EvalOutcome {
    /// Steps 8-12 succeeded; the candidate still faces the final
    /// allocation check.
    Admissible(Candidate),
    /// The link-side admission threshold (step 9) rejected the tree.
    ThresholdBlocked,
    /// No Steiner tree connects the terminals through this server.
    Skip,
}

/// The working memory of a candidate scan: the terminal SPT bank (with
/// KMB's buffers), the rooted tree of steps 10–12 and its BFS buffers,
/// and the terminal list. `Online_CP` keeps one across decisions.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScanMemory {
    bank: TerminalSptBank,
    rooted: RootedTree,
    rooting: RootingScratch,
    /// `{s_k} ∪ D_k ∪ {v}` for KMB, then `{v} ∪ D_k` for the LCA.
    terminals: Vec<NodeId>,
}

/// Everything the per-server Steiner evaluation (steps 8-12 of
/// Algorithm 2 plus candidate materialization) needs, bundled so the
/// exact and oracle scans share a single code path and can never drift
/// apart.
pub(crate) struct AdmissionCtx<'a> {
    pub(crate) sdn: &'a Sdn,
    pub(crate) request: &'a MulticastRequest,
    pub(crate) b: f64,
    pub(crate) demand: f64,
    pub(crate) sigma: f64,
    pub(crate) mode: CostMode,
    pub(crate) rule: ThresholdRule,
    pub(crate) graph: &'a FeasibleGraph,
}

impl AdmissionCtx<'_> {
    /// Readies `mem` for a candidate scan over `servers`: one
    /// terminal-SPT bank whose targets are `{s_k} ∪ D_k ∪ servers`. Every
    /// candidate's Steiner construction draws the anchor terminals' trees
    /// and their closure MST from it, and since
    /// [`AdmissionCtx::evaluate`] puts the server last, no server's own
    /// tree is ever built.
    pub(crate) fn start_scan(
        &self,
        mem: &mut ScanMemory,
        servers: impl IntoIterator<Item = NodeId>,
    ) {
        let request = self.request;
        let anchors = std::iter::once(request.source).chain(request.destinations.iter().copied());
        mem.bank.reset(anchors.chain(servers));
    }

    /// Evaluates server `v` (server weight `wv`) in `mem`, whose bank
    /// must come from [`AdmissionCtx::start_scan`] over a set containing
    /// `v`.
    pub(crate) fn evaluate(&self, v: NodeId, wv: f64, mem: &mut ScanMemory) -> EvalOutcome {
        let (request, weighted) = (self.request, self.graph.graph());
        let ScanMemory {
            bank,
            rooted,
            rooting,
            terminals,
        } = mem;
        // Step 8: Steiner tree over {s_k} ∪ D_k ∪ {v} in G_k. KMB builds
        // no tree for its last terminal, so with the server last every
        // shortest-path tree comes from the anchors the whole scan shares.
        // So does the closure MST of {s_k} ∪ D_k with its expanded paths,
        // built on the scan's first call: each server only merges its
        // star row, read off the anchors' trees at `v`, into that MST.
        terminals.clear();
        terminals.push(request.source);
        terminals.extend(request.destinations.iter().copied());
        terminals.push(v);
        let Some(tree) = steiner::kmb_with_bank(weighted, terminals, bank) else {
            return EvalOutcome::Skip;
        };
        // Step 9: link-side admission threshold.
        let tree_weight: f64 = tree.cost();
        if self.mode == CostMode::Exponential {
            let violates = match self.rule {
                ThresholdRule::TreeSum => tree_weight >= self.sigma,
                ThresholdRule::PerEdge => tree
                    .edges()
                    .iter()
                    .any(|&e| weighted.edge(e).weight >= self.sigma),
            };
            if violates {
                return EvalOutcome::ThresholdBlocked;
            }
        }
        // Steps 10-12: LCA send-back construction. `u` is an ancestor of
        // `v`, so the send-back path is the climb from `v` to `u`.
        if !rooted.rebuild(weighted, tree.edges(), request.source, rooting) {
            return EvalOutcome::Skip;
        }
        // Reuse the terminal buffer as the LCA arguments `{v} ∪ D_k`.
        terminals.pop();
        if let Some(first) = terminals.first_mut() {
            *first = v;
        }
        let lca = rooted.lca_of_set(terminals);
        let (Some(dist_v), Some(dist_lca)) =
            (rooted.distance_from_root(v), rooted.distance_from_root(lca))
        else {
            return EvalOutcome::Skip;
        };
        EvalOutcome::Admissible(Candidate {
            weight: tree_weight + wv + (dist_v - dist_lca),
            server: v,
            tree,
            lca,
        })
    }

    /// Materializes candidate `c` as a pseudo-multicast tree in network
    /// edge ids, rooting its Steiner tree at the source in `mem`. `None`
    /// only if the tree no longer roots, which [`AdmissionCtx::evaluate`]
    /// already ruled out.
    pub(crate) fn materialize(
        &self,
        c: &Candidate,
        mem: &mut ScanMemory,
    ) -> Option<PseudoMulticastTree> {
        let (sdn, request, v) = (self.sdn, self.request, c.server);
        let rooted = &mut mem.rooted;
        if !rooted.rebuild(
            self.graph.graph(),
            c.tree.edges(),
            request.source,
            &mut mem.rooting,
        ) {
            return None;
        }
        let to_network = |edges: &[EdgeId]| -> Vec<EdgeId> {
            edges.iter().map(|&e| self.graph.parent_edge(e)).collect()
        };
        let ingress_ids = to_network(rooted.path_between(request.source, v).edges());
        let ingress_set: std::collections::BTreeSet<EdgeId> = ingress_ids.iter().copied().collect();
        let all_tree = to_network(rooted.edges());
        let distribution: Vec<EdgeId> = all_tree
            .iter()
            .copied()
            .filter(|e| !ingress_set.contains(e))
            .collect();
        let extra = to_network(rooted.path_between(v, c.lca).edges());

        let ingress_cost: f64 = ingress_ids
            .iter()
            .map(|&e| sdn.unit_bandwidth_cost(e) * self.b)
            .sum();
        let computing_cost = sdn.unit_computing_cost(v).expect("server") * self.demand; // lint:allow(P1): v is drawn from servers()
        let bandwidth_cost: f64 = all_tree
            .iter()
            .chain(&extra)
            .map(|&e| sdn.unit_bandwidth_cost(e) * self.b)
            .sum();
        Some(PseudoMulticastTree {
            request: request.id,
            source: request.source,
            servers: vec![ServerUse {
                server: v,
                ingress_edges: ingress_ids,
                ingress_cost,
                computing_cost,
            }],
            distribution_edges: distribution,
            extra_traversals: extra,
            bandwidth_cost,
            computing_cost,
        })
    }
}

impl OnlineAlgorithm for OnlineCp {
    fn name(&self) -> &'static str {
        match self.mode {
            CostMode::Exponential => "Online_CP",
            CostMode::Linear => "Online_CP(linear)",
        }
    }

    // lint:entry(api)
    fn admit(&mut self, sdn: &Sdn, request: &MulticastRequest) -> Option<PseudoMulticastTree> {
        self.decide(sdn, request)
            .map_err(|r| telemetry::hit(r.counter()))
            .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::NodeId;
    use sdn::{Allocation, NfvType, RequestId, SdnBuilder, ServiceChain};

    fn chain() -> ServiceChain {
        ServiceChain::new(vec![NfvType::Firewall])
    }

    /// Line with a mid-path destination requiring send-back:
    /// s -- a -- v(server), with d hanging off a.
    fn sendback_fixture() -> (Sdn, Vec<NodeId>, Vec<EdgeId>) {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let a = bld.add_switch();
        let v = bld.add_server(8_000.0, 1.0);
        let d = bld.add_switch();
        let e0 = bld.add_link(s, a, 1_000.0, 1.0).unwrap();
        let e1 = bld.add_link(a, v, 1_000.0, 1.0).unwrap();
        let e2 = bld.add_link(a, d, 1_000.0, 1.0).unwrap();
        (bld.build().unwrap(), vec![s, a, v, d], vec![e0, e1, e2])
    }

    #[test]
    fn admits_with_sendback() {
        let (sdn, v, e) = sendback_fixture();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[3]], 100.0, chain());
        let mut algo = OnlineCp::new();
        let tree = algo.admit(&sdn, &req).expect("admissible");
        tree.validate(&sdn, &req).unwrap();
        assert_eq!(tree.servers_used(), vec![v[2]]);
        // Tree: s-a, a-v, a-d. LCA(v, d) = a => send-back a-v.
        assert_eq!(tree.extra_traversals, vec![e[1]]);
        let alloc = tree.allocation(&req);
        assert_eq!(alloc.link_load(e[1]), 200.0); // double traversal
        assert_eq!(alloc.link_load(e[0]), 100.0);
        assert_eq!(alloc.link_load(e[2]), 100.0);
    }

    #[test]
    fn sendback_capacity_is_respected() {
        let (mut sdn, v, e) = sendback_fixture();
        // Leave only 150 Mbps on the a-v link: a 100 Mbps request needs
        // 200 there (send-back), so it must be rejected.
        let mut pre = Allocation::new(RequestId(9));
        pre.add_link(e[1], 850.0);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[3]], 100.0, chain());
        assert!(OnlineCp::new().admit(&sdn, &req).is_none());
    }

    #[test]
    fn prefers_underloaded_server() {
        // Two symmetric servers; load one, Online_CP must pick the other.
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let v1 = bld.add_server(1_000.0, 1.0);
        let v2 = bld.add_server(1_000.0, 1.0);
        let d = bld.add_switch();
        bld.add_link(s, v1, 10_000.0, 1.0).unwrap();
        bld.add_link(s, v2, 10_000.0, 1.0).unwrap();
        bld.add_link(v1, d, 10_000.0, 1.0).unwrap();
        bld.add_link(v2, d, 10_000.0, 1.0).unwrap();
        let mut sdn = bld.build().unwrap();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_server(v1, 800.0);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d], 100.0, chain());
        let tree = OnlineCp::new().admit(&sdn, &req).unwrap();
        assert_eq!(tree.servers_used(), vec![v2]);
    }

    #[test]
    fn phase1_survivors_drops_dead_full_and_saturated_servers() {
        let req_for = |s, d| MulticastRequest::new(RequestId(0), s, vec![d], 100.0, chain());
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let d = bld.add_switch();
        let demand = req_for(s, d).computing_demand();
        let cap = 100.0 * demand;
        let servers: Vec<NodeId> = (0..4).map(|_| bld.add_server(cap, 1.0)).collect();
        for &v in &servers {
            bld.add_link(s, v, 10_000.0, 1.0).unwrap();
            bld.add_link(v, d, 10_000.0, 1.0).unwrap();
        }
        let mut sdn = bld.build().unwrap();
        let [ok, dead, full, hot] = servers[..] else {
            unreachable!()
        };
        sdn.fail_server(dead).unwrap();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_server(full, cap - demand / 2.0);
        // 95% utilisation pushes (2|V|)^u − 1 past σ = |V| − 1 at |V| = 6.
        pre.add_server(hot, 0.95 * cap);
        sdn.allocate(&pre).unwrap();
        let req = req_for(s, d);
        let sigma = ExponentialCostModel::threshold(&sdn);

        let mut survivors = vec![(hot, 1.0)];
        let saturated = phase1_survivors(&sdn, &req, CostMode::Exponential, sigma, &mut survivors);
        assert_eq!(survivors, vec![(ok, 0.0)]);
        assert_eq!(saturated, 1);
        // σ = ∞ (EMP) and the linear mode never threshold.
        let saturated = phase1_survivors(
            &sdn,
            &req,
            CostMode::Exponential,
            f64::INFINITY,
            &mut survivors,
        );
        assert_eq!(
            survivors.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            [ok, hot]
        );
        assert_eq!(saturated, 0);
        let saturated = phase1_survivors(&sdn, &req, CostMode::Linear, sigma, &mut survivors);
        assert_eq!(
            survivors.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            [ok, hot]
        );
        assert_eq!(saturated, 0);
    }

    #[test]
    fn linear_mode_ignores_load() {
        // Same fixture: linear mode keeps picking the unit-cost-cheapest
        // server even when it is loaded.
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let v1 = bld.add_server(1_000.0, 0.5); // cheaper per unit
        let v2 = bld.add_server(1_000.0, 1.0);
        let d = bld.add_switch();
        bld.add_link(s, v1, 10_000.0, 1.0).unwrap();
        bld.add_link(s, v2, 10_000.0, 1.0).unwrap();
        bld.add_link(v1, d, 10_000.0, 1.0).unwrap();
        bld.add_link(v2, d, 10_000.0, 1.0).unwrap();
        let mut sdn = bld.build().unwrap();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_server(v1, 800.0);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d], 100.0, chain());
        let tree = OnlineCp::with_mode(CostMode::Linear)
            .admit(&sdn, &req)
            .unwrap();
        assert_eq!(tree.servers_used(), vec![v1]);
    }

    #[test]
    fn rejects_when_no_computing_left() {
        let (mut sdn, v, _) = sendback_fixture();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_server(v[2], 7_990.0);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[3]], 100.0, chain());
        assert!(OnlineCp::new().admit(&sdn, &req).is_none());
    }

    #[test]
    fn rejects_when_links_saturated() {
        let (mut sdn, v, e) = sendback_fixture();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_link(e[0], 950.0);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[3]], 100.0, chain());
        assert!(OnlineCp::new().admit(&sdn, &req).is_none());
    }

    #[test]
    fn server_as_tree_root_needs_no_sendback() {
        // Server on the path before the branch point: no extra traversals.
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let v = bld.add_server(8_000.0, 1.0);
        let d1 = bld.add_switch();
        let d2 = bld.add_switch();
        bld.add_link(s, v, 1_000.0, 1.0).unwrap();
        bld.add_link(v, d1, 1_000.0, 1.0).unwrap();
        bld.add_link(v, d2, 1_000.0, 1.0).unwrap();
        let sdn = bld.build().unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d1, d2], 100.0, chain());
        let tree = OnlineCp::new().admit(&sdn, &req).unwrap();
        tree.validate(&sdn, &req).unwrap();
        assert!(tree.extra_traversals.is_empty());
    }

    #[test]
    fn admission_graph_cache_reused_across_rejections() {
        let (mut sdn, v, e) = sendback_fixture();
        // Leave too little bandwidth for any 100 Mbps request.
        let mut pre = Allocation::new(RequestId(9));
        pre.add_link(e[0], 950.0);
        sdn.allocate(&pre).unwrap();
        let mut algo = OnlineCp::new();
        for i in 0..5 {
            let req = MulticastRequest::new(RequestId(i), v[0], vec![v[3]], 100.0, chain());
            assert!(algo.admit(&sdn, &req).is_none());
        }
        // First rejection builds G_k; the other four reuse it (the network
        // version never moves on rejection).
        assert_eq!(algo.cache_hits(), 4);
    }

    #[test]
    fn caching_is_transparent_to_decisions() {
        // A warm cache must admit exactly what a cold one does.
        let (sdn0, v, _) = sendback_fixture();
        let reqs: Vec<MulticastRequest> = (0..12)
            .map(|i| MulticastRequest::new(RequestId(i), v[0], vec![v[3]], 100.0, chain()))
            .collect();
        let mut warm_net = sdn0.clone();
        let mut cold_net = sdn0.clone();
        let mut warm = OnlineCp::new();
        for req in &reqs {
            let warm_tree = warm.admit(&warm_net, req);
            let cold_tree = OnlineCp::new().admit(&cold_net, req);
            assert_eq!(warm_tree, cold_tree, "request {}", req.id);
            if let Some(t) = warm_tree {
                warm_net.allocate(&t.allocation(req)).unwrap();
                cold_net
                    .allocate(&cold_tree.unwrap().allocation(req))
                    .unwrap();
            }
        }
        assert_eq!(warm_net, cold_net);
    }

    #[test]
    fn warm_memory_decides_like_fresh_memory_across_departures() {
        // One long-lived `OnlineCp` per variant against a fresh one built
        // for every decision, over a loaded stream whose sessions depart:
        // the rebuilt-in-place G_k, σ-cut, bank and rooted tree must give
        // exactly the fresh trees and rejection reasons.
        use crate::ActiveSessions;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use topology::{annotate, place_servers_random, AnnotationParams, Waxman};
        use workload::{PoissonWorkload, RequestGenerator};

        let variants: [fn() -> OnlineCp; 4] = [
            OnlineCp::new,
            || OnlineCp::new().with_threshold_rule(ThresholdRule::TreeSum),
            || OnlineCp::with_mode(CostMode::Linear),
            || OnlineCp::new().with_oracle(3),
        ];
        let mut rng = StdRng::seed_from_u64(41);
        let (g, _) = Waxman::new(40).generate(&mut rng);
        let servers = place_servers_random(&g, 0.15, &mut rng);
        let sdn0 = annotate(&g, &servers, &AnnotationParams::default(), &mut rng).unwrap();
        let mut gen = RequestGenerator::new(40).with_bandwidth_range(100.0, 300.0);
        let stream = PoissonWorkload::new(1.0, 40.0).generate(&mut gen, 300, &mut rng);
        let mut reasons = Vec::new();
        for make in variants {
            let mut sdn = sdn0.clone();
            let mut sessions: ActiveSessions = ActiveSessions::new();
            let mut warm = make();
            let (mut admitted, mut departed, mut rejected) = (0, 0, 0);
            for (req, arrival, holding) in &stream {
                departed += sessions.release_due(&mut sdn, *arrival);
                let decision = warm.decide(&sdn, req);
                assert_eq!(decision, make().decide(&sdn, req), "request {}", req.id);
                // The σ-cut gate is exact, so a stale cut that keeps every
                // server would not move a decision: compare the rebuilt
                // G_k and cut with fresh ones directly.
                let fresh = g_k(&sdn, req.bandwidth, warm.mode());
                assert_eq!(warm.cache.graph, fresh);
                if let Some(cut) = &warm.cache.cut {
                    let sigma = ExponentialCostModel::threshold(&sdn);
                    let fresh_cut = cut_of(fresh.graph(), sigma);
                    assert_eq!((&cut.light, &cut.full), (&fresh_cut.light, &fresh_cut.full));
                }
                match decision {
                    Ok(tree) => {
                        let alloc = tree.allocation(req);
                        sdn.allocate(&alloc).unwrap();
                        sessions.insert(req.id, arrival + holding, alloc);
                        admitted += 1;
                    }
                    Err(reason) => {
                        rejected += 1;
                        if !reasons.contains(&reason) {
                            reasons.push(reason);
                        }
                    }
                }
            }
            let name = warm.name();
            assert!(
                admitted > 0 && rejected > 0,
                "{name}: {admitted} admitted, {rejected} rejected"
            );
            assert!(departed > 0, "{name}: nothing departed");
        }
        assert_eq!(reasons.len(), 3, "every rejection reason must occur");
    }

    #[test]
    fn oracle_scan_matches_exact_decisions() {
        // Ring of 16 nodes with chords, a server on every third node.
        // The oracle-ordered lazy scan must admit exactly the same trees
        // as the exact scan across a full allocating sequence, including
        // the requests that end up rejected.
        let mut bld = SdnBuilder::new();
        let nodes: Vec<NodeId> = (0..16)
            .map(|i| {
                if i % 3 == 0 {
                    bld.add_server(4_000.0, 1.0 + (i % 5) as f64 * 0.1)
                } else {
                    bld.add_switch()
                }
            })
            .collect();
        for i in 0..16 {
            bld.add_link(
                nodes[i],
                nodes[(i + 1) % 16],
                2_000.0,
                1.0 + (i % 4) as f64 * 0.25,
            )
            .unwrap();
        }
        for i in (0..16).step_by(4) {
            bld.add_link(nodes[i], nodes[(i + 7) % 16], 2_000.0, 1.5)
                .unwrap();
        }
        let sdn0 = bld.build().unwrap();
        let mut exact_net = sdn0.clone();
        let mut oracle_net = sdn0;
        let mut exact = OnlineCp::new();
        let mut fast = OnlineCp::new().with_oracle(4);
        assert_eq!(fast.oracle_landmarks(), 4);
        assert_eq!(exact.oracle_landmarks(), 0);
        let mut admitted = 0;
        for i in 0..40u64 {
            let src = nodes[(i as usize * 5) % 16];
            let dst = nodes[(i as usize * 11 + 3) % 16];
            if src == dst {
                continue;
            }
            let req = MulticastRequest::new(RequestId(i), src, vec![dst], 120.0, chain());
            let a = exact.admit(&exact_net, &req);
            let b = fast.admit(&oracle_net, &req);
            assert_eq!(a, b, "request {}", req.id);
            if let (Some(ta), Some(tb)) = (&a, &b) {
                exact_net.allocate(&ta.allocation(&req)).unwrap();
                oracle_net.allocate(&tb.allocation(&req)).unwrap();
                admitted += 1;
            }
        }
        assert!(admitted > 0, "fixture admits nothing; test is vacuous");
        assert_eq!(exact_net, oracle_net);
    }

    /// `G_k` for bandwidth `b` under `mode`, built from scratch.
    fn g_k(sdn: &Sdn, b: f64, mode: CostMode) -> FeasibleGraph {
        let mut graph = FeasibleGraph::default();
        rebuild_admission_graph(&mut graph, sdn, b, mode);
        graph
    }

    /// The σ-cut of `g`, built from scratch.
    fn cut_of(g: &Graph, sigma: f64) -> SigmaCut {
        let mut cut = SigmaCut::default();
        cut.rebuild(g, sigma);
        cut
    }

    /// Whether `evaluate` returned exactly the outcome the σ-cut predicted.
    fn same_outcome(predicted: &EvalOutcome, evaluated: &EvalOutcome) -> bool {
        matches!(
            (predicted, evaluated),
            (EvalOutcome::ThresholdBlocked, EvalOutcome::ThresholdBlocked)
                | (EvalOutcome::Skip, EvalOutcome::Skip)
        )
    }

    #[test]
    fn sigma_cut_predicts_every_dropped_evaluation() {
        // Load random networks by admitting a long stream; before each
        // admission, evaluate every survivor the gate would drop and check
        // that the full Steiner evaluation agrees with the prediction.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use topology::{annotate, place_servers_random, AnnotationParams, Waxman};
        use workload::RequestGenerator;

        for rule in [ThresholdRule::PerEdge, ThresholdRule::TreeSum] {
            let (mut blocked, mut skipped) = (0, 0);
            for seed in [3, 17, 29] {
                let mut rng = StdRng::seed_from_u64(seed);
                let (g, _) = Waxman::new(30).generate(&mut rng);
                let servers = place_servers_random(&g, 0.2, &mut rng);
                let mut sdn =
                    annotate(&g, &servers, &AnnotationParams::default(), &mut rng).unwrap();
                let requests = RequestGenerator::new(30).generate_batch(400, &mut rng);
                let mut algo = OnlineCp::new().with_threshold_rule(rule);
                for req in &requests {
                    let graph = g_k(&sdn, req.bandwidth, CostMode::Exponential);
                    let sigma = ExponentialCostModel::threshold(&sdn);
                    let cut = cut_of(graph.graph(), sigma);
                    let anchors = cut.anchors(req);
                    let ctx = AdmissionCtx {
                        sdn: &sdn,
                        request: req,
                        b: req.bandwidth,
                        demand: req.computing_demand(),
                        sigma,
                        mode: CostMode::Exponential,
                        rule,
                        graph: &graph,
                    };
                    let mut survivors = Vec::new();
                    phase1_survivors(&sdn, req, CostMode::Exponential, sigma, &mut survivors);
                    let mut scan = ScanMemory::default();
                    ctx.start_scan(&mut scan, survivors.iter().map(|&(v, _)| v));
                    for &(v, wv) in &survivors {
                        let Some(predicted) = anchors.verdict(v) else {
                            continue;
                        };
                        match predicted {
                            EvalOutcome::ThresholdBlocked => blocked += 1,
                            _ => skipped += 1,
                        }
                        let evaluated = ctx.evaluate(v, wv, &mut scan);
                        assert!(
                            same_outcome(&predicted, &evaluated),
                            "{rule:?}, seed {seed}, request {}, server {v}",
                            req.id
                        );
                    }
                    if let Some(tree) = algo.admit(&sdn, req) {
                        sdn.allocate(&tree.allocation(req)).unwrap();
                    }
                }
            }
            assert!(
                blocked > 0,
                "{rule:?}: the gate never dropped a blocked server"
            );
            assert!(
                skipped > 0,
                "{rule:?}: the gate never dropped an unreachable server"
            );
        }
    }

    #[test]
    fn sigma_cut_treats_a_weight_of_exactly_sigma_as_heavy() {
        // Step 9 blocks `w ≥ σ`, so an edge of weight exactly σ must cut.
        let (sdn, v, e) = sendback_fixture();
        let sigma = ExponentialCostModel::threshold(&sdn);
        let graph = FeasibleGraph::new(&sdn, 100.0, |x| Some(if x == e[1] { sigma } else { 0.0 }));
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[3]], 100.0, chain());
        let cut = cut_of(graph.graph(), sigma);
        let predicted = cut.anchors(&req).verdict(v[2]).expect("a-v is heavy");
        assert!(matches!(predicted, EvalOutcome::ThresholdBlocked));
        let ctx = AdmissionCtx {
            sdn: &sdn,
            request: &req,
            b: req.bandwidth,
            demand: req.computing_demand(),
            sigma,
            mode: CostMode::Exponential,
            rule: ThresholdRule::PerEdge,
            graph: &graph,
        };
        let mut scan = ScanMemory::default();
        ctx.start_scan(&mut scan, [v[2]]);
        assert!(same_outcome(
            &predicted,
            &ctx.evaluate(v[2], 0.0, &mut scan)
        ));
    }

    /// s -- v(server) -- d1, plus the bridge v -- d2 loaded to `load`
    /// of its 1 000 Mbps.
    fn bridge_fixture(load: f64) -> (Sdn, MulticastRequest) {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let v = bld.add_server(8_000.0, 1.0);
        let d1 = bld.add_switch();
        let d2 = bld.add_switch();
        bld.add_link(s, v, 1_000.0, 1.0).unwrap();
        bld.add_link(v, d1, 1_000.0, 1.0).unwrap();
        let bridge = bld.add_link(v, d2, 1_000.0, 1.0).unwrap();
        let mut sdn = bld.build().unwrap();
        let mut pre = Allocation::new(RequestId(9));
        pre.add_link(bridge, load);
        sdn.allocate(&pre).unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d1, d2], 50.0, chain());
        (sdn, req)
    }

    #[test]
    fn saturated_bridge_is_a_threshold_rejection_without_a_steiner_tree() {
        // 90% on the bridge: w = 8^0.9 − 1 ≈ 5.5 ≥ σ = 3, yet the 100 Mbps
        // left keep it in G_k. The only server is unloaded, so nothing but
        // the link-side threshold can reject.
        let (sdn, req) = bridge_fixture(900.0);
        let mut algo = OnlineCp::new();
        assert_eq!(algo.decide(&sdn, &req).unwrap_err(), Rejection::Threshold);
        // The gate dropped the only survivor, so no tree was evaluated.
        let anchors = algo.cache.cut.as_ref().unwrap().anchors(&req);
        assert!(matches!(
            anchors.verdict(sdn.servers()[0]),
            Some(EvalOutcome::ThresholdBlocked)
        ));
        // A lighter load leaves the bridge under σ: the same request lands.
        assert!(OnlineCp::new()
            .decide(&bridge_fixture(500.0).0, &req)
            .is_ok());
        // The linear mode has no thresholds, hence no cut to gate on.
        let mut linear = OnlineCp::with_mode(CostMode::Linear);
        assert!(linear.decide(&sdn, &req).is_ok());
        assert!(linear.cache.cut.is_none());
    }

    #[test]
    fn gated_unreachable_destination_is_infeasible_not_threshold() {
        // 960 Mbps on the bridge leave too little for 50 Mbps: d2 drops out
        // of G_k entirely, so the gate's drop is a `Skip`, not a block.
        let (sdn, req) = bridge_fixture(960.0);
        assert_eq!(
            OnlineCp::new().decide(&sdn, &req).unwrap_err(),
            Rejection::Infeasible
        );
    }

    #[test]
    fn name_reflects_mode() {
        use crate::OnlineAlgorithm;
        assert_eq!(OnlineCp::new().name(), "Online_CP");
        assert_eq!(
            OnlineCp::with_mode(CostMode::Linear).name(),
            "Online_CP(linear)"
        );
        assert_eq!(OnlineCp::new().mode(), CostMode::Exponential);
    }
}
