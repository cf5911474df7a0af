//! `Online_CP` (Algorithm 2): online admission with the exponential cost
//! model and LCA-based pseudo-multicast trees.

use crate::OnlineAlgorithm;
use netgraph::{
    CsrGraph, DijkstraScratch, EdgeId, Graph, LandmarkOracle, NodeId, RootedTree, UnionFind,
};
use nfv_multicast::{PseudoMulticastTree, ServerUse};
use sdn::{ExponentialCostModel, LinearCostModel, MulticastRequest, Sdn};

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
/// so it is the default; the ablation bench measures both.
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
/// removes the full graph rebuild from the hot path.
#[derive(Debug, Clone)]
struct AdmissionGraphCache {
    version: u64,
    bandwidth_bits: u64,
    graph: AdmissionGraph,
    /// Landmark oracle over `graph.weighted` (present only in oracle mode):
    /// admissible lower bounds on weighted-graph distances, rebuilt
    /// together with the graph it describes so it can never go stale.
    oracle: Option<LandmarkOracle>,
    /// The σ-cut of `graph.weighted` (present only under
    /// [`CostMode::Exponential`], the one mode with thresholds).
    cut: Option<SigmaCut>,
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
#[derive(Debug, Clone)]
struct SigmaCut {
    /// Component label per node over every edge of `G_k`.
    full: Vec<usize>,
    /// Component label per node over the light edges of `G_k`.
    light: Vec<usize>,
}

impl SigmaCut {
    /// Labels both partitions with one union–find and one pass over
    /// `g`'s edges: the light edges are joined first, then the few heavy
    /// ones merge light components into full ones.
    fn new(g: &Graph, sigma: f64) -> Self {
        let n = g.node_count();
        let mut uf = UnionFind::new(n);
        let mut heavy = Vec::new();
        for e in g.edges() {
            // The exact complement of step 9's `w ≥ σ`.
            if e.weight < sigma {
                uf.union(e.u.index(), e.v.index());
            } else {
                heavy.push((e.u.index(), e.v.index()));
            }
        }
        let light: Vec<usize> = (0..n).map(|x| uf.find(x)).collect();
        if heavy.is_empty() {
            return SigmaCut {
                full: light.clone(),
                light,
            };
        }
        for (u, v) in heavy {
            uf.union(u, v);
        }
        SigmaCut {
            full: (0..n).map(|x| uf.find(x)).collect(),
            light,
        }
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
#[derive(Debug, Clone, Default)]
pub struct OnlineCp {
    mode: CostMode,
    rule: ThresholdRule,
    /// Landmarks for the candidate-scan oracle (0 = exact scan).
    oracle_landmarks: usize,
    cache: Option<AdmissionGraphCache>,
    cache_hits: u64,
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

    /// The [`Sdn::version`] the cached admission graph `G_k` was built at,
    /// or `None` before the first admission. The invariant auditor compares
    /// this against the live network right after an admission is served.
    #[must_use]
    pub fn cached_version(&self) -> Option<u64> {
        self.cache.as_ref().map(|c| c.version)
    }

    /// Returns (building if needed) the admission graph for bandwidth `b`
    /// against the current residual state, with the landmark oracle over
    /// it when oracle mode is on and its σ-cut in the exponential mode.
    fn admission_graph(&mut self, sdn: &Sdn, b: f64) -> &AdmissionGraphCache {
        let version = sdn.version();
        let bandwidth_bits = b.to_bits();
        let fresh = self
            .cache
            .as_ref()
            .is_some_and(|c| c.version == version && c.bandwidth_bits == bandwidth_bits);
        if fresh {
            self.cache_hits += 1;
            telemetry::hit(telemetry::Counter::AdmissionCacheHits);
        } else {
            telemetry::hit(telemetry::Counter::AdmissionCacheRebuilds);
            let graph = build_admission_graph(sdn, b, self.mode);
            // The oracle prices the same weighted graph the Steiner scan
            // runs on, so its bounds are admissible for exactly the trees
            // this cache generation will build.
            let oracle = (self.oracle_landmarks > 0).then(|| {
                let csr = CsrGraph::from_graph(&graph.weighted);
                LandmarkOracle::build(&csr, self.oracle_landmarks, &mut DijkstraScratch::new())
            });
            let cut = (self.mode == CostMode::Exponential)
                .then(|| SigmaCut::new(&graph.weighted, ExponentialCostModel::threshold(sdn)));
            self.cache = Some(AdmissionGraphCache {
                version,
                bandwidth_bits,
                graph,
                oracle,
                cut,
            });
        }
        self.cache.as_ref().expect("cache was just filled") // lint:allow(P1): the branch above just filled the cache
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
        let cache = self.admission_graph(sdn, b);
        if cache.graph.weighted.edge_count() == 0 {
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
        let (mut phase1, saturated) = phase1_survivors(sdn, request, mode, sigma);
        telemetry::add(telemetry::Counter::OnlineSaturatedServers, saturated);
        let mut threshold_blocked = saturated > 0;
        // The σ-cut gate: drop every survivor whose evaluation is already
        // decided, recording the rejection reason it would have given.
        if let Some(cut) = &cache.cut {
            let anchors = cut.anchors(request);
            phase1.retain(|&(v, _)| match anchors.verdict(v) {
                None => true,
                Some(outcome) => {
                    threshold_blocked |= matches!(outcome, EvalOutcome::ThresholdBlocked);
                    false
                }
            });
        }
        // Every scan draws its shortest-path trees from one bank.
        let mut bank = ctx.scan_bank(phase1.iter().map(|&(v, _)| v));

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
            let mut survivors: Vec<Survivor> = phase1
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
            survivors.sort_by(|x, y| {
                x.lb.partial_cmp(&y.lb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.pos.cmp(&y.pos))
            });

            let mut had_candidates = false;
            let mut best: Option<(f64, usize, PseudoMulticastTree)> = None;
            for (idx, s) in survivors.iter().enumerate() {
                if let Some((best_w, _, _)) = &best {
                    // Strictly worse than the incumbent (with a margin so
                    // float noise can never prune an exact tie, which the
                    // position rule below might still award differently).
                    if s.lb > best_w * (1.0 + sdn::PRUNE_GUARD_REL) + sdn::PRUNE_GUARD_ABS {
                        telemetry::add(
                            telemetry::Counter::OnlineCandidatesPruned,
                            (survivors.len() - idx) as u64,
                        );
                        break;
                    }
                }
                match ctx.evaluate(s.v, s.wv, &mut bank) {
                    EvalOutcome::Admissible(c) => {
                        had_candidates = true;
                        // The final ledger check runs per candidate here;
                        // the exact scan's "sort then first-allocatable"
                        // is the same min over (weight, server position).
                        let tree = ctx.materialize(&c);
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
        let mut candidates: Vec<Candidate> = Vec::new();
        for &(v, wv) in &phase1 {
            match ctx.evaluate(v, wv, &mut bank) {
                EvalOutcome::Admissible(c) => candidates.push(c),
                EvalOutcome::ThresholdBlocked => threshold_blocked = true,
                EvalOutcome::Skip => {}
            }
        }

        // Try candidates cheapest-first; the send-back path may need 2·b_k
        // on some link, so the accumulated allocation is the final check.
        candidates.sort_by(|a, b| a.weight.partial_cmp(&b.weight).expect("weights are finite")); // lint:allow(P1): candidate weights are finite sums of finite unit costs
        let had_candidates = !candidates.is_empty();
        for c in &candidates {
            let tree = ctx.materialize(c);
            if sdn.can_allocate(&tree.allocation(request)) {
                return Ok(tree);
            }
        }
        Err(Rejection::from_scan(had_candidates, threshold_blocked))
    }
}

/// The admission graph `G_k`: the network's alive, residual-feasible
/// links, weighted under one cost mode.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionGraph {
    /// The weighted graph. Its node ids are the network's; its edge ids
    /// are dense over the kept links.
    pub(crate) weighted: Graph,
    /// Network edge id per `weighted` edge id.
    pub(crate) parent_edge: Vec<EdgeId>,
}

impl AdmissionGraph {
    /// Maps `weighted` edge ids back to network edge ids.
    fn parent_edges(&self, edges: &[EdgeId]) -> Vec<EdgeId> {
        edges.iter().map(|e| self.parent_edge[e.index()]).collect()
    }
}

/// Builds the admission graph `G_k` for bandwidth `b` under the chosen
/// cost mode. Shared by `OnlineCp`'s cache and the `EmpPricing` strategy
/// so the two graphs can never drift apart.
///
/// G_k keeps links with enough residual bandwidth for one traversal (a
/// link on the send-back path needs 2·b_k; that stricter joint check
/// happens on the final allocation) and excludes failed links exactly like
/// saturated ones. A fresh network has every exponential weight at exactly
/// zero, which would leave the Steiner routine picking among ties
/// arbitrarily (and wastefully); an infinitesimal unit-cost term breaks
/// those ties toward cost-efficient trees without ever influencing a
/// loaded decision or the admission thresholds.
pub(crate) fn build_admission_graph(sdn: &Sdn, b: f64, mode: CostMode) -> AdmissionGraph {
    let model = ExponentialCostModel::for_network(sdn);
    let linear = LinearCostModel::new();
    let net = sdn.graph();
    let parent_edge: Vec<EdgeId> = net
        .edges()
        .map(|e| e.id)
        .filter(|&e| sdn.is_link_alive(e) && sdn.residual_bandwidth(e) + sdn::CAPACITY_EPS >= b)
        .collect();
    let c_max = parent_edge
        .iter()
        .map(|&e| sdn.unit_bandwidth_cost(e))
        .fold(sdn::COST_FLOOR, f64::max);
    let mut weighted = Graph::with_nodes(net.node_count());
    for &orig in &parent_edge {
        let tiebreak = sdn::COST_TIEBREAK_REL * sdn.unit_bandwidth_cost(orig) / c_max;
        let w = match mode {
            CostMode::Exponential => model.edge_weight(sdn, orig) + tiebreak,
            CostMode::Linear => linear.edge_cost(sdn, orig, 1.0),
        };
        let e = net.edge(orig);
        weighted
            .add_edge(e.u, e.v, w)
            .expect("network edges are valid"); // lint:allow(P1): copies an edge the network graph already validated
    }
    AdmissionGraph {
        weighted,
        parent_edge,
    }
}

/// Phase 1 of an online candidate scan (Algorithm 2, steps 6–7): the
/// servers that are alive, have the residual computing for `request`'s
/// whole chain, and — under [`CostMode::Exponential`] — a server weight
/// below `sigma`. Returns the survivors in [`Sdn::servers`] order with
/// their server weights, plus how many servers the `sigma` threshold
/// blocked.
///
/// `Online_CP` passes `σ = |V| − 1`; `EMP_Online` passes `∞`, since it
/// prices and never thresholds (a surviving server's weight is finite:
/// its utilisation stays below 1).
#[must_use]
pub(crate) fn phase1_survivors(
    sdn: &Sdn,
    request: &MulticastRequest,
    mode: CostMode,
    sigma: f64,
) -> (Vec<(NodeId, f64)>, u64) {
    let demand = request.computing_demand();
    let model = ExponentialCostModel::for_network(sdn);
    let linear = LinearCostModel::new();
    let mut survivors = Vec::new();
    let mut saturated = 0;
    for &v in sdn.servers() {
        // Hard feasibility: the server must be up and the chain must fit
        // its residual capacity (a dead server reads as zero).
        if !sdn.is_server_alive(v)
            || sdn.residual_computing(v).unwrap_or(0.0) + sdn::CAPACITY_EPS < demand
        {
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
    (survivors, saturated)
}

/// One evaluated admission candidate: its weight and the rooted Steiner
/// tree it came from, materialized into a [`PseudoMulticastTree`] only if
/// it reaches the final allocation check.
pub(crate) struct Candidate {
    pub(crate) weight: f64,
    /// The processing server `v`.
    server: NodeId,
    /// The Steiner tree in `G_k` edge ids, rooted at the source.
    rooted: RootedTree,
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
    pub(crate) graph: &'a AdmissionGraph,
}

impl AdmissionCtx<'_> {
    /// One terminal-SPT bank for a whole candidate scan over `servers`:
    /// its targets are `{s_k} ∪ D_k ∪ servers`. Every candidate's Steiner
    /// construction draws the anchor terminals' trees from it, and since
    /// [`AdmissionCtx::evaluate`] puts the server last, no server's own
    /// tree is ever built.
    pub(crate) fn scan_bank(
        &self,
        servers: impl IntoIterator<Item = NodeId>,
    ) -> steiner::TerminalSptBank {
        let mut targets = vec![self.request.source];
        targets.extend(self.request.destinations.iter().copied());
        targets.extend(servers);
        steiner::TerminalSptBank::new(targets)
    }

    /// Evaluates server `v` (server weight `wv`), drawing the Steiner
    /// construction's shortest-path trees from `bank`, which must come
    /// from [`AdmissionCtx::scan_bank`] over a set containing `v`.
    pub(crate) fn evaluate(
        &self,
        v: NodeId,
        wv: f64,
        bank: &mut steiner::TerminalSptBank,
    ) -> EvalOutcome {
        let (request, weighted) = (self.request, &self.graph.weighted);
        // Step 8: Steiner tree over {s_k} ∪ D_k ∪ {v} in G_k. KMB builds
        // no tree for its last terminal, so with the server last every
        // shortest-path tree comes from the anchors the whole scan shares;
        // the server's closure row is read off those trees at `v`.
        let mut terminals = Vec::with_capacity(request.destinations.len() + 2);
        terminals.push(request.source);
        terminals.extend(request.destinations.iter().copied());
        terminals.push(v);
        let Some(tree) = steiner::kmb_with_bank(weighted, &terminals, bank) else {
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
        let Some(rooted) = tree.root_at(weighted, request.source) else {
            return EvalOutcome::Skip;
        };
        // Reuse the terminal buffer as the LCA arguments `{v} ∪ D_k`.
        terminals.pop();
        terminals[0] = v;
        let lca = rooted.lca_of_set(&terminals);
        let (Some(dist_v), Some(dist_lca)) =
            (rooted.distance_from_root(v), rooted.distance_from_root(lca))
        else {
            return EvalOutcome::Skip;
        };
        EvalOutcome::Admissible(Candidate {
            weight: tree_weight + wv + (dist_v - dist_lca),
            server: v,
            rooted,
            lca,
        })
    }

    /// Materializes candidate `c` as a pseudo-multicast tree in network
    /// edge ids.
    pub(crate) fn materialize(&self, c: &Candidate) -> PseudoMulticastTree {
        let (sdn, request, v) = (self.sdn, self.request, c.server);
        let ingress_ids = self
            .graph
            .parent_edges(c.rooted.path_between(request.source, v).edges());
        let ingress_set: std::collections::BTreeSet<EdgeId> = ingress_ids.iter().copied().collect();
        let all_tree = self.graph.parent_edges(c.rooted.edges());
        let distribution: Vec<EdgeId> = all_tree
            .iter()
            .copied()
            .filter(|e| !ingress_set.contains(e))
            .collect();
        let extra = self
            .graph
            .parent_edges(c.rooted.path_between(v, c.lca).edges());

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
        PseudoMulticastTree {
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
        }
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

        let (survivors, saturated) = phase1_survivors(&sdn, &req, CostMode::Exponential, sigma);
        assert_eq!(survivors, vec![(ok, 0.0)]);
        assert_eq!(saturated, 1);
        // σ = ∞ (EMP) and the linear mode never threshold.
        let (survivors, saturated) =
            phase1_survivors(&sdn, &req, CostMode::Exponential, f64::INFINITY);
        assert_eq!(
            survivors.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            [ok, hot]
        );
        assert_eq!(saturated, 0);
        let (survivors, saturated) = phase1_survivors(&sdn, &req, CostMode::Linear, sigma);
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
                    let graph = build_admission_graph(&sdn, req.bandwidth, CostMode::Exponential);
                    let sigma = ExponentialCostModel::threshold(&sdn);
                    let cut = SigmaCut::new(&graph.weighted, sigma);
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
                    let (survivors, _) = phase1_survivors(&sdn, req, CostMode::Exponential, sigma);
                    let mut bank = ctx.scan_bank(survivors.iter().map(|&(v, _)| v));
                    for &(v, wv) in &survivors {
                        let Some(predicted) = anchors.verdict(v) else {
                            continue;
                        };
                        match predicted {
                            EvalOutcome::ThresholdBlocked => blocked += 1,
                            _ => skipped += 1,
                        }
                        let evaluated = ctx.evaluate(v, wv, &mut bank);
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
        let mut weighted = Graph::with_nodes(sdn.node_count());
        for (&orig, w) in e.iter().zip([0.0, sigma, 0.0]) {
            let link = sdn.graph().edge(orig);
            weighted.add_edge(link.u, link.v, w).unwrap();
        }
        let graph = AdmissionGraph {
            weighted,
            parent_edge: e,
        };
        let req = MulticastRequest::new(RequestId(0), v[0], vec![v[3]], 100.0, chain());
        let cut = SigmaCut::new(&graph.weighted, sigma);
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
        let mut bank = ctx.scan_bank([v[2]]);
        assert!(same_outcome(
            &predicted,
            &ctx.evaluate(v[2], 0.0, &mut bank)
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
        let cache = algo.cache.as_ref().unwrap();
        let anchors = cache.cut.as_ref().unwrap().anchors(&req);
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
        assert!(linear.cache.unwrap().cut.is_none());
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
