//! `Appro_Multi` (Algorithm 1): the 2K-approximation for NFV-enabled
//! multicasting without resource capacity constraints.
//!
//! Two implementations with identical semantics:
//!
//! * [`appro_multi_with_steiner`] — the *literal* transcription of
//!   Algorithm 1: for every server combination, materialize the auxiliary
//!   graph and run the chosen Steiner routine over it. Easy to audit
//!   against the paper; `O(C(|V_S|, ≤K))` full KMB runs.
//! * [`appro_multi`] — the production path: shortest-path trees from the
//!   source and every destination are computed **once per request** and
//!   shared across all combinations; each combination then reduces to a
//!   metric-closure MST over `|D_k| + 1` points plus a small expansion
//!   subgraph. The combination scan is branch-and-bound pruned: two
//!   admissible lower bounds (derived in DESIGN.md, "Hot path anatomy")
//!   skip any combination that provably cannot beat the incumbent, and
//!   the scan's working memory stays on the thread between requests, so
//!   it does no per-combination allocation.
//!   [`appro_multi_unpruned`] runs the same scan with pruning disabled —
//!   the audit path the property tests pin byte-identity against.
//!   Orders of magnitude faster on the paper's 250-node networks. The
//!   only semantic divergence from the literal version is that the
//!   zero-cost rule for a direct `(s_k, v)` edge is not applied (it would
//!   invalidate the shared distances); the unit tests pin the two
//!   implementations against each other on instances where the rule
//!   cannot fire, and bound their gap elsewhere.

use crate::{AuxiliaryGraph, Combinations, PseudoMulticastTree, ServerUse};
use netgraph::{dijkstra, dijkstra_with_targets, kruskal, EdgeId, Graph, NodeId, ShortestPathTree};
use sdn::{MulticastRequest, Sdn};
use std::cell::RefCell;

/// Which Steiner tree routine the literal implementation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteinerRoutine {
    /// Kou–Markowsky–Berman (the paper's choice \[12\]).
    #[default]
    Kmb,
    /// Mehlhorn's single-sweep construction — same `< 2` guarantee as
    /// KMB from one multi-source Dijkstra instead of one per terminal.
    Mehlhorn,
    /// Takahashi–Matsuyama shortest-path heuristic (ablation).
    Sph,
}

/// One candidate server as seen by the combination scan.
#[derive(Debug, Clone, Copy)]
struct VirtEdge {
    /// The server node.
    node: NodeId,
    /// Full virtual-edge weight: `dist(s, v)·b + computing`.
    weight: f64,
    /// The computing-cost component alone (used by the pruning bounds).
    computing: f64,
}

/// Interned original-node → mini-graph-node slot, valid when its stamp
/// equals the scratch's current epoch.
#[derive(Debug, Clone, Copy)]
struct InternSlot {
    stamp: u32,
    id: NodeId,
}

impl Default for InternSlot {
    fn default() -> Self {
        InternSlot {
            stamp: 0,
            id: NodeId::new(0),
        }
    }
}

/// How an edge of the per-combination mini graph maps back to the SDN.
#[derive(Debug, Clone, Copy)]
enum Tag {
    Real(EdgeId),
    Virtual(usize),
}

/// Working memory of the `Appro_Multi` combination scan.
///
/// Each thread keeps one in [`THREAD_SCRATCH`]; after the first request
/// every per-combination structure — the metric closure, the expansion
/// mini graph, the intern table, and all edge buffers — is recycled, so
/// the scan's inner loop performs no allocations beyond the candidate
/// trees themselves.
#[derive(Debug, Default)]
struct ApproScratch {
    /// Best `(aux distance, virt index)` per destination, this combo.
    to_virtual: Vec<(f64, usize)>,
    /// Metric closure over `{s'} ∪ D`, rebuilt in place per combo.
    closure: Graph,
    /// Realization of closure edge `(i, j)` at flat index `i·|D| + j`.
    realization: Vec<Realization>,
    /// Real SDN edges of the expanded closure MST (sorted, deduped).
    real_edges: Vec<EdgeId>,
    /// Virt indices whose virtual legs the expansion used.
    used_virtual: Vec<usize>,
    /// The mini auxiliary subgraph, rebuilt in place per combo.
    mini: Graph,
    /// Mini edge index → SDN edge / virtual tag.
    tags: Vec<Tag>,
    /// Epoch-stamped original-node → mini-node intern table.
    intern: Vec<InternSlot>,
    /// Current intern epoch; bumping it invalidates the whole table O(1).
    epoch: u32,
    /// Terminal list (`s'` + interned destinations) for the prune step.
    terminals: Vec<NodeId>,
    /// Winner vector (chosen server per destination) of the current combo.
    winners: Vec<u32>,
    /// Winner vectors already evaluated this request. Two combinations
    /// with the same winner vector produce the *same* tree, so the
    /// duplicate can never strictly improve the incumbent.
    seen: std::collections::BTreeSet<Vec<u32>>,
}

thread_local! {
    /// This thread's scan scratch. Only [`appro_multi_scan`] borrows it;
    /// each public entry point calls that at most once, and nothing inside
    /// the borrow calls a public entry point.
    static THREAD_SCRATCH: RefCell<ApproScratch> = RefCell::new(ApproScratch::default());
}

impl ApproScratch {
    /// Starts a fresh intern epoch sized for `n` original nodes.
    fn begin_intern(&mut self, n: usize) {
        if self.intern.len() < n {
            self.intern.resize(n, InternSlot::default());
        }
        if self.epoch == u32::MAX {
            for s in &mut self.intern {
                s.stamp = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

/// Runs `Appro_Multi` with the optimized shared-SPT evaluation.
///
/// Returns the minimum-cost pseudo-multicast tree over all server
/// combinations of size 1..=`k`, or `None` when no combination can reach
/// every destination (disconnected network or no usable server).
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
// lint:entry(api)
pub fn appro_multi(sdn: &Sdn, request: &MulticastRequest, k: usize) -> Option<PseudoMulticastTree> {
    plan(sdn.graph(), request, k, &priced_servers(sdn), true)
}

/// Algorithm 1 on an explicit graph and candidate server set: the entry
/// point of every planner that plans on a subgraph or under its own
/// prices. `g`'s edge weights are the unit bandwidth costs, and
/// `servers` lists each candidate server with the unit computing cost
/// `c_v` the scan charges for it. `Appro_Multi_Cap` passes the
/// residual-feasible subgraph ([`sdn::FeasibleGraph`]) and the servers
/// that fit the chain; `Online_CP_Multi` passes congestion prices.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn appro_multi_on_graph(
    g: &Graph,
    request: &MulticastRequest,
    k: usize,
    servers: &[(NodeId, f64)],
) -> Option<PseudoMulticastTree> {
    plan(g, request, k, servers, true)
}

/// [`appro_multi`] with the branch-and-bound pruning disabled: every
/// combination is evaluated. Byte-identical output to [`appro_multi`] by
/// construction (the bounds are admissible, so pruning only skips
/// combinations that cannot improve the incumbent); the property tests
/// and benches pin the two against each other.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn appro_multi_unpruned(
    sdn: &Sdn,
    request: &MulticastRequest,
    k: usize,
) -> Option<PseudoMulticastTree> {
    plan(sdn.graph(), request, k, &priced_servers(sdn), false)
}

/// Every server of `sdn` with its unit computing cost: the candidate set
/// of the uncapacitated algorithm.
pub(crate) fn priced_servers(sdn: &Sdn) -> Vec<(NodeId, f64)> {
    sdn.servers()
        .iter()
        .filter_map(|&v| Some((v, sdn.unit_computing_cost(v)?)))
        .collect()
}

/// Computes the shortest-path trees of one request on `g` and runs the
/// combination scan over them.
fn plan(
    g: &Graph,
    request: &MulticastRequest,
    k: usize,
    servers: &[(NodeId, f64)],
    prune: bool,
) -> Option<PseudoMulticastTree> {
    assert!(k >= 1, "at least one server is required (K >= 1)");
    if servers.is_empty() {
        return None;
    }
    // One SPT from the source (ingress paths / virtual weights)...
    let spt_source = dijkstra(g, request.source);
    // ...and one early-exit SPT per destination (reaching all servers, the
    // source, and the other destinations).
    let mut targets: Vec<NodeId> = request.destinations.clone();
    targets.push(request.source);
    targets.extend(servers.iter().map(|&(v, _)| v));
    let spt_dests: Vec<ShortestPathTree> = request
        .destinations
        .iter()
        .map(|&d| dijkstra_with_targets(g, d, &targets))
        .collect();
    let dest_refs: Vec<&ShortestPathTree> = spt_dests.iter().collect();
    appro_multi_scan(g, request, k, servers, &spt_source, &dest_refs, prune)
}

/// Per-request scan tables: flat distance lookups shared by every
/// combination, plus the combination-independent half of the pruning
/// bound. Computed once per request in `O(|D|·(|V_S| + |D|))`.
struct ScanTables {
    b: f64,
    dlen: usize,
    /// `dist(d_i, virt[vi].node)` at flat index `i·|virt| + vi`
    /// (`∞` when unreachable).
    dist_dv: Vec<f64>,
    /// `dist(d_i, d_j)` at flat index `i·|D| + j`, `i < j` populated
    /// (`∞` when unreachable).
    dist_dd: Vec<f64>,
    /// `(b/2) · MST(closure({s} ∪ D))`: ingress ∪ distribution is a
    /// connected subgraph spanning the source and all destinations, and a
    /// Steiner tree is at least half its terminal-closure MST.
    span_lb: f64,
}

impl ScanTables {
    fn compute(
        b: f64,
        virt: &[VirtEdge],
        request: &MulticastRequest,
        spt_dests: &[&ShortestPathTree],
    ) -> ScanTables {
        let dests = &request.destinations;
        let dlen = dests.len();

        // Destination-to-candidate distance table.
        let mut dist_dv = vec![f64::INFINITY; dlen * virt.len()];
        for (di, spt) in spt_dests.iter().enumerate().take(dlen) {
            for (vi, ve) in virt.iter().enumerate() {
                if let Some(dv) = spt.distance(ve.node) {
                    if let Some(slot) = dist_dv.get_mut(di * virt.len() + vi) {
                        *slot = dv;
                    }
                }
            }
        }

        // Destination-pair distances, and the metric-closure MST over
        // {source} ∪ D whose half lower-bounds any connected subgraph
        // spanning those nodes.
        let mut dist_dd = vec![f64::INFINITY; dlen * dlen];
        let mut closure = Graph::with_nodes(dlen + 1); // node 0 = source
        let mut complete = true;
        for (i, spt) in spt_dests.iter().enumerate().take(dlen) {
            match spt.distance(request.source) {
                Some(d) => {
                    closure
                        .add_edge(NodeId::new(0), NodeId::new(i + 1), d)
                        .expect("finite distance"); // lint:allow(P1): closure weights are finite Dijkstra distances
                }
                None => complete = false,
            }
            for (j, &dj) in dests.iter().enumerate().skip(i + 1) {
                match spt.distance(dj) {
                    Some(d) => {
                        if let Some(slot) = dist_dd.get_mut(i * dlen + j) {
                            *slot = d;
                        }
                        closure
                            .add_edge(NodeId::new(i + 1), NodeId::new(j + 1), d)
                            .expect("finite distance"); // lint:allow(P1): closure weights are finite Dijkstra distances
                    }
                    None => complete = false,
                }
            }
        }
        let span_lb = if complete {
            let mst = kruskal(&closure);
            if mst.is_spanning_tree() {
                0.5 * b * mst.total_weight
            } else {
                0.0
            }
        } else {
            0.0
        };

        ScanTables {
            b,
            dlen,
            dist_dv,
            dist_dd,
            span_lb,
        }
    }

    /// The two admissible lower bounds on the pseudo-tree cost of `combo`,
    /// returned separately so the scan can attribute prunes to LB1 vs LB2.
    fn lower_bounds(&self, virt: &[VirtEdge], combo: &[usize]) -> (f64, f64) {
        let mut min_virt = f64::INFINITY;
        let mut min_comp = f64::INFINITY;
        for &vi in combo {
            if let Some(ve) = virt.get(vi) {
                min_virt = min_virt.min(ve.weight);
                min_comp = min_comp.min(ve.computing);
            }
        }
        // Every destination's distribution path reaches *some* server of
        // the combo, so the worst destination pays at least its distance
        // to the nearest combo server in bandwidth.
        let mut attach = 0.0_f64;
        for di in 0..self.dlen {
            let mut nearest = f64::INFINITY;
            for &vi in combo {
                let dv = self
                    .dist_dv
                    .get(di * virt.len() + vi)
                    .copied()
                    .unwrap_or(f64::INFINITY);
                nearest = nearest.min(dv);
            }
            attach = attach.max(nearest);
        }
        // LB1: some used server pays its full virtual weight (its ingress
        // path is a subset of the ingress union, its computing a term of
        // the total), plus the attachment bound on distribution edges.
        // An unreachable destination makes `attach` infinite — the combo
        // would fail evaluation anyway, so pruning it is exact too.
        // LB2: computing of some used server plus the spanning bound on
        // ingress ∪ distribution bandwidth.
        (min_virt + self.b * attach, min_comp + self.span_lb)
    }
}

/// The combination-enumeration core of `Appro_Multi`, evaluated against
/// caller-supplied shortest-path trees: the shared scan driving both the
/// pruned production path and the unpruned audit path.
///
/// `spt_source` must be (equivalent to) `dijkstra(g, request.source)` and
/// `spt_dests[i]` to a Dijkstra run from `request.destinations[i]` that
/// settled every destination, the source, and every candidate server.
/// A *full* tree satisfies that trivially, which is what lets the
/// per-source SPT cache drive this path: early-exit and full runs agree
/// exactly on all settled nodes, so the result is byte-identical either
/// way. `servers` pairs each candidate with its unit computing cost, as
/// in [`appro_multi_on_graph`]. Runs on this thread's scratch.
pub(crate) fn appro_multi_scan(
    g: &Graph,
    request: &MulticastRequest,
    k: usize,
    servers: &[(NodeId, f64)],
    spt_source: &ShortestPathTree,
    spt_dests: &[&ShortestPathTree],
    prune: bool,
) -> Option<PseudoMulticastTree> {
    THREAD_SCRATCH.with_borrow_mut(|scratch| {
        scan(
            g, request, k, servers, spt_source, spt_dests, scratch, prune,
        )
    })
}

/// [`appro_multi_scan`] on explicit working memory.
#[allow(clippy::too_many_arguments)] // private; the entry points are narrow
fn scan(
    g: &Graph,
    request: &MulticastRequest,
    k: usize,
    servers: &[(NodeId, f64)],
    spt_source: &ShortestPathTree,
    spt_dests: &[&ShortestPathTree],
    scratch: &mut ApproScratch,
    prune: bool,
) -> Option<PseudoMulticastTree> {
    assert!(k >= 1, "at least one server is required (K >= 1)");
    if servers.is_empty() {
        return None;
    }
    let b = request.bandwidth;
    let demand = request.computing_demand();

    // Virtual-edge weight per candidate server; unreachable servers drop.
    let virt: Vec<VirtEdge> = servers
        .iter()
        .filter_map(|&(v, unit)| {
            let dist = spt_source.distance(v)?;
            let computing = unit * demand;
            Some(VirtEdge {
                node: v,
                weight: dist * b + computing,
                computing,
            })
        })
        .collect();
    if virt.is_empty() {
        return None;
    }

    let tables = ScanTables::compute(b, &virt, request, spt_dests);
    let dlen = request.destinations.len();
    scratch.seen.clear();

    // Candidates are compared by their *pseudo-tree* cost (ingress union
    // shared across servers), the physically carried traffic of Fig. 3.
    let mut best: Option<PseudoMulticastTree> = None;
    let mut best_cost = f64::INFINITY;
    let mut evaluated_this_scan = 0u64;
    let indices: Vec<usize> = (0..virt.len()).collect();
    let mut combos = Combinations::new(&indices, k);
    while let Some(combo) = combos.next() {
        if prune && best_cost.is_finite() {
            // The incumbent can only be *replaced* by a strictly
            // cheaper tree; a combination whose admissible bound
            // clears the incumbent (with float headroom) cannot
            // change the result, so skipping it is byte-exact.
            let (lb1, lb2) = tables.lower_bounds(&virt, combo);
            if lb1.max(lb2) > best_cost * (1.0 + sdn::PRUNE_GUARD_REL) + sdn::PRUNE_GUARD_ABS {
                if lb1 >= lb2 {
                    telemetry::hit(telemetry::Counter::CombosPrunedLb1);
                } else {
                    telemetry::hit(telemetry::Counter::CombosPrunedLb2);
                }
                continue;
            }
        }

        // Best server (and aux distance) for each destination — the
        // *winner assignment*. The rest of the evaluation depends on the
        // combination only through this vector.
        scratch.to_virtual.clear();
        let mut feasible = true;
        for di in 0..dlen {
            let mut best_v: Option<(f64, usize)> = None;
            for &vi in combo {
                let dv = tables
                    .dist_dv
                    .get(di * virt.len() + vi)
                    .copied()
                    .unwrap_or(f64::INFINITY);
                if !dv.is_finite() {
                    continue;
                }
                let Some(ve) = virt.get(vi) else { continue };
                let cand = ve.weight + dv * b;
                if best_v.is_none_or(|(bc, _)| cand < bc) {
                    best_v = Some((cand, vi));
                }
            }
            match best_v {
                Some(x) => scratch.to_virtual.push(x),
                None => {
                    // Some destination reaches no server of this combo.
                    feasible = false;
                    break;
                }
            }
        }
        if !feasible {
            continue;
        }

        if prune {
            // Two combinations with the same winner assignment build the
            // same closure, the same expansion, the same tree — and a
            // duplicate tree can never *strictly* beat the incumbent it
            // (or a predecessor) set, so skipping it is byte-exact.
            let ApproScratch {
                winners,
                seen,
                to_virtual,
                ..
            } = &mut *scratch;
            winners.clear();
            winners.extend(to_virtual.iter().map(|&(_, vi)| vi as u32));
            if seen.contains(&*winners) {
                telemetry::hit(telemetry::Counter::CombosDeduped);
                continue;
            }
            seen.insert(winners.clone());
        }

        evaluated_this_scan += 1;
        telemetry::hit(telemetry::Counter::CombosEvaluated);
        let Some(tree) = eval_combination(g, b, &virt, request, spt_dests, &tables, scratch) else {
            continue;
        };
        let pseudo = tree.into_pseudo(g, request, &virt, spt_source);
        if pseudo.total_cost() < best_cost {
            best_cost = pseudo.total_cost();
            best = Some(pseudo);
        }
    }
    telemetry::observe(telemetry::Hist::CombosPerScan, evaluated_this_scan);
    best
}

/// The pruned result of one combination evaluation, in terms of real SDN
/// edges plus used servers.
#[derive(Debug, Clone)]
struct MiniTree {
    distribution: Vec<EdgeId>,
    used_servers: Vec<usize>, // indices into `virt`
}

impl MiniTree {
    fn into_pseudo(
        self,
        g: &Graph,
        request: &MulticastRequest,
        virt: &[VirtEdge],
        spt_source: &ShortestPathTree,
    ) -> PseudoMulticastTree {
        let b = request.bandwidth;
        let mut servers = Vec::new();
        let mut computing_cost = 0.0;
        for &vi in &self.used_servers {
            let Some(ve) = virt.get(vi) else { continue };
            let path = spt_source
                .path_to(g, ve.node)
                .expect("virtual weight implies reachability"); // lint:allow(P1): a finite virtual weight implies the SPT reaches v
            computing_cost += ve.computing;
            servers.push(ServerUse {
                server: ve.node,
                ingress_edges: path.edges().to_vec(),
                ingress_cost: path.cost() * b,
                computing_cost: ve.computing,
            });
        }
        let mut pseudo = PseudoMulticastTree {
            request: request.id,
            source: request.source,
            servers,
            distribution_edges: self.distribution,
            extra_traversals: Vec::new(),
            bandwidth_cost: 0.0,
            computing_cost,
        };
        // Bandwidth: the ingress *union* (shared trunk edges once) plus
        // the distribution structure.
        pseudo.bandwidth_cost = pseudo
            .ingress_union()
            .iter()
            .chain(&pseudo.distribution_edges)
            .map(|&e| g.edge(e).weight * b)
            .sum();
        pseudo
    }
}

/// How a closure edge between two destinations is realized.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Realization {
    Direct,
    ViaVirtual,
}

/// Interns `orig` into the current epoch, assigning mini-graph ids in
/// first-encounter order — the same order `HashMap::entry().or_insert_with`
/// produced before the table became reusable, so the mini graph (and with
/// it Kruskal's tie-breaking) is byte-identical.
fn intern_node(slots: &mut [InternSlot], epoch: u32, count: &mut usize, orig: NodeId) -> NodeId {
    let Some(slot) = slots.get_mut(orig.index()) else {
        // Unreachable: the slot table is sized to the graph and `orig` is
        // one of its nodes. Returning the mini source keeps this total.
        return NodeId::new(0);
    };
    if slot.stamp != epoch {
        slot.stamp = epoch;
        slot.id = NodeId::new(*count);
        *count += 1;
    }
    slot.id
}

/// Mini-graph id previously assigned to `orig` by [`intern_node`].
fn interned_id(slots: &[InternSlot], orig: NodeId) -> NodeId {
    slots.get(orig.index()).map_or(NodeId::new(0), |s| s.id)
}

/// Evaluates one server combination: KMB over the (implicit) auxiliary
/// graph using the precomputed shortest-path trees, all working memory
/// drawn from `scratch`. Returns the pruned tree's composition.
fn eval_combination(
    g: &Graph,
    b: f64,
    virt: &[VirtEdge],
    request: &MulticastRequest,
    spt_dests: &[&ShortestPathTree],
    tables: &ScanTables,
    scratch: &mut ApproScratch,
) -> Option<MiniTree> {
    let dests = &request.destinations;
    let dlen = dests.len();
    let t = dlen + 1; // virtual source + destinations

    scratch.begin_intern(g.node_count());
    let epoch = scratch.epoch;
    // `to_virtual` arrives pre-filled by the scan loop (the winner
    // assignment for the current combination).
    let ApproScratch {
        to_virtual,
        closure,
        realization,
        real_edges,
        used_virtual,
        mini,
        tags,
        intern,
        terminals,
        ..
    } = scratch;

    // Metric closure over {s'} ∪ D (node 0 = s'), rebuilt in place.
    closure.reset(t);
    realization.clear();
    realization.resize(dlen * dlen, Realization::Direct);
    for (di, &(dcost, _)) in to_virtual.iter().enumerate() {
        closure
            .add_edge(NodeId::new(0), NodeId::new(di + 1), dcost)
            .expect("finite closure weight"); // lint:allow(P1): closure weights are finite Dijkstra distances
    }
    for i in 0..dlen {
        for j in (i + 1)..dlen {
            let raw = tables
                .dist_dd
                .get(i * dlen + j)
                .copied()
                .unwrap_or(f64::INFINITY);
            let direct = if raw.is_finite() { Some(raw * b) } else { None };
            let leg = |di: usize| to_virtual.get(di).map_or(f64::INFINITY, |&(c, _)| c);
            let via = leg(i) + leg(j);
            let (w, real) = match direct {
                Some(d) if d <= via => (d, Realization::Direct),
                _ => (via, Realization::ViaVirtual),
            };
            closure
                .add_edge(NodeId::new(i + 1), NodeId::new(j + 1), w)
                .expect("finite closure weight"); // lint:allow(P1): closure weights are finite Dijkstra distances
            if let Some(slot) = realization.get_mut(i * dlen + j) {
                *slot = real;
            }
        }
    }
    let closure_mst = kruskal(closure);
    debug_assert!(closure_mst.is_spanning_tree());

    // Expand closure MST edges into real edges + virtual edges.
    real_edges.clear();
    used_virtual.clear();
    fn add_virtual_leg(
        g: &Graph,
        di: usize,
        to_virtual: &[(f64, usize)],
        virt: &[VirtEdge],
        spt_dests: &[&ShortestPathTree],
        real_edges: &mut Vec<EdgeId>,
        used: &mut Vec<usize>,
    ) {
        let Some(&(_, vi)) = to_virtual.get(di) else {
            return;
        };
        used.push(vi);
        let (Some(server), Some(spt)) = (virt.get(vi), spt_dests.get(di)) else {
            return;
        };
        let path = spt
            .path_to(g, server.node)
            .expect("virtual leg implies reachability"); // lint:allow(P1): the virtual leg was admitted only with the server reachable
        real_edges.extend(path.edges().iter().copied());
    }
    for &ce in &closure_mst.edges {
        let er = closure.edge(ce);
        let (a, c) = (er.u.index(), er.v.index());
        let (a, c) = (a.min(c), a.max(c));
        if a == 0 {
            add_virtual_leg(
                g,
                c - 1,
                to_virtual,
                virt,
                spt_dests,
                real_edges,
                used_virtual,
            );
        } else {
            let (i, j) = (a - 1, c - 1);
            let real = realization
                .get(i * dlen + j)
                .copied()
                .unwrap_or(Realization::ViaVirtual);
            match real {
                Realization::Direct => {
                    if let (Some(spt), Some(&dj)) = (spt_dests.get(i), dests.get(j)) {
                        let path = spt
                            .path_to(g, dj)
                            .expect("direct realization implies reachability"); // lint:allow(P1): the closure edge exists only if dests[j] is reachable
                        real_edges.extend(path.edges().iter().copied());
                    }
                }
                Realization::ViaVirtual => {
                    add_virtual_leg(g, i, to_virtual, virt, spt_dests, real_edges, used_virtual);
                    add_virtual_leg(g, j, to_virtual, virt, spt_dests, real_edges, used_virtual);
                }
            }
        }
    }
    real_edges.sort_unstable();
    real_edges.dedup();
    used_virtual.sort_unstable();
    used_virtual.dedup();

    // Mini auxiliary subgraph: interned nodes, real + virtual edges.
    // Pass 1 assigns mini node ids (first-encounter order, identical to
    // the old on-the-fly interning); pass 2 rebuilds the graph in place.
    let mut count = 0usize;
    for &e in real_edges.iter() {
        let er = g.edge(e);
        intern_node(intern, epoch, &mut count, er.u);
        intern_node(intern, epoch, &mut count, er.v);
    }
    let s_prime = NodeId::new(count); // virtual source, outside the intern map
    count += 1;
    for &vi in used_virtual.iter() {
        if let Some(ve) = virt.get(vi) {
            intern_node(intern, epoch, &mut count, ve.node);
        }
    }

    mini.reset(count);
    tags.clear();
    for &e in real_edges.iter() {
        let er = g.edge(e);
        let u = interned_id(intern, er.u);
        let v = interned_id(intern, er.v);
        mini.add_edge(u, v, er.weight * b).expect("valid mini edge"); // lint:allow(P1): mini-graph edges copy validated finite weights
        tags.push(Tag::Real(e));
    }
    for &vi in used_virtual.iter() {
        let Some(ve) = virt.get(vi) else { continue };
        let vm = interned_id(intern, ve.node);
        mini.add_edge(s_prime, vm, ve.weight)
            .expect("valid virtual edge"); // lint:allow(P1): virtual weights are finite by construction
        tags.push(Tag::Virtual(vi));
    }

    // KMB steps 4-5: MST of the expansion subgraph, then prune.
    let mst = kruskal(mini);
    terminals.clear();
    terminals.push(s_prime);
    for d in dests {
        let slot = intern.get(d.index()).copied().unwrap_or_default();
        assert!(slot.stamp == epoch, "destinations are on paths");
        terminals.push(slot.id);
    }
    let (kept, _cost) = steiner::prune_non_terminal_leaves(mini, &mst.edges, terminals);

    let mut distribution = Vec::new();
    let mut used_servers = Vec::new();
    for e in kept {
        match tags.get(e.index()).copied() {
            Some(Tag::Real(id)) => distribution.push(id),
            Some(Tag::Virtual(vi)) => used_servers.push(vi),
            None => {}
        }
    }
    if used_servers.is_empty() {
        // Degenerate: pruning removed every server leg (can only happen if
        // no destination exists, which requests forbid).
        return None;
    }
    Some(MiniTree {
        distribution,
        used_servers,
    })
}

/// Runs the literal Algorithm 1: materialize `G_k^i` per combination and
/// invoke the chosen Steiner routine.
#[must_use]
pub fn appro_multi_with_steiner(
    sdn: &Sdn,
    request: &MulticastRequest,
    k: usize,
    routine: SteinerRoutine,
) -> Option<PseudoMulticastTree> {
    assert!(k >= 1, "at least one server is required (K >= 1)");
    let spt_source = dijkstra(sdn.graph(), request.source);
    let mut best: Option<PseudoMulticastTree> = None;
    let mut combos = Combinations::new(sdn.servers(), k);
    while let Some(combo) = combos.next() {
        let Some(aux) = AuxiliaryGraph::build_with_spt(sdn, request, combo, &spt_source) else {
            continue;
        };
        let terminals = aux.terminals(request);
        let tree = match routine {
            SteinerRoutine::Kmb => steiner::kmb(aux.graph(), &terminals),
            SteinerRoutine::Mehlhorn => steiner::mehlhorn(aux.graph(), &terminals),
            SteinerRoutine::Sph => steiner::sph(aux.graph(), &terminals),
        };
        let Some(tree) = tree else { continue };
        let pseudo = aux.steiner_to_pseudo(&tree);
        if best
            .as_ref()
            .is_none_or(|b| pseudo.total_cost() < b.total_cost())
        {
            best = Some(pseudo);
        }
    }
    best
}

/// The literal Algorithm 1 with the paper's KMB routine — the auditable
/// reference for [`appro_multi`].
#[must_use]
pub fn appro_multi_reference(
    sdn: &Sdn,
    request: &MulticastRequest,
    k: usize,
) -> Option<PseudoMulticastTree> {
    appro_multi_with_steiner(sdn, request, k, SteinerRoutine::Kmb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sdn::{NfvType, RequestId, SdnBuilder, ServiceChain};

    fn chain() -> ServiceChain {
        ServiceChain::new(vec![NfvType::Firewall])
    }

    /// A line: s - a - m1(server) - b - d1, with d2 off b.
    fn line_fixture() -> (Sdn, MulticastRequest) {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let a = bld.add_switch();
        let m1 = bld.add_server(8_000.0, 1.0);
        let bb = bld.add_switch();
        let d1 = bld.add_switch();
        let d2 = bld.add_switch();
        bld.add_link(s, a, 10_000.0, 1.0).unwrap();
        bld.add_link(a, m1, 10_000.0, 1.0).unwrap();
        bld.add_link(m1, bb, 10_000.0, 1.0).unwrap();
        bld.add_link(bb, d1, 10_000.0, 1.0).unwrap();
        bld.add_link(bb, d2, 10_000.0, 1.0).unwrap();
        let sdn = bld.build().unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d1, d2], 10.0, chain());
        (sdn, req)
    }

    #[test]
    fn single_server_line() {
        let (sdn, req) = line_fixture();
        let t = appro_multi(&sdn, &req, 1).unwrap();
        t.validate(&sdn, &req).unwrap();
        // Ingress s->a->m1: 2 edges * 10 = 20; computing 1.0*0.9*10 = 9;
        // distribution m1->b, b->d1, b->d2 = 30. Total 59.
        assert!(
            (t.total_cost() - 59.0).abs() < 1e-9,
            "cost {}",
            t.total_cost()
        );
        assert_eq!(t.servers_used().len(), 1);
    }

    #[test]
    fn reference_agrees_on_line() {
        let (sdn, req) = line_fixture();
        let fast = appro_multi(&sdn, &req, 1).unwrap();
        let lit = appro_multi_reference(&sdn, &req, 1).unwrap();
        assert!((fast.total_cost() - lit.total_cost()).abs() < 1e-9);
    }

    /// Random Waxman-ish instance with no server adjacent to the source,
    /// so the zero-edge rule cannot fire and fast == literal must hold.
    fn random_instance(seed: u64, n: usize) -> Option<(Sdn, MulticastRequest)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bld = SdnBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| bld.add_switch()).collect();
        // Ring + chords for connectivity.
        for i in 0..n {
            bld.add_link(
                nodes[i],
                nodes[(i + 1) % n],
                10_000.0,
                rng.gen_range(0.5..2.0),
            )
            .unwrap();
        }
        for _ in 0..n {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                bld.add_link(nodes[u], nodes[v], 10_000.0, rng.gen_range(0.5..2.0))
                    .unwrap();
            }
        }
        // Source is node 0; servers are picked away from its neighbors.
        let source = nodes[0];
        let mut servers = Vec::new();
        for &node in &nodes[(n / 3)..(n / 3 + 3)] {
            bld.attach_server(node, 8_000.0, rng.gen_range(0.5..2.0))
                .unwrap();
            servers.push(node);
        }
        let sdn = bld.build().ok()?;
        // No server adjacent to the source?
        for nb in sdn.graph().neighbors(source) {
            if servers.contains(&nb.node) {
                return None;
            }
        }
        let dests: Vec<NodeId> = vec![nodes[n - 2], nodes[n / 2], nodes[n - 4]];
        let req = MulticastRequest::new(
            RequestId(seed),
            source,
            dests,
            rng.gen_range(50.0..200.0),
            chain(),
        );
        Some((sdn, req))
    }

    #[test]
    fn fast_matches_reference_on_random_instances() {
        let mut tested = 0;
        for seed in 0..40u64 {
            let Some((sdn, req)) = random_instance(seed, 14) else {
                continue;
            };
            for k in 1..=3 {
                let fast = appro_multi(&sdn, &req, k).unwrap();
                let lit = appro_multi_reference(&sdn, &req, k).unwrap();
                fast.validate(&sdn, &req).unwrap();
                lit.validate(&sdn, &req).unwrap();
                let (cf, cl) = (fast.total_cost(), lit.total_cost());
                assert!(
                    (cf - cl).abs() <= 1e-6 * (1.0 + cl),
                    "seed {seed} k {k}: fast {cf} vs literal {cl}"
                );
            }
            tested += 1;
        }
        assert!(tested >= 10, "too few instances exercised ({tested})");
    }

    #[test]
    fn more_servers_never_hurt() {
        // Cost with K=2 is at most cost with K=1 (superset of combos).
        for seed in 0..20u64 {
            let Some((sdn, req)) = random_instance(seed, 14) else {
                continue;
            };
            let c1 = appro_multi(&sdn, &req, 1).unwrap().total_cost();
            let c2 = appro_multi(&sdn, &req, 2).unwrap().total_cost();
            let c3 = appro_multi(&sdn, &req, 3).unwrap().total_cost();
            assert!(c2 <= c1 + 1e-9, "seed {seed}: {c2} > {c1}");
            assert!(c3 <= c2 + 1e-9, "seed {seed}: {c3} > {c2}");
        }
    }

    #[test]
    fn server_count_never_exceeds_k() {
        for seed in 0..20u64 {
            let Some((sdn, req)) = random_instance(seed, 14) else {
                continue;
            };
            for k in 1..=3 {
                let t = appro_multi(&sdn, &req, k).unwrap();
                assert!(t.servers_used().len() <= k);
            }
        }
    }

    #[test]
    fn no_servers_returns_none() {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let d = bld.add_switch();
        bld.add_link(s, d, 10_000.0, 1.0).unwrap();
        let sdn = bld.build().unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d], 10.0, chain());
        assert!(appro_multi(&sdn, &req, 2).is_none());
        assert!(appro_multi_reference(&sdn, &req, 2).is_none());
    }

    #[test]
    fn unreachable_destination_returns_none() {
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let m = bld.add_server(8_000.0, 1.0);
        let d = bld.add_switch(); // isolated
        bld.add_link(s, m, 10_000.0, 1.0).unwrap();
        let sdn = bld.build().unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d], 10.0, chain());
        assert!(appro_multi(&sdn, &req, 1).is_none());
    }

    #[test]
    fn source_with_attached_server_is_free_ingress() {
        let mut bld = SdnBuilder::new();
        let s = bld.add_server(8_000.0, 1.0);
        let d = bld.add_switch();
        bld.add_link(s, d, 10_000.0, 2.0).unwrap();
        let sdn = bld.build().unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d], 10.0, chain());
        let t = appro_multi(&sdn, &req, 1).unwrap();
        t.validate(&sdn, &req).unwrap();
        assert!(t.servers[0].ingress_edges.is_empty());
        // computing 9 + edge 20 = 29.
        assert!((t.total_cost() - 29.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_servers_beat_one_when_fan_out_is_wide() {
        // The source sits between two destination clusters, each with its
        // own nearby server. One server forces a long detour back through
        // the source; two cheap servers avoid it.
        let mut bld = SdnBuilder::new();
        let s = bld.add_switch();
        let m1 = bld.add_server(8_000.0, 0.01);
        let m2 = bld.add_server(8_000.0, 0.01);
        let d1 = bld.add_switch();
        let d2 = bld.add_switch();
        bld.add_link(s, m1, 10_000.0, 1.0).unwrap();
        bld.add_link(s, m2, 10_000.0, 1.0).unwrap();
        // Long tails from servers to destinations.
        bld.add_link(m1, d1, 10_000.0, 5.0).unwrap();
        bld.add_link(m2, d2, 10_000.0, 5.0).unwrap();
        let sdn = bld.build().unwrap();
        let req = MulticastRequest::new(RequestId(0), s, vec![d1, d2], 10.0, chain());
        let t1 = appro_multi(&sdn, &req, 1).unwrap();
        let t2 = appro_multi(&sdn, &req, 2).unwrap();
        assert!(t2.total_cost() < t1.total_cost());
        assert_eq!(t2.servers_used().len(), 2);
        t2.validate(&sdn, &req).unwrap();
    }

    #[test]
    fn sph_routine_also_valid() {
        let (sdn, req) = line_fixture();
        let t = appro_multi_with_steiner(&sdn, &req, 2, SteinerRoutine::Sph).unwrap();
        t.validate(&sdn, &req).unwrap();
    }

    #[test]
    fn mehlhorn_routine_matches_kmb_on_line() {
        let (sdn, req) = line_fixture();
        let m = appro_multi_with_steiner(&sdn, &req, 2, SteinerRoutine::Mehlhorn).unwrap();
        let k = appro_multi_with_steiner(&sdn, &req, 2, SteinerRoutine::Kmb).unwrap();
        m.validate(&sdn, &req).unwrap();
        assert!((m.total_cost() - k.total_cost()).abs() < 1e-9);
    }

    /// Larger random instance with many servers, so the combination scan
    /// is wide enough for the branch-and-bound pruning to fire.
    fn dense_random_instance(seed: u64, n: usize) -> (Sdn, MulticastRequest) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bld = SdnBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| bld.add_switch()).collect();
        for i in 0..n {
            bld.add_link(
                nodes[i],
                nodes[(i + 1) % n],
                10_000.0,
                rng.gen_range(0.5..2.0),
            )
            .unwrap();
        }
        for _ in 0..2 * n {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                bld.add_link(nodes[u], nodes[v], 10_000.0, rng.gen_range(0.5..2.0))
                    .unwrap();
            }
        }
        for i in (1..n).step_by(3) {
            bld.attach_server(nodes[i], 8_000.0, rng.gen_range(0.5..2.0))
                .unwrap();
        }
        let sdn = bld.build().unwrap();
        let mut dests = Vec::new();
        while dests.len() < 4 {
            let d = rng.gen_range(1..n);
            let d = nodes[d];
            if d != nodes[0] && !dests.contains(&d) {
                dests.push(d);
            }
        }
        let req = MulticastRequest::new(
            RequestId(seed),
            nodes[0],
            dests,
            rng.gen_range(50.0..200.0),
            chain(),
        );
        (sdn, req)
    }

    #[test]
    fn pruned_matches_unpruned_byte_identical() {
        // The branch-and-bound bounds are admissible, so the pruned scan
        // must return the *exact same* tree (same edges, same servers,
        // same costs bit for bit) as evaluating every combination.
        for seed in 0..12u64 {
            let (sdn, req) = dense_random_instance(seed, 24);
            for k in 1..=3 {
                let pruned = appro_multi(&sdn, &req, k);
                let unpruned = appro_multi_unpruned(&sdn, &req, k);
                assert_eq!(pruned, unpruned, "seed {seed} k {k}");
                if let Some(t) = &pruned {
                    t.validate(&sdn, &req).unwrap();
                }
            }
        }
        // And on the sparser corpus shared with the reference tests.
        for seed in 0..20u64 {
            let Some((sdn, req)) = random_instance(seed, 14) else {
                continue;
            };
            for k in 1..=3 {
                assert_eq!(
                    appro_multi(&sdn, &req, k),
                    appro_multi_unpruned(&sdn, &req, k),
                    "seed {seed} k {k}"
                );
            }
        }
    }

    type Plans = (
        Option<PseudoMulticastTree>,
        crate::Admission,
        crate::CapPlan,
        crate::CapPlan,
        crate::CapPlan,
    );

    /// Every public call that plans through the thread's scratch, on
    /// `sdn`: the uncapacitated scan, `Appro_Multi_Cap`, a plan without the
    /// admitted tree's first distribution link, and the cached planner on
    /// its fast path (intact network) and its slow path (one link down).
    fn plan_everything(sdn: &Sdn, req: &MulticastRequest) -> Plans {
        use crate::{
            appro_multi_cap, appro_multi_cap_plan_cached, appro_multi_cap_plan_excluding, PathCache,
        };
        let admission = appro_multi_cap(sdn, req, 3);
        let first_link = admission
            .tree()
            .and_then(|t| t.distribution_edges.first().copied())
            .expect("the fixture admits with a distribution edge");
        let excluded = [first_link].into_iter().collect();
        let mut cache = PathCache::new(sdn);
        let fast = appro_multi_cap_plan_cached(sdn, req, 3, &mut cache);
        let mut broken = sdn.clone();
        broken.fail_link(first_link).unwrap();
        let slow = appro_multi_cap_plan_cached(&broken, req, 3, &mut cache);
        assert_eq!((cache.fast_path_count(), cache.slow_path_count()), (1, 1));
        (
            appro_multi(sdn, req, 3),
            admission,
            appro_multi_cap_plan_excluding(sdn, req, 3, &excluded),
            fast,
            slow,
        )
    }

    #[test]
    fn a_warm_thread_plans_like_a_fresh_one() {
        // A larger network first, then a smaller one: intern slots or
        // epochs the 40-node scans leave behind would show on the 24-node
        // ones.
        let instances: Vec<(Sdn, MulticastRequest)> = [(0, 40), (1, 40), (2, 24), (3, 24)]
            .into_iter()
            .map(|(seed, n)| dense_random_instance(seed, n))
            .collect();
        for (i, (sdn, req)) in instances.iter().enumerate() {
            let warm = plan_everything(sdn, req);
            let fresh = std::thread::scope(|s| {
                s.spawn(|| plan_everything(sdn, req))
                    .join()
                    .expect("the fresh thread plans")
            });
            assert_eq!(warm, fresh, "instance {i}");
        }
    }
}
