//! Leaf pruning: the final step of the KMB construction.

use netgraph::{EdgeId, Graph, NodeId};

/// Repeatedly removes leaves that are not terminals from an edge set,
/// returning the surviving edges and their total weight.
///
/// The input need not be a tree — pruning simply never removes a node with
/// degree ≥ 2 or a terminal, so cycles survive. KMB feeds it an MST, for
/// which the result is the minimal subtree spanning the terminals.
#[must_use]
pub fn prune_non_terminal_leaves(
    g: &Graph,
    edges: &[EdgeId],
    terminals: &[NodeId],
) -> (Vec<EdgeId>, f64) {
    let mut kept = Vec::new();
    let cost = prune_into(g, edges, terminals, &mut PruneScratch::default(), &mut kept);
    (kept, cost)
}

/// The working arrays of [`prune_into`], reusable across calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct PruneScratch {
    /// Degree per node over the surviving edges.
    degree: Vec<u32>,
    /// Whether each input edge survives.
    alive: Vec<bool>,
    /// Whether each node is a terminal.
    is_terminal: Vec<bool>,
}

/// [`prune_non_terminal_leaves`] in caller-owned memory: the surviving
/// edges replace `kept`'s contents, their total weight is returned, and
/// the working arrays come from `scratch`.
pub(crate) fn prune_into(
    g: &Graph,
    edges: &[EdgeId],
    terminals: &[NodeId],
    scratch: &mut PruneScratch,
    kept: &mut Vec<EdgeId>,
) -> f64 {
    // Dense per-node arrays: node ids index straight into them, no
    // hashing or tree lookups on the hot KMB path.
    let PruneScratch {
        degree,
        alive,
        is_terminal,
    } = scratch;
    degree.clear();
    degree.resize(g.node_count(), 0);
    alive.clear();
    alive.resize(edges.len(), true);
    for &e in edges {
        let er = g.edge(e);
        degree[er.u.index()] += 1;
        degree[er.v.index()] += 1;
    }
    is_terminal.clear();
    is_terminal.resize(g.node_count(), false);
    for &t in terminals {
        if let Some(slot) = is_terminal.get_mut(t.index()) {
            *slot = true;
        }
    }

    loop {
        let mut removed_any = false;
        for (i, &e) in edges.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            let er = g.edge(e);
            if [er.u, er.v]
                .iter()
                .any(|n| degree[n.index()] == 1 && !is_terminal[n.index()])
            {
                alive[i] = false;
                degree[er.u.index()] -= 1;
                degree[er.v.index()] -= 1;
                removed_any = true;
            }
        }
        if !removed_any {
            break;
        }
    }

    kept.clear();
    kept.extend(
        edges
            .iter()
            .zip(alive.iter())
            .filter(|&(_, &a)| a)
            .map(|(&e, _)| e),
    );
    kept.iter().map(|&e| g.edge(e).weight).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::Graph;

    #[test]
    fn prunes_dangling_chain() {
        // t0 - a - t1, with a - b - c dangling off a.
        let mut g = Graph::new();
        let t0 = g.add_node();
        let a = g.add_node();
        let t1 = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let e0 = g.add_edge(t0, a, 1.0).unwrap();
        let e1 = g.add_edge(a, t1, 1.0).unwrap();
        let e2 = g.add_edge(a, b, 1.0).unwrap();
        let e3 = g.add_edge(b, c, 1.0).unwrap();
        let (kept, cost) = prune_non_terminal_leaves(&g, &[e0, e1, e2, e3], &[t0, t1]);
        assert_eq!(kept, vec![e0, e1]);
        assert_eq!(cost, 2.0);
    }

    #[test]
    fn keeps_terminal_leaves() {
        let mut g = Graph::new();
        let t0 = g.add_node();
        let t1 = g.add_node();
        let e = g.add_edge(t0, t1, 3.0).unwrap();
        let (kept, cost) = prune_non_terminal_leaves(&g, &[e], &[t0, t1]);
        assert_eq!(kept, vec![e]);
        assert_eq!(cost, 3.0);
    }

    #[test]
    fn steiner_branch_node_survives() {
        // Star: hub is non-terminal but has degree 3.
        let mut g = Graph::new();
        let hub = g.add_node();
        let ts: Vec<NodeId> = (0..3).map(|_| g.add_node()).collect();
        let edges: Vec<EdgeId> = ts
            .iter()
            .map(|&t| g.add_edge(hub, t, 1.0).unwrap())
            .collect();
        let (kept, cost) = prune_non_terminal_leaves(&g, &edges, &ts);
        assert_eq!(kept.len(), 3);
        assert_eq!(cost, 3.0);
    }

    #[test]
    fn everything_pruned_when_no_terminal_touches() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let t = g.add_node();
        let e = g.add_edge(a, b, 1.0).unwrap();
        let (kept, cost) = prune_non_terminal_leaves(&g, &[e], &[t]);
        assert!(kept.is_empty());
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn empty_edge_set() {
        let mut g = Graph::new();
        let t = g.add_node();
        let (kept, cost) = prune_non_terminal_leaves(&g, &[], &[t]);
        assert!(kept.is_empty());
        assert_eq!(cost, 0.0);
    }
}
