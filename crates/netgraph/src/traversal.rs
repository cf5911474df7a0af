//! Breadth-first traversal and connectivity queries.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Nodes reachable from `start` in breadth-first order (including `start`).
///
/// # Panics
///
/// Panics if `start` is not a node of `g`.
fn bfs_order(g: &Graph, start: NodeId) -> Vec<NodeId> {
    assert!(g.contains_node(start), "start {start} not in graph");
    let mut seen = vec![false; g.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    if let Some(s) = seen.get_mut(start.index()) {
        *s = true;
    }
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for nb in g.neighbors(u) {
            if let Some(s) = seen.get_mut(nb.node.index()) {
                if !*s {
                    *s = true;
                    queue.push_back(nb.node);
                }
            }
        }
    }
    order
}

/// Partitions the nodes into connected components.
///
/// Returns one `Vec<NodeId>` per component, each sorted by node id;
/// components are ordered by their smallest node.
#[must_use]
pub fn connected_components(g: &Graph) -> Vec<Vec<NodeId>> {
    let n = g.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    for start in g.nodes() {
        if comp.get(start.index()) != Some(&usize::MAX) {
            continue;
        }
        let id = components.len();
        let mut members = Vec::new();
        let mut queue = VecDeque::new();
        if let Some(c) = comp.get_mut(start.index()) {
            *c = id;
        }
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            members.push(u);
            for nb in g.neighbors(u) {
                if let Some(c) = comp.get_mut(nb.node.index()) {
                    if *c == usize::MAX {
                        *c = id;
                        queue.push_back(nb.node);
                    }
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    components
}

/// Returns `true` if the graph is connected. The empty graph and single-node
/// graphs count as connected.
#[must_use]
pub fn is_connected(g: &Graph) -> bool {
    if g.node_count() <= 1 {
        return true;
    }
    bfs_order(g, NodeId::new(0)).len() == g.node_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn two_components() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..6).map(|_| g.add_node()).collect();
        g.add_edge(v[0], v[1], 1.0).unwrap();
        g.add_edge(v[1], v[2], 1.0).unwrap();
        g.add_edge(v[3], v[4], 1.0).unwrap();
        (g, v) // v[5] isolated
    }

    #[test]
    fn bfs_visits_component_only() {
        let (g, v) = two_components();
        let order = bfs_order(&g, v[0]);
        assert_eq!(order, vec![v[0], v[1], v[2]]);
    }

    #[test]
    fn bfs_is_level_order() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        g.add_edge(v[0], v[1], 1.0).unwrap();
        g.add_edge(v[0], v[2], 1.0).unwrap();
        g.add_edge(v[1], v[3], 1.0).unwrap();
        let order = bfs_order(&g, v[0]);
        assert_eq!(order, vec![v[0], v[1], v[2], v[3]]);
    }

    #[test]
    fn components_are_partition() {
        let (g, v) = two_components();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![v[0], v[1], v[2]]);
        assert_eq!(comps[1], vec![v[3], v[4]]);
        assert_eq!(comps[2], vec![v[5]]);
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, g.node_count());
    }

    #[test]
    fn connectivity_checks() {
        let (g, _) = two_components();
        assert!(!is_connected(&g));
        assert!(is_connected(&Graph::new()));
        assert!(is_connected(&Graph::with_nodes(1)));
    }

    // An out-of-range start is the documented panic, checked up front —
    // never a silent empty (or partial) order.

    #[test]
    #[should_panic(expected = "not in graph")]
    fn bfs_panics_on_foreign_start() {
        let (g, _) = two_components();
        let _ = bfs_order(&g, NodeId::new(g.node_count()));
    }

    #[test]
    fn fully_connected_graph() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(v[i], v[j], 1.0).unwrap();
            }
        }
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).len(), 1);
    }
}
