//! The Steiner tree result type.

use netgraph::{EdgeId, Graph, NodeId, RootedTree, RootingScratch};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A tree in a graph spanning a set of terminals.
///
/// Produced by [`kmb`](crate::kmb), [`sph`](crate::sph), and
/// [`dreyfus_wagner`](crate::dreyfus_wagner). The tree may contain
/// non-terminal (Steiner) nodes; its cost is the sum of its edge weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SteinerTree {
    terminals: Vec<NodeId>,
    edges: Vec<EdgeId>,
    cost: f64,
}

impl SteinerTree {
    /// Assembles a Steiner tree from parts; used by the algorithms in this
    /// crate and by the auxiliary-graph translation in `nfv-multicast`.
    ///
    /// Invariants (tree-ness, terminal coverage) are *not* checked here —
    /// call [`SteinerTree::validate`] in tests and debug assertions.
    #[must_use]
    pub fn from_parts(terminals: Vec<NodeId>, edges: Vec<EdgeId>, cost: f64) -> Self {
        SteinerTree {
            terminals,
            edges,
            cost,
        }
    }

    /// The terminals the tree was asked to span.
    #[must_use]
    pub fn terminals(&self) -> &[NodeId] {
        &self.terminals
    }

    /// The tree's edges (ids in the graph the algorithm ran on).
    #[must_use]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Total edge weight of the tree.
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// All nodes touched by the tree (terminals plus Steiner nodes).
    #[must_use]
    pub fn nodes(&self, g: &Graph) -> Vec<NodeId> {
        let mut set: BTreeSet<NodeId> = BTreeSet::new();
        for &e in &self.edges {
            let er = g.edge(e);
            set.insert(er.u);
            set.insert(er.v);
        }
        // A single-terminal tree has no edges but still one node.
        for &t in &self.terminals {
            set.insert(t);
        }
        let mut v: Vec<NodeId> = set.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Returns `true` if `n` is a node of the tree.
    #[must_use]
    pub fn contains_node(&self, g: &Graph, n: NodeId) -> bool {
        if self.terminals.contains(&n) {
            return true;
        }
        self.edges.iter().any(|&e| {
            let er = g.edge(e);
            er.u == n || er.v == n
        })
    }

    /// Roots the tree at `root`, producing a [`RootedTree`] for LCA and
    /// tree-path queries.
    ///
    /// Returns `None` if `root` is not a node of the tree or the stored
    /// edges do not form a tree (which would indicate a bug in the
    /// producing algorithm).
    #[must_use]
    pub fn root_at(&self, g: &Graph, root: NodeId) -> Option<RootedTree> {
        RootedTree::from_edges(g, &self.edges, root)
    }

    /// Checks the structural invariants: the edges form a tree (acyclic,
    /// connected) and every terminal is in it. Recomputes the cost.
    ///
    /// Returns `Err` with a human-readable description on violation; meant
    /// for tests and debug assertions.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        self.validate_in(
            g,
            &mut RootedTree::default(),
            &mut RootingScratch::default(),
        )
    }

    /// [`SteinerTree::validate`], rooting the tree in `rt` with
    /// `scratch`'s buffers, so a caller that checks tree after tree
    /// allocates nothing for it.
    pub(crate) fn validate_in(
        &self,
        g: &Graph,
        rt: &mut RootedTree,
        scratch: &mut RootingScratch,
    ) -> Result<(), String> {
        let Some(&t0) = self.terminals.first() else {
            return Err("steiner tree has no terminals".into());
        };
        if !rt.rebuild(g, &self.edges, t0, scratch) {
            return Err("edge set is not a tree containing the first terminal".into());
        }
        for &t in &self.terminals {
            if !rt.contains(t) {
                return Err(format!("terminal {t} not spanned"));
            }
        }
        let recomputed: f64 = self.edges.iter().map(|&e| g.edge(e).weight).sum();
        if (recomputed - self.cost).abs() > 1e-6 * (1.0 + recomputed.abs()) {
            return Err(format!(
                "stored cost {} disagrees with recomputed {}",
                self.cost, recomputed
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::Graph;

    fn star() -> (Graph, Vec<NodeId>, Vec<EdgeId>) {
        let mut g = Graph::new();
        let hub = g.add_node();
        let leaves: Vec<NodeId> = (0..3).map(|_| g.add_node()).collect();
        let edges: Vec<EdgeId> = leaves
            .iter()
            .map(|&l| g.add_edge(hub, l, 1.0).unwrap())
            .collect();
        let mut nodes = vec![hub];
        nodes.extend(&leaves);
        (g, nodes, edges)
    }

    #[test]
    fn validate_accepts_good_tree() {
        let (g, nodes, edges) = star();
        let t = SteinerTree::from_parts(vec![nodes[1], nodes[2], nodes[3]], edges, 3.0);
        assert!(t.validate(&g).is_ok());
        assert_eq!(t.nodes(&g).len(), 4);
        assert!(t.contains_node(&g, nodes[0])); // hub is a Steiner node
    }

    #[test]
    fn validate_rejects_missing_terminal() {
        let (g, nodes, edges) = star();
        // Tree only includes edges to leaves 1..3; pretend node far away is a terminal.
        let mut g2 = g.clone();
        let outsider = g2.add_node();
        let t = SteinerTree::from_parts(vec![nodes[1], outsider], edges, 3.0);
        assert!(t.validate(&g2).unwrap_err().contains("not spanned"));
    }

    #[test]
    fn validate_rejects_wrong_cost() {
        let (g, nodes, edges) = star();
        let t = SteinerTree::from_parts(vec![nodes[1], nodes[2]], edges, 99.0);
        assert!(t.validate(&g).unwrap_err().contains("disagrees"));
    }

    #[test]
    fn validate_rejects_cycle() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..3).map(|_| g.add_node()).collect();
        let e: Vec<EdgeId> = vec![
            g.add_edge(v[0], v[1], 1.0).unwrap(),
            g.add_edge(v[1], v[2], 1.0).unwrap(),
            g.add_edge(v[2], v[0], 1.0).unwrap(),
        ];
        let t = SteinerTree::from_parts(vec![v[0]], e, 3.0);
        assert!(t.validate(&g).is_err());
    }

    #[test]
    fn single_terminal_tree_is_valid() {
        let (g, nodes, _) = star();
        let t = SteinerTree::from_parts(vec![nodes[2]], Vec::new(), 0.0);
        assert!(t.validate(&g).is_ok());
        assert_eq!(t.nodes(&g), vec![nodes[2]]);
    }

    #[test]
    fn root_at_gives_rooted_tree() {
        let (g, nodes, edges) = star();
        let t = SteinerTree::from_parts(vec![nodes[1], nodes[2]], edges, 3.0);
        let rt = t.root_at(&g, nodes[1]).unwrap();
        assert_eq!(rt.root(), nodes[1]);
        assert_eq!(rt.depth(nodes[2]), Some(2)); // leaf -> hub -> leaf
        assert!(t.root_at(&g, NodeId::new(99)).is_none());
    }
}
