//! Rooted-tree utilities: parent/depth tables, tree paths, and lowest
//! common ancestors.
//!
//! Pseudo-multicast trees are derived from Steiner trees by routing
//! processed packets *back up* the tree from the processing server; both the
//! offline and online algorithms therefore need tree paths and LCAs of the
//! chosen server and the destinations.

#![allow(clippy::needless_range_loop)] // paired-index loops over parallel arrays

use crate::{EdgeId, Graph, NodeId, Path};

/// A tree embedded in a [`Graph`], rooted at a chosen node.
///
/// The tree is described by a set of graph edges; only nodes incident to
/// those edges (plus the root) are part of the tree. Construction verifies
/// the edge set actually forms a tree containing the root.
///
/// Node lookups go through a dense per-graph-node index, and LCA and
/// tree-path queries walk parent pointers: `O(depth)` per query with no
/// precomputed table, which suits trees queried a handful of times each.
///
/// ```
/// use netgraph::{Graph, RootedTree};
/// # fn main() -> Result<(), netgraph::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// let e1 = g.add_edge(a, b, 1.0)?;
/// let e2 = g.add_edge(b, c, 2.0)?;
/// let t = RootedTree::from_edges(&g, &[e1, e2], a).unwrap();
/// assert_eq!(t.depth(c), Some(2));
/// assert_eq!(t.lca(a, c), a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RootedTree {
    root: NodeId,
    /// Local index per graph node id; [`ABSENT`] for nodes off the tree.
    index: Vec<u32>,
    /// Tree nodes by local index: the root first, then edge endpoints in
    /// edge order.
    nodes: Vec<NodeId>,
    /// Parent (local index, edge) per local index; `None` for the root.
    parent: Vec<Option<(usize, EdgeId)>>,
    /// Hop depth per local index (root = 0).
    depth: Vec<usize>,
    /// Weighted distance from the root per local index.
    dist: Vec<f64>,
    /// Edge ids forming the tree.
    edges: Vec<EdgeId>,
    /// Total weight of the tree edges.
    total_weight: f64,
}

/// [`RootedTree::index`] entry of a graph node that is not in the tree.
const ABSENT: u32 = u32::MAX;

impl RootedTree {
    /// Builds a rooted tree from `edges` of `g`, rooted at `root`.
    ///
    /// Returns `None` if `root` is not a node of `g` or the edges do not
    /// form a single tree containing `root` (cycle, disconnected, or root
    /// not incident). A lone root with no edges is a valid single-node
    /// tree.
    #[must_use]
    pub fn from_edges(g: &Graph, edges: &[EdgeId], root: NodeId) -> Option<RootedTree> {
        if !g.contains_node(root) {
            return None;
        }
        // Intern incident nodes; `ends` holds each edge's local endpoints.
        let mut index = vec![ABSENT; g.node_count()];
        let mut nodes = vec![root];
        index[root.index()] = 0;
        let mut ends: Vec<(usize, usize, f64)> = Vec::with_capacity(edges.len());
        for &e in edges {
            let er = g.try_edge(e)?;
            let mut intern = |n: NodeId| {
                let slot = &mut index[n.index()];
                if *slot == ABSENT {
                    *slot = nodes.len() as u32;
                    nodes.push(n);
                }
                *slot as usize
            };
            let (ui, vi) = (intern(er.u), intern(er.v));
            ends.push((ui, vi, er.weight));
        }
        let n = nodes.len();
        // A tree on n nodes has exactly n - 1 edges.
        if edges.len() != n - 1 {
            return None;
        }

        // Flat adjacency (neighbour, edge, weight), each node's entries in
        // edge order.
        let mut start = vec![0usize; n + 1];
        for &(ui, vi, _) in &ends {
            start[ui + 1] += 1;
            start[vi + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut adj = vec![(0usize, EdgeId::new(0), 0.0); 2 * ends.len()];
        for (&(ui, vi, w), &e) in ends.iter().zip(edges) {
            adj[fill[ui]] = (vi, e, w);
            fill[ui] += 1;
            adj[fill[vi]] = (ui, e, w);
            fill[vi] += 1;
        }

        // BFS from the root; must reach every node without revisits.
        let mut parent: Vec<Option<(usize, EdgeId)>> = vec![None; n];
        let mut depth = vec![usize::MAX; n];
        let mut dist = vec![f64::INFINITY; n];
        depth[0] = 0;
        dist[0] = 0.0;
        let mut queue = Vec::with_capacity(n);
        queue.push(0);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &(v, e, w) in &adj[start[u]..start[u + 1]] {
                if depth[v] == usize::MAX {
                    depth[v] = depth[u] + 1;
                    dist[v] = dist[u] + w;
                    parent[v] = Some((u, e));
                    queue.push(v);
                }
            }
        }
        if queue.len() != n {
            return None; // disconnected (cycle elsewhere given the edge count)
        }

        let total_weight = ends.iter().map(|&(_, _, w)| w).sum();
        Some(RootedTree {
            root,
            index,
            nodes,
            parent,
            depth,
            dist,
            edges: edges.to_vec(),
            total_weight,
        })
    }

    /// Local index of `n`, or `None` if it is not a tree node.
    fn local(&self, n: NodeId) -> Option<usize> {
        self.index
            .get(n.index())
            .filter(|&&i| i != ABSENT)
            .map(|&i| i as usize)
    }

    /// Local index of `n`, panicking if it is not a tree node.
    fn expect_local(&self, n: NodeId) -> usize {
        self.local(n).expect("node not in tree") // lint:allow(P1): documented panic contract: nodes must be in the tree
    }

    /// The root node.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes in the tree.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over tree nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// The edge ids forming the tree.
    #[must_use]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Sum of tree edge weights.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Returns `true` if `n` is a node of the tree.
    #[must_use]
    pub fn contains(&self, n: NodeId) -> bool {
        self.local(n).is_some()
    }

    /// Hop depth of `n` (root = 0), or `None` if not in the tree.
    #[must_use]
    pub fn depth(&self, n: NodeId) -> Option<usize> {
        self.local(n).map(|i| self.depth[i])
    }

    /// Weighted distance from the root to `n`, or `None` if not in the tree.
    #[must_use]
    pub fn distance_from_root(&self, n: NodeId) -> Option<f64> {
        self.local(n).map(|i| self.dist[i])
    }

    /// Parent (node, edge) of `n`; `None` for the root or non-tree nodes.
    #[must_use]
    pub fn parent(&self, n: NodeId) -> Option<(NodeId, EdgeId)> {
        let (p, e) = self.parent[self.local(n)?]?;
        Some((self.nodes[p], e))
    }

    /// Parent (local index, edge) of local node `i`, which must not be
    /// the root.
    fn up(&self, i: usize) -> (usize, EdgeId) {
        self.parent[i].expect("non-root has a parent") // lint:allow(P1): callers climb only from nodes strictly below a known ancestor
    }

    /// Local index of the ancestor of local node `i` at hop depth `d`
    /// (`d` at most `i`'s depth).
    fn lift(&self, mut i: usize, d: usize) -> usize {
        while self.depth[i] > d {
            i = self.up(i).0;
        }
        i
    }

    /// Returns `true` if `a` is an ancestor of `b` (or equal to it).
    ///
    /// # Panics
    ///
    /// Panics if either node is not in the tree.
    #[must_use]
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        let ia = self.expect_local(a);
        let ib = self.expect_local(b);
        self.depth[ib] >= self.depth[ia] && self.lift(ib, self.depth[ia]) == ia
    }

    /// Local index of the lowest common ancestor of local nodes `a`, `b`.
    fn lca_local(&self, a: usize, b: usize) -> usize {
        let d = self.depth[a].min(self.depth[b]);
        let (mut a, mut b) = (self.lift(a, d), self.lift(b, d));
        // Distinct nodes at one depth are both below their LCA.
        while a != b {
            a = self.up(a).0;
            b = self.up(b).0;
        }
        a
    }

    /// Lowest common ancestor of `a` and `b`, by walking parent pointers.
    ///
    /// # Panics
    ///
    /// Panics if either node is not in the tree.
    #[must_use]
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        self.nodes[self.lca_local(self.expect_local(a), self.expect_local(b))]
    }

    /// LCA of a non-empty set of nodes, folded pairwise:
    /// `LCA(x1, …, xn) = LCA(LCA(x1, …, x_{n-1}), xn)` (as in Algorithm 2 of
    /// the paper).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or contains a non-tree node.
    #[must_use]
    pub fn lca_of_set(&self, nodes: &[NodeId]) -> NodeId {
        let (&first, rest) = nodes.split_first().expect("lca of empty set is undefined"); // lint:allow(P1): documented panic contract: the set must be non-empty
        let l = rest.iter().fold(self.expect_local(first), |acc, &n| {
            self.lca_local(acc, self.expect_local(n))
        });
        self.nodes[l]
    }

    /// The unique tree path between `a` and `b` (through their LCA).
    ///
    /// # Panics
    ///
    /// Panics if either node is not in the tree.
    #[must_use]
    pub fn path_between(&self, a: NodeId, b: NodeId) -> Path {
        let (ia, ib) = (self.expect_local(a), self.expect_local(b));
        let il = self.lca_local(ia, ib);
        // Walk a -> l (forward) and b -> l (to reverse).
        let mut up_nodes = vec![a];
        let mut up_edges = Vec::new();
        let mut cur = ia;
        while cur != il {
            let (p, e) = self.up(cur);
            up_nodes.push(self.nodes[p]);
            up_edges.push(e);
            cur = p;
        }
        let mut down_nodes = Vec::new();
        let mut down_edges = Vec::new();
        cur = ib;
        while cur != il {
            let (p, e) = self.up(cur);
            down_nodes.push(self.nodes[cur]);
            down_edges.push(e);
            cur = p;
        }
        up_nodes.extend(down_nodes.into_iter().rev());
        up_edges.extend(down_edges.into_iter().rev());
        let cost = (self.dist[ia] - self.dist[il]) + (self.dist[ib] - self.dist[il]);
        Path::new(up_nodes, up_edges, cost)
    }

    /// Nodes in the subtree rooted at `n` (including `n`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in the tree.
    #[must_use]
    pub fn subtree_nodes(&self, n: NodeId) -> Vec<NodeId> {
        assert!(self.contains(n), "node {n} not in tree");
        self.nodes
            .iter()
            .copied()
            .filter(|&m| self.is_ancestor(n, m))
            .collect()
    }

    /// Leaves of the tree (degree-1 nodes other than a lone root).
    #[must_use]
    pub fn leaves(&self) -> Vec<NodeId> {
        let mut child_count = vec![0usize; self.nodes.len()];
        for &(p, _) in self.parent.iter().flatten() {
            child_count[p] += 1;
        }
        self.nodes
            .iter()
            .zip(&child_count)
            .filter(|&(&n, &c)| c == 0 && n != self.root)
            .map(|(&n, _)| n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// Builds the tree
    /// ```text
    ///        r
    ///       / \
    ///      a   b
    ///     / \    \
    ///    c   d    e
    /// ```
    fn sample() -> (Graph, RootedTree, [NodeId; 6]) {
        let mut g = Graph::new();
        let r = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        let e = g.add_node();
        let edges = vec![
            g.add_edge(r, a, 1.0).unwrap(),
            g.add_edge(r, b, 2.0).unwrap(),
            g.add_edge(a, c, 3.0).unwrap(),
            g.add_edge(a, d, 4.0).unwrap(),
            g.add_edge(b, e, 5.0).unwrap(),
        ];
        let t = RootedTree::from_edges(&g, &edges, r).unwrap();
        (g, t, [r, a, b, c, d, e])
    }

    #[test]
    fn depths_and_distances() {
        let (_, t, [r, a, _, c, _, e]) = sample();
        assert_eq!(t.depth(r), Some(0));
        assert_eq!(t.depth(a), Some(1));
        assert_eq!(t.depth(c), Some(2));
        assert_eq!(t.distance_from_root(c), Some(4.0));
        assert_eq!(t.distance_from_root(e), Some(7.0));
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.total_weight(), 15.0);
    }

    #[test]
    fn lca_pairs() {
        let (_, t, [r, a, b, c, d, e]) = sample();
        assert_eq!(t.lca(c, d), a);
        assert_eq!(t.lca(c, e), r);
        assert_eq!(t.lca(a, c), a);
        assert_eq!(t.lca(r, e), r);
        assert_eq!(t.lca(b, b), b);
        assert_eq!(t.lca(d, b), r);
    }

    #[test]
    fn lca_of_set_folds() {
        let (_, t, [r, a, _, c, d, e]) = sample();
        assert_eq!(t.lca_of_set(&[c, d]), a);
        assert_eq!(t.lca_of_set(&[c, d, e]), r);
        assert_eq!(t.lca_of_set(&[c]), c);
    }

    #[test]
    #[should_panic(expected = "lca of empty set")]
    fn lca_of_empty_set_panics() {
        let (_, t, _) = sample();
        let _ = t.lca_of_set(&[]);
    }

    #[test]
    fn path_between_goes_through_lca() {
        let (_, t, [_, a, _, c, d, _]) = sample();
        let p = t.path_between(c, d);
        assert_eq!(p.nodes(), &[c, a, d]);
        assert_eq!(p.cost(), 7.0);
        let trivial = t.path_between(c, c);
        assert!(trivial.is_empty());
        assert_eq!(trivial.cost(), 0.0);
    }

    #[test]
    fn ancestor_checks() {
        let (_, t, [r, a, b, c, _, e]) = sample();
        assert!(t.is_ancestor(r, c));
        assert!(t.is_ancestor(a, c));
        assert!(t.is_ancestor(c, c));
        assert!(!t.is_ancestor(c, a));
        assert!(!t.is_ancestor(b, c));
        assert!(t.is_ancestor(b, e));
    }

    #[test]
    fn subtrees_and_leaves() {
        let (_, t, [r, a, b, c, d, e]) = sample();
        let mut sub = t.subtree_nodes(a);
        sub.sort_unstable();
        let mut expect = vec![a, c, d];
        expect.sort_unstable();
        assert_eq!(sub, expect);
        let mut leaves = t.leaves();
        leaves.sort_unstable();
        let mut expect = vec![c, d, e];
        expect.sort_unstable();
        assert_eq!(leaves, expect);
        assert_eq!(t.subtree_nodes(r).len(), 6);
        assert_eq!(t.subtree_nodes(b), {
            let mut v = vec![b, e];
            v.sort_unstable();
            v
        });
    }

    #[test]
    fn rejects_cycles_and_disconnection() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        let e01 = g.add_edge(v[0], v[1], 1.0).unwrap();
        let e12 = g.add_edge(v[1], v[2], 1.0).unwrap();
        let e20 = g.add_edge(v[2], v[0], 1.0).unwrap();
        let e23 = g.add_edge(v[2], v[3], 1.0).unwrap();
        // Cycle: 3 nodes, 3 edges.
        assert!(RootedTree::from_edges(&g, &[e01, e12, e20], v[0]).is_none());
        // Root not incident to the edges.
        assert!(RootedTree::from_edges(&g, &[e12, e23], v[0]).is_none());
        // Root not a node of the graph.
        assert!(RootedTree::from_edges(&g, &[], NodeId::new(9)).is_none());
    }

    #[test]
    fn single_node_tree() {
        let mut g = Graph::new();
        let r = g.add_node();
        let t = RootedTree::from_edges(&g, &[], r).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.depth(r), Some(0));
        assert!(t.leaves().is_empty());
        assert_eq!(t.lca(r, r), r);
    }

    #[test]
    fn deep_chain_lca() {
        // A chain of 40 nodes: long parent walks.
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..40).map(|_| g.add_node()).collect();
        let edges: Vec<EdgeId> = (0..39)
            .map(|i| g.add_edge(v[i], v[i + 1], 1.0).unwrap())
            .collect();
        let t = RootedTree::from_edges(&g, &edges, v[0]).unwrap();
        assert_eq!(t.lca(v[39], v[20]), v[20]);
        assert_eq!(t.lca(v[39], v[0]), v[0]);
        assert_eq!(t.depth(v[39]), Some(39));
        let p = t.path_between(v[5], v[35]);
        assert_eq!(p.cost(), 30.0);
    }
}
