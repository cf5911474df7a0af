//! Property-based tests for the graph substrate.
//!
//! Random connected graphs are generated from a node count and an edge list
//! seed; the classic algorithm pairs (Dijkstra/Bellman–Ford, Kruskal/Prim)
//! act as oracles for each other.

use netgraph::{
    bellman_ford, connected_components, dijkstra, dijkstra_with_targets, is_connected, kruskal,
    prim, voronoi_closure, EdgeId, Graph, NodeId, RootedTree, RootingScratch, UnionFind,
};
use proptest::prelude::*;

/// Strategy: a random graph with `n` in 2..=20 nodes and a random set of
/// weighted edges (possibly disconnected, possibly parallel).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=20).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0.0f64..100.0);
        proptest::collection::vec(edge, 0..60).prop_map(move |edges| {
            let mut g = Graph::with_nodes(n);
            for (u, v, w) in edges {
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v), w).unwrap();
                }
            }
            g
        })
    })
}

/// Strategy: like [`arb_graph`] but guaranteed connected by adding a random
/// spanning chain first.
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..=20).prop_flat_map(|n| {
        let chain_w = proptest::collection::vec(0.0f64..100.0, n - 1);
        let extra = proptest::collection::vec((0..n, 0..n, 0.0f64..100.0), 0..40);
        (chain_w, extra).prop_map(move |(chain, extra)| {
            let mut g = Graph::with_nodes(n);
            for (i, w) in chain.into_iter().enumerate() {
                g.add_edge(NodeId::new(i), NodeId::new(i + 1), w).unwrap();
            }
            for (u, v, w) in extra {
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v), w).unwrap();
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_agrees_with_bellman_ford(g in arb_graph()) {
        let src = NodeId::new(0);
        let d = dijkstra(&g, src);
        let bf = bellman_ford(&g, src);
        for n in g.nodes() {
            match (d.distance(n), bf.distance(n)) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "node {n}: {a} vs {b}"),
                (None, None) => {}
                (a, b) => prop_assert!(false, "reachability mismatch at {n}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn dijkstra_path_cost_matches_distance(g in arb_connected_graph()) {
        let src = NodeId::new(0);
        let spt = dijkstra(&g, src);
        for n in g.nodes() {
            let p = spt.path_to(&g, n).expect("connected graph");
            prop_assert!((p.cost() - spt.distance(n).unwrap()).abs() < 1e-9);
            // Recompute the cost edge by edge.
            let recomputed: f64 = p.edges().iter().map(|&e| g.edge(e).weight).sum();
            prop_assert!((recomputed - p.cost()).abs() < 1e-9);
            // Path is a valid walk.
            for (i, &e) in p.edges().iter().enumerate() {
                let er = g.edge(e);
                let (a, b) = (p.nodes()[i], p.nodes()[i + 1]);
                prop_assert!(
                    (er.u == a && er.v == b) || (er.u == b && er.v == a),
                    "edge {e} does not connect {a}-{b}"
                );
            }
        }
    }

    #[test]
    fn targeted_dijkstra_matches_full_run_on_targets(
        g in arb_graph(),
        picks in proptest::collection::vec(0usize..20, 1..8),
    ) {
        // The early-exit variant underlies the shared-SPT fast path that
        // the Appro_Multi pruning leans on: for every requested target it
        // must report exactly the full-run distance, predecessor chain
        // cost, and reachability — settled or not by the time it stopped.
        let n = g.node_count();
        let src = NodeId::new(0);
        let targets: Vec<NodeId> = picks.iter().map(|&p| NodeId::new(p % n)).collect();
        let full = dijkstra(&g, src);
        let fast = dijkstra_with_targets(&g, src, &targets);
        for &t in &targets {
            prop_assert_eq!(full.distance(t), fast.distance(t), "distance to {}", t);
            prop_assert_eq!(full.is_reachable(t), fast.is_reachable(t));
            match (full.path_to(&g, t), fast.path_to(&g, t)) {
                (Some(a), Some(b)) => {
                    prop_assert!((a.cost() - b.cost()).abs() < 1e-12);
                    prop_assert_eq!(a.edges(), b.edges(), "path to {}", t);
                }
                (None, None) => {}
                (a, b) => prop_assert!(false, "path mismatch at {}: {:?} vs {:?}", t, a, b),
            }
        }
    }

    #[test]
    fn voronoi_closure_agrees_with_per_terminal_dijkstra(g in arb_connected_graph()) {
        // Ownership means "nearest terminal": for every node, the distance
        // to its owner equals the minimum over terminals of the true
        // shortest-path distance.
        let n = g.node_count();
        let terminals: Vec<NodeId> = (0..n).step_by(3).map(NodeId::new).collect();
        let vc = voronoi_closure(&g, &terminals);
        let spts: Vec<_> = terminals.iter().map(|&t| dijkstra(&g, t)).collect();
        for v in g.nodes() {
            let best = spts
                .iter()
                .filter_map(|s| s.distance(v))
                .fold(f64::INFINITY, f64::min);
            let owned = vc.distance_to_owner(v).expect("connected graph");
            prop_assert!((owned - best).abs() < 1e-9, "node {}: {} vs {}", v, owned, best);
            let owner = vc.owner(v).unwrap();
            prop_assert!((spts[owner].distance(v).unwrap() - best).abs() < 1e-9);
        }
        // Every closure edge is realizable and no cheaper than the true
        // terminal-to-terminal distance.
        for ce in vc.edges() {
            let true_d = spts[ce.a].distance(terminals[ce.b]).unwrap();
            prop_assert!(ce.cost + 1e-9 >= true_d);
            let mut path = Vec::new();
            vc.expand_edge(ce, &mut path);
            let realized: f64 = path.iter().map(|&e| g.edge(e).weight).sum();
            prop_assert!((realized - ce.cost).abs() < 1e-9);
        }
    }

    #[test]
    fn triangle_inequality_on_distances(g in arb_connected_graph()) {
        // d(0, v) <= d(0, u) + w(u, v) for every edge (u, v).
        let spt = dijkstra(&g, NodeId::new(0));
        for e in g.edges() {
            let du = spt.distance(e.u).unwrap();
            let dv = spt.distance(e.v).unwrap();
            prop_assert!(dv <= du + e.weight + 1e-9);
            prop_assert!(du <= dv + e.weight + 1e-9);
        }
    }

    #[test]
    fn kruskal_and_prim_agree_on_weight(g in arb_graph()) {
        let k = kruskal(&g);
        let p = prim(&g);
        prop_assert!((k.total_weight - p.total_weight).abs() < 1e-9);
        prop_assert_eq!(k.edges.len(), p.edges.len());
        prop_assert_eq!(k.components, p.components);
    }

    #[test]
    fn mst_is_acyclic_and_spanning(g in arb_connected_graph()) {
        let k = kruskal(&g);
        prop_assert!(k.is_spanning_tree());
        prop_assert_eq!(k.edges.len(), g.node_count() - 1);
        // Acyclic: union-find never rejects while adding its edges.
        let mut uf = UnionFind::new(g.node_count());
        for &e in &k.edges {
            let er = g.edge(e);
            prop_assert!(uf.union(er.u.index(), er.v.index()), "cycle at {e}");
        }
        prop_assert_eq!(uf.set_count(), 1);
    }

    #[test]
    fn mst_weight_lower_bounds_any_spanning_subgraph(g in arb_connected_graph()) {
        // The whole edge set is a spanning subgraph, so MST weight <= total.
        let k = kruskal(&g);
        prop_assert!(k.total_weight <= g.total_weight() + 1e-9);
    }

    #[test]
    fn components_partition_nodes(g in arb_graph()) {
        let comps = connected_components(&g);
        let total: usize = comps.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.node_count());
        let mut seen = vec![false; g.node_count()];
        for c in &comps {
            for n in c {
                prop_assert!(!seen[n.index()], "{n} in two components");
                seen[n.index()] = true;
            }
        }
        prop_assert_eq!(comps.len() == 1, is_connected(&g));
    }

    #[test]
    fn mst_makes_valid_rooted_tree_with_consistent_lca(g in arb_connected_graph()) {
        let k = kruskal(&g);
        let root = NodeId::new(0);
        let t = RootedTree::from_edges(&g, &k.edges, root).expect("MST is a tree");
        prop_assert_eq!(t.node_count(), g.node_count());
        // Brute force: a node's ancestors, itself first, up to the root.
        let ancestors = |mut n: NodeId| {
            let mut chain = vec![n];
            while let Some((p, _)) = t.parent(n) {
                chain.push(p);
                n = p;
            }
            chain
        };
        for a in g.nodes() {
            let up_a = ancestors(a);
            prop_assert_eq!(*up_a.last().unwrap(), root);
            for b in g.nodes() {
                // The parent-walk LCA is the first common ancestor.
                let up_b = ancestors(b);
                let brute = *up_a.iter().find(|x| up_b.contains(x)).unwrap();
                let l = t.lca(a, b);
                prop_assert_eq!(l, brute);
                prop_assert_eq!(t.lca_of_set(&[a, b]), brute);
                prop_assert!(t.is_ancestor(l, a));
                prop_assert!(t.is_ancestor(l, b));
                // Path costs decompose through the LCA.
                let p = t.path_between(a, b);
                let via_root = t.distance_from_root(a).unwrap()
                    + t.distance_from_root(b).unwrap()
                    - 2.0 * t.distance_from_root(l).unwrap();
                prop_assert!((p.cost() - via_root).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rebuilt_tree_equals_a_fresh_one(
        (g, builds) in arb_connected_graph().prop_flat_map(|g| {
            let (n, m) = (g.node_count(), g.edge_count());
            let build = (proptest::collection::vec(0..m, 0..12), 0..n + 2);
            (Just(g), proptest::collection::vec(build, 1..6))
        })
    ) {
        // One tree and one scratch live across every build: random edge
        // sets (mostly cycles, forests or missing the root, some with an
        // out-of-graph root), each followed by a spanning tree of `g` and
        // a lone root on a smaller graph. Any stale `index` entry from an
        // earlier build, failed or not, would break the equality.
        let mst = kruskal(&g).edges;
        let small = Graph::with_nodes(2);
        let mut tree = RootedTree::default();
        let mut scratch = RootingScratch::default();
        for (picks, root) in builds {
            let edges: Vec<EdgeId> = picks.into_iter().map(EdgeId::new).collect();
            let root = NodeId::new(root);
            let runs: [(&Graph, &[EdgeId], NodeId); 3] = [
                (&g, &edges, root),
                (&g, &mst, NodeId::new(root.index() % g.node_count())),
                (&small, &[], NodeId::new(1)),
            ];
            for (graph, edges, root) in runs {
                let built = tree.rebuild(graph, edges, root, &mut scratch);
                match RootedTree::from_edges(graph, edges, root) {
                    Some(fresh) => {
                        prop_assert!(built, "rebuild refused a tree");
                        prop_assert_eq!(&tree, &fresh);
                    }
                    None => prop_assert!(!built, "rebuild accepted a non-tree"),
                }
            }
        }
    }

    #[test]
    fn union_find_transitivity(ops in proptest::collection::vec((0usize..15, 0usize..15), 0..30)) {
        let mut uf = UnionFind::new(15);
        for &(a, b) in &ops {
            uf.union(a, b);
        }
        // connected() must be transitive: build the reachability closure and compare.
        for a in 0..15 {
            for b in 0..15 {
                for c in 0..15 {
                    if uf.connected(a, b) && uf.connected(b, c) {
                        prop_assert!(uf.connected(a, c));
                    }
                }
            }
        }
        // set_count equals number of distinct representatives.
        let mut reps: Vec<usize> = (0..15).map(|i| uf.find(i)).collect();
        reps.sort_unstable();
        reps.dedup();
        prop_assert_eq!(reps.len(), uf.set_count());
    }
}
