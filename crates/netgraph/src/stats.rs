//! Structural statistics over graphs: degree profiles, distance metrics,
//! and clustering. Used by the topology generators' tests (to verify the
//! synthesized GÉANT/AS1755 stand-ins match their targets) and by the
//! examples when describing a network.

use crate::{dijkstra, Graph, NodeId};

/// Summary statistics of a graph's structure.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Mean degree (`2m/n`).
    pub average_degree: f64,
    /// Largest degree.
    pub max_degree: usize,
    /// Smallest degree.
    pub min_degree: usize,
    /// Weighted diameter (max finite eccentricity); `0` for graphs with
    /// fewer than 2 nodes. Disconnected pairs are ignored.
    pub diameter: f64,
    /// Mean finite pairwise distance.
    pub average_distance: f64,
    /// Global clustering coefficient (triangle density), ignoring
    /// parallel edges.
    pub clustering_coefficient: f64,
}

/// Computes [`GraphStats`] for `g`.
///
/// Runs one Dijkstra per node (`O(n·(n + m) log n)`), fine for the
/// simulation-scale graphs this workspace handles.
#[must_use]
pub fn graph_stats(g: &Graph) -> GraphStats {
    let n = g.node_count();
    let m = g.edge_count();
    let degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();

    let mut diameter = 0.0f64;
    let mut dist_sum = 0.0f64;
    let mut dist_count = 0usize;
    for v in g.nodes() {
        let spt = dijkstra(g, v);
        for u in g.nodes() {
            if u <= v {
                continue;
            }
            if let Some(d) = spt.distance(u) {
                diameter = diameter.max(d);
                dist_sum += d;
                dist_count += 1;
            }
        }
    }

    GraphStats {
        nodes: n,
        edges: m,
        average_degree: if n == 0 {
            0.0
        } else {
            2.0 * m as f64 / n as f64
        },
        max_degree: degrees.iter().copied().max().unwrap_or(0),
        min_degree: degrees.iter().copied().min().unwrap_or(0),
        diameter,
        average_distance: if dist_count == 0 {
            0.0
        } else {
            dist_sum / dist_count as f64
        },
        clustering_coefficient: clustering_coefficient(g),
    }
}

/// Global clustering coefficient: `3 × triangles / connected triples`.
/// Parallel edges are collapsed; returns `0` when no triples exist.
fn clustering_coefficient(g: &Graph) -> f64 {
    // Simple-neighbor sets.
    let neighbor_sets: Vec<std::collections::BTreeSet<NodeId>> = g
        .nodes()
        .map(|v| g.neighbors(v).iter().map(|nb| nb.node).collect())
        .collect();
    let mut triangles = 0usize;
    let mut triples = 0usize;
    for set in &neighbor_sets {
        let nbs: Vec<NodeId> = set.iter().copied().collect();
        let d = nbs.len();
        triples += d.saturating_sub(1) * d / 2;
        for (i, &ni) in nbs.iter().enumerate() {
            for &nj in nbs.iter().skip(i + 1) {
                if neighbor_sets
                    .get(ni.index())
                    .is_some_and(|s| s.contains(&nj))
                {
                    triangles += 1;
                }
            }
        }
    }
    if triples == 0 {
        0.0
    } else {
        // Each triangle is counted once per corner (3 times).
        triangles as f64 / triples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2), 1.0).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(0), 1.0).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(3), 2.0).unwrap();
        g
    }

    #[test]
    fn stats_of_triangle_with_tail() {
        let s = graph_stats(&triangle_plus_tail());
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.average_degree, 2.0);
        assert_eq!(s.max_degree, 3);
        assert_eq!(s.min_degree, 1);
        assert_eq!(s.diameter, 3.0); // 0 or 1 -> 3 costs 1 + 2
        assert!(s.average_distance > 0.0);
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2), 1.0).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(0), 1.0).unwrap();
        assert!((clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        let mut g = Graph::with_nodes(4);
        for i in 1..4 {
            g.add_edge(NodeId::new(0), NodeId::new(i), 1.0).unwrap();
        }
        assert_eq!(clustering_coefficient(&g), 0.0);
    }

    #[test]
    fn empty_and_singleton_are_degenerate() {
        let s = graph_stats(&Graph::new());
        assert_eq!(s.average_degree, 0.0);
        assert_eq!(s.diameter, 0.0);
        let s1 = graph_stats(&Graph::with_nodes(1));
        assert_eq!(s1.max_degree, 0);
        assert_eq!(s1.average_distance, 0.0);
    }

    #[test]
    fn disconnected_pairs_are_ignored() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), 5.0).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(3), 7.0).unwrap();
        let s = graph_stats(&g);
        assert_eq!(s.diameter, 7.0);
        assert_eq!(s.average_distance, 6.0);
    }
}
