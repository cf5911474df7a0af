//! # netgraph
//!
//! An undirected, weighted multigraph and the classic graph algorithms used
//! by the NFV-multicast reproduction: shortest paths (Dijkstra,
//! Bellman–Ford), minimum spanning trees (Kruskal, Prim), traversals,
//! connected components, union–find, rooted-tree utilities with lowest
//! common ancestors, and metric closures.
//!
//! The crate is self-contained (no external graph library) and tuned for
//! the workloads of the simulation: graphs of 10–1000 nodes, repeated
//! single-source shortest-path queries, and frequent subgraph filtering.
//!
//! ## Example
//!
//! ```
//! use netgraph::{Graph, NodeId};
//!
//! # fn main() -> Result<(), netgraph::GraphError> {
//! let mut g = Graph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! let c = g.add_node();
//! g.add_edge(a, b, 1.0)?;
//! g.add_edge(b, c, 2.0)?;
//! g.add_edge(a, c, 10.0)?;
//!
//! let spt = netgraph::dijkstra(&g, a);
//! assert_eq!(spt.distance(c), Some(3.0));
//! let path = spt.path_to(c).unwrap();
//! assert_eq!(path.nodes(), &[a, b, c]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod csr;
mod error;
mod graph;
mod heap;
mod ids;
mod mst;
mod oracle;
mod paths;
mod stats;
mod subgraph;
mod total;
mod traversal;
mod tree;
mod unionfind;
mod voronoi;

pub use csr::{dijkstra_csr, dijkstra_csr_with_targets, CsrGraph, SptCache};
pub use error::GraphError;
pub use graph::{EdgeRef, Graph, Neighbor};
pub use heap::IndexedQuadHeap;
pub use ids::{EdgeId, NodeId};
pub use mst::{kruskal, kruskal_over, kruskal_over_in_place, prim, MstResult};
pub use oracle::LandmarkOracle;
pub use paths::{
    bellman_ford, dijkstra, dijkstra_with_targets, dijkstra_with_targets_into, nearest_target_path,
    DijkstraScratch, Path, ShortestPathTree,
};
pub use stats::{graph_stats, GraphStats};
pub use subgraph::{induced_subgraph, FilteredGraph};
pub use total::TotalCost;
pub use traversal::{connected_components, is_connected};
pub use tree::{RootedTree, RootingScratch};
pub use unionfind::UnionFind;
pub use voronoi::{voronoi_closure, ClosureEdge, VoronoiClosure};
