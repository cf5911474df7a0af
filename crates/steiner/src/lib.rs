//! # steiner
//!
//! Steiner tree algorithms over [`netgraph`] graphs:
//!
//! * [`kmb`] — the Kou–Markowsky–Berman approximation (Acta Informatica
//!   1981), the routine invoked by both algorithms of the ICDCS 2017 paper.
//!   Guarantee: `2(1 − 1/ℓ) < 2` times optimal, where `ℓ` is the number of
//!   leaves of the optimal tree.
//! * [`mehlhorn`] — Mehlhorn's `O(m log n)` construction (Inf. Proc. Lett.
//!   1988) with the same guarantee as [`kmb`]: one multi-source Dijkstra
//!   replaces the per-terminal sweeps. Only the Steiner-routine ablation
//!   runs it (through `appro_multi_with_steiner`); `Appro_Multi` and
//!   `Online_CP` (via [`kmb_with_bank`]) both build KMB trees.
//! * [`sph`] — the Takahashi–Matsuyama shortest-path heuristic, used by the
//!   ablation benches as an alternative tree routine.
//! * [`dreyfus_wagner`] — the exact dynamic program, exponential in the
//!   terminal count; the test oracle that certifies the approximation
//!   ratios empirically.
//! * [`steiner_lower_bound`] — an admissible lower bound on any spanning
//!   tree's weight from a pairwise distance bound (e.g. a landmark/ALT
//!   oracle), for ordering and pruning Steiner instances before they are
//!   built.
//! * [`join`] / [`join_excluding`] — dynamic-Steiner grafting: attach one
//!   new terminal to an existing tree via its cheapest (optionally
//!   edge-excluding) path, without re-solving the instance.
//!
//! ## Example
//!
//! ```
//! use netgraph::{Graph, NodeId};
//! use steiner::kmb;
//!
//! # fn main() -> Result<(), netgraph::GraphError> {
//! let mut g = Graph::new();
//! let v: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
//! g.add_edge(v[0], v[1], 1.0)?;
//! g.add_edge(v[1], v[2], 1.0)?;
//! g.add_edge(v[1], v[3], 1.0)?;
//! g.add_edge(v[0], v[3], 5.0)?;
//!
//! let tree = kmb(&g, &[v[0], v[2], v[3]]).expect("terminals are connected");
//! assert_eq!(tree.cost(), 3.0); // star around v1
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bound;
mod exact;
mod improve;
mod join;
mod kmb;
mod mehlhorn;
mod prune;
mod sph;
mod tree;

pub use bound::steiner_lower_bound;
pub use exact::{dreyfus_wagner, MAX_TERMINALS};
pub use improve::improve;
pub use join::{join, join_excluding};
pub use kmb::{kmb, kmb_with_bank, TerminalSptBank};
pub use mehlhorn::mehlhorn;
pub use prune::prune_non_terminal_leaves;
pub use sph::sph;
pub use tree::SteinerTree;
