//! # topology
//!
//! Network topology generation for the NFV-multicast evaluation:
//!
//! * [`Waxman`] — the GT-ITM-style random topology used for the paper's
//!   synthetic networks of 50–250 nodes (§VI-A). GT-ITM's flat random
//!   model *is* the Waxman model: nodes are placed in a unit square and
//!   connected with probability `α·exp(−d/(β·L))`.
//! * [`erdos_renyi`] / [`barabasi_albert`] — alternative random models for
//!   robustness tests and ablations.
//! * [`grid`] / [`fat_tree`] — structured topologies; the fat-tree backs
//!   the data-center example (multicasting for system monitoring).
//! * [`geant`] / [`as1755`] — the two "real" topologies of §VI: the
//!   pan-European GÉANT research network and a Rocketfuel-scale ISP map.
//! * [`annotate`] — turns a raw graph into an [`sdn::Sdn`] with the
//!   paper's capacity ranges (links 1 000–10 000 Mbps, servers
//!   4 000–12 000 MHz) and server placement (10 % of switches).
//!
//! All generators take an explicit RNG so experiments are reproducible
//! from a seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod annotate;
mod io;
mod random;
mod real;
mod scale;
mod structured;
mod waxman;

pub use annotate::{annotate, place_servers_random, place_servers_spread, AnnotationParams};
pub use io::{parse_edge_list, to_edge_list, ParseTopologyError};
pub use random::{barabasi_albert, erdos_renyi};
pub use real::{as1755, geant, NamedTopology};
pub use scale::{fat_tree_edges, EdgeList};
pub use structured::{fat_tree, grid, FatTreeLayout};
pub use waxman::Waxman;
