//! # sdn
//!
//! The software-defined-network substrate for the NFV-multicast
//! reproduction: switches and servers, link/server capacities and unit
//! costs, service chains over the five NFV types of the paper's evaluation,
//! multicast requests, a residual-resource ledger with checked
//! allocate/release, the residual-feasible subgraph every capacitated
//! planner plans on ([`FeasibleGraph`]), and the two cost models (linear
//! and the exponential model of §V-A, Eq. 1–2).
//!
//! ## Example
//!
//! ```
//! use sdn::{NfvType, SdnBuilder, ServiceChain};
//!
//! # fn main() -> Result<(), sdn::SdnError> {
//! let mut b = SdnBuilder::new();
//! let s0 = b.add_switch();
//! let s1 = b.add_server(8_000.0, 1.0); // capacity [MHz], unit cost
//! b.add_link(s0, s1, 1_000.0, 0.5)?;   // capacity [Mbps], unit cost
//! let sdn = b.build()?;
//!
//! assert!(sdn.is_server(s1));
//! assert!(!sdn.is_server(s0));
//!
//! let chain = ServiceChain::new(vec![NfvType::Nat, NfvType::Firewall, NfvType::Ids]);
//! assert!(chain.computing_demand(100.0) > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cost;
mod error;
mod feasible;
mod network;
mod nfv;
mod request;
mod resources;

pub use cost::{
    fits, ExponentialCostModel, LinearCostModel, CAPACITY_EPS, COST_FLOOR, COST_TIEBREAK_REL,
    PRUNE_GUARD_ABS, PRUNE_GUARD_REL, RELEASE_EPS, VALIDATE_REL_TOL,
};
pub use error::SdnError;
pub use feasible::FeasibleGraph;
pub use network::{Sdn, SdnBuilder, Topology};
pub use nfv::{NfvType, ServiceChain};
pub use request::{MulticastRequest, RequestId};
pub use resources::Allocation;
