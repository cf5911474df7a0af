//! # nfv-multicast
//!
//! The primary contribution of *"Approximation and Online Algorithms for
//! NFV-Enabled Multicasting in SDNs"* (ICDCS 2017): offline algorithms
//! that, given one NFV-enabled multicast request, jointly pick the
//! server(s) hosting its service chain and a *pseudo-multicast tree*
//! routing its traffic, minimizing the combined bandwidth + computing
//! cost.
//!
//! * [`appro_multi`] — `Appro_Multi` (Algorithm 1): enumerate server
//!   combinations of size ≤ K, reduce each to a Steiner tree instance in
//!   an auxiliary graph with a virtual source, keep the cheapest tree.
//!   Approximation ratio **2K**.
//! * [`appro_multi_cap`] — `Appro_Multi_Cap` (§IV-C): the same on the
//!   subgraph of links/servers with enough residual capacity; returns
//!   `Rejected` when no feasible tree exists.
//! * [`one_server`] — `Alg_One_Server`, the state-of-the-art baseline
//!   ([Zhang et al.]) that always consolidates the chain on one server.
//! * [`exact_pseudo_multicast`] — exponential exact optimum over the same
//!   auxiliary-graph structure (Dreyfus–Wagner inside); the test oracle
//!   for the 2K bound.
//!
//! The combination scan keeps its working memory on the calling thread,
//! so repeated plans on one thread reuse its buffers and no caller
//! passes any.
//!
//! ## Example
//!
//! ```
//! use nfv_multicast::appro_multi;
//! use sdn::{MulticastRequest, NfvType, RequestId, SdnBuilder, ServiceChain};
//! use netgraph::NodeId;
//!
//! # fn main() -> Result<(), sdn::SdnError> {
//! let mut b = SdnBuilder::new();
//! let s = b.add_switch();
//! let m = b.add_server(8_000.0, 1.0);
//! let d = b.add_switch();
//! b.add_link(s, m, 10_000.0, 1.0)?;
//! b.add_link(m, d, 10_000.0, 1.0)?;
//! let sdn = b.build()?;
//!
//! let req = MulticastRequest::new(
//!     RequestId(0), s, vec![d], 100.0,
//!     ServiceChain::new(vec![NfvType::Firewall]),
//! );
//! let tree = appro_multi(&sdn, &req, 1).expect("feasible");
//! assert_eq!(tree.servers_used(), vec![m]);
//! assert!(tree.total_cost() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod appro_multi;
mod auxiliary;
mod cache;
mod capacitated;
mod combinations;
mod delay;
mod exact;
mod fallible;
mod one_server;
mod pseudo_tree;
mod rules;
mod viz;

pub use appro_multi::{
    appro_multi, appro_multi_on_graph, appro_multi_reference, appro_multi_unpruned,
    appro_multi_with_steiner, SteinerRoutine,
};
pub use auxiliary::AuxiliaryGraph;
pub use cache::{
    appro_multi_cached, appro_multi_cap_cached, appro_multi_cap_plan_cached, PathCache,
    PathCacheOptions,
};
pub use capacitated::{appro_multi_cap, appro_multi_cap_plan_excluding, Admission, CapPlan};
pub use combinations::{combinations_up_to, Combinations};
pub use delay::{appro_multi_delay_bounded, max_delivery_hops, DelayBounded};
pub use exact::exact_pseudo_multicast;
pub use fallible::{try_appro_multi, try_appro_multi_cap, try_one_server, validate_request};
pub use one_server::one_server;
pub use pseudo_tree::{PseudoMulticastTree, ServerUse};
pub use rules::{
    compile_rules, simulate_delivery, DeliveryReport, ForwardingRule, PacketStage, RuleSet,
};
pub use viz::tree_to_dot;
