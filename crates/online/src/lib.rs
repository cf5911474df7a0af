//! # nfv-online
//!
//! Online admission of NFV-enabled multicast requests (§V of the paper):
//!
//! * [`OnlineCp`] — `Online_CP` (Algorithm 2): the `O(log n)`-competitive
//!   online algorithm. Resources are priced by the exponential cost model
//!   (Eq. 1–2, `α = β = 2|V|`); a request is admitted through the server
//!   and Steiner tree minimizing the normalized weight, subject to the
//!   admission thresholds `σ_v = σ_e = |V| − 1`; destinations outside the
//!   chosen server's subtree are reached by sending the processed stream
//!   back up to the LCA (`u = LCA(v, d_1, …, d_m)`).
//! * [`ShortestPathBaseline`] — the `SP` heuristic of §VI-A: uniform
//!   weights, shortest path to each candidate server plus a shortest-path
//!   tree to the destinations.
//! * [`LsChainAdmission`] — a Lukovszki–Schmid-style rival: admit only
//!   embeddings whose processed route to every destination fits a hop
//!   budget `L` (default `2·⌈log₂ |V|⌉`).
//! * [`EmpPricing`] — an Even–Medina–Patt-Shamir-style rival: admit the
//!   cheapest exponential-priced embedding iff its price is covered by
//!   the request's benefit ([`request_revenue`]).
//! * [`run_online`] / [`run_dynamic`] — the one online replay behind
//!   Figs. 8–9 and the session-dynamics extension: it offers requests to
//!   an algorithm, commits what it admits, releases sessions at their
//!   departure (never, for `run_online`), and ends by checking the
//!   ledger against the live sessions. Both return a
//!   [`SimulationResult`] with every decision, throughput and
//!   utilization.
//! * [`offline_greedy_benchmark`] / [`offline_exact_benchmark`] — offline
//!   packing yardsticks for [`empirical_competitive_ratio`]; the exact
//!   variant is limited to small instances.
//!
//! ## Example
//!
//! ```
//! use nfv_online::{run_online, OnlineCp, OnlineAlgorithm};
//! use sdn::{MulticastRequest, NfvType, RequestId, SdnBuilder, ServiceChain};
//!
//! # fn main() -> Result<(), sdn::SdnError> {
//! let mut b = SdnBuilder::new();
//! let s = b.add_switch();
//! let m = b.add_server(8_000.0, 1.0);
//! let d = b.add_switch();
//! b.add_link(s, m, 10_000.0, 1.0)?;
//! b.add_link(m, d, 10_000.0, 1.0)?;
//! let mut sdn = b.build()?;
//!
//! let requests = vec![MulticastRequest::new(
//!     RequestId(0), s, vec![d], 100.0,
//!     ServiceChain::new(vec![NfvType::Firewall]),
//! )];
//! let result = run_online(&mut sdn, &mut OnlineCp::new(), &requests);
//! assert_eq!(result.admitted, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod benchmark;
mod dynamics;
mod emp;
mod ls_chain;
mod multi;
mod online_cp;
mod simulation;
mod sp;

pub use benchmark::{
    empirical_competitive_ratio, offline_exact_benchmark, offline_greedy_benchmark,
};
pub use dynamics::{run_dynamic, ActiveSession, ActiveSessions, TimedRequest};
pub use emp::{request_revenue, EmpPricing};
pub use ls_chain::LsChainAdmission;
pub use multi::OnlineCpMulti;
pub(crate) use online_cp::phase1_survivors;
pub use online_cp::{CostMode, OnlineCp, ThresholdRule};
pub use simulation::{
    link_utilization_gini, run_online, OnlineAlgorithm, RequestOutcome, SimulationResult,
};
pub use sp::ShortestPathBaseline;
