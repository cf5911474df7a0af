//! # nfv-engine
//!
//! Request admission for NFV-enabled multicast requests, beyond one
//! `Appro_Multi_Cap` call.
//!
//! [`admit_sequential`] is the closed-batch reference: the paper's
//! `Appro_Multi_Cap` per request, strictly one at a time, committing each
//! admitted allocation before planning the next. It plans through the
//! cached planner, as the pipeline does, so both break equal-cost ties by
//! one rule. Every other engine must reproduce its decisions.
//!
//! [`pipeline::AdmissionPipeline`] is the one speculative engine. Over an
//! unbounded stream of arrivals and departures, worker threads
//! plan a bounded in-flight window against versioned read-only snapshots
//! while the committer commits in strict arrival order. A plan commits
//! only when no commit or release since its snapshot crossed the
//! request's feasibility thresholds; otherwise it is re-planned on the
//! live state. Decisions therefore stay byte-identical to the sequential
//! reference, on a closed batch as well as on a stream.
//!
//! Beside the pipeline: [`repair`]'s [`SessionManager`] keeps sessions
//! that depart explicitly and restores those broken by faults,
//! [`resilience`] precomputes backup trees for it, and
//! [`audit`](mod@audit) checks the ledger invariants of both. A manager
//! has two settings: the server budget `K` it plans with
//! ([`SessionManager::new`]) and, optionally, the capacity discipline of
//! its backup trees ([`SessionManager::with_backups`]). Its repair
//! attempt budget, how many links it protects and the drift that
//! triggers a re-optimization are fixed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod pipeline;
pub mod repair;
pub mod resilience;
mod spec;

pub use audit::{audit, AuditError};
pub use pipeline::{AdmissionPipeline, PipelineConfig, PipelineOutcome, PipelineReport};
pub use repair::{CommittedSession, Departure, RepairReport, SessionManager};
pub use resilience::{BackupPolicy, BackupTree, GraftOutcome, PruneOutcome};

use nfv_multicast::{appro_multi_cap_cached, Admission, PathCache};
use sdn::{MulticastRequest, Sdn};

/// The reference implementation: admits `requests` strictly one at a time,
/// committing each admitted allocation before planning the next request.
///
/// Each request is planned by [`appro_multi_cap_cached`] over one
/// [`PathCache`], the planner [`AdmissionPipeline`] decides with. Where
/// every shortest path between a source and a server is unique this is
/// the uncached `appro_multi_cap`'s decision; on equal-cost paths it
/// follows the cached planner's tie rule.
// lint:entry(api)
pub fn admit_sequential(sdn: &mut Sdn, requests: &[MulticastRequest], k: usize) -> Vec<Admission> {
    let mut cache = PathCache::new(sdn);
    requests
        .iter()
        .map(|req| {
            let adm = appro_multi_cap_cached(sdn, req, k, &mut cache);
            if let Admission::Admitted(tree) = &adm {
                sdn.allocate(&tree.allocation(req))
                    .expect("admitted tree fits residual capacities"); // lint:allow(P1): the tree was planned on this exact residual state
            }
            adm
        })
        .collect()
}
