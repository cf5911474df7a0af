//! # nfv-engine
//!
//! Request admission for NFV-enabled multicast requests, beyond one
//! `Appro_Multi_Cap` call.
//!
//! [`admit_sequential`] is the closed-batch reference: the paper's
//! `Appro_Multi_Cap` per request, strictly one at a time, committing each
//! admitted allocation before planning the next. Every other engine must
//! reproduce its decisions.
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

use nfv_multicast::{appro_multi_cap, Admission};
use sdn::{MulticastRequest, Sdn};

/// The reference implementation: admits `requests` strictly one at a time,
/// committing each admitted allocation before planning the next request.
// lint:entry(api)
pub fn admit_sequential(sdn: &mut Sdn, requests: &[MulticastRequest], k: usize) -> Vec<Admission> {
    requests
        .iter()
        .map(|req| {
            let adm = appro_multi_cap(sdn, req, k);
            if let Admission::Admitted(tree) = &adm {
                sdn.allocate(&tree.allocation(req))
                    .expect("admitted tree fits residual capacities"); // lint:allow(P1): the tree was planned on this exact residual state
            }
            adm
        })
        .collect()
}
