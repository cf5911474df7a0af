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
//! unbounded stream of arrivals, departures, and faults, worker threads
//! plan a bounded in-flight window against versioned read-only snapshots
//! while the committer commits in strict arrival order. A plan commits
//! only when no commit or release since its snapshot crossed the
//! request's feasibility thresholds; otherwise it is re-planned on the
//! live state. Decisions therefore stay byte-identical to the sequential
//! reference, on a closed batch as well as on a stream.
//!
//! Around the pipeline: [`repair`] keeps the session table and restores
//! sessions broken by faults, [`resilience`] precomputes backup trees,
//! and [`audit`](mod@audit) checks the ledger invariants.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod pipeline;
pub mod repair;
pub mod resilience;
mod spec;

pub use audit::{audit, AuditError, Auditor, CacheStamp};
pub use pipeline::{
    run_stream, AdmissionPipeline, FaultEvent, PipelineConfig, PipelineOutcome, PipelineReport,
    StreamEvent,
};
pub use repair::{
    CommittedSession, Departure, RepairConfig, RepairPolicy, RepairReport, SessionManager,
};
pub use resilience::{BackupPolicy, BackupTree, GraftOutcome, PruneOutcome, ResilienceConfig};

use nfv_multicast::{appro_multi_cap_with_scratch, Admission, ApproScratch};
use sdn::{MulticastRequest, Sdn};

/// The reference implementation: admits `requests` strictly one at a time,
/// committing each admitted allocation before planning the next request.
// lint:entry(api)
pub fn admit_sequential(sdn: &mut Sdn, requests: &[MulticastRequest], k: usize) -> Vec<Admission> {
    let mut scratch = ApproScratch::new();
    requests
        .iter()
        .map(|req| {
            let adm = appro_multi_cap_with_scratch(sdn, req, k, &mut scratch);
            if let Admission::Admitted(tree) = &adm {
                sdn.allocate(&tree.allocation(req))
                    .expect("admitted tree fits residual capacities"); // lint:allow(P1): the tree was planned on this exact residual state
            }
            adm
        })
        .collect()
}
