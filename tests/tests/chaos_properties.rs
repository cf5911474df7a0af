//! Property tests for the failure model and the self-healing repair
//! engine: random graphs plus seeded failure/recovery interleavings must
//! never trip the invariant auditor, and the ledger must round-trip to
//! the all-idle state once every session departs.

use integration_tests::{request_batch, waxman_fixture};
use netgraph::{EdgeId, NodeId};
use nfv_engine::{audit, SessionManager};
use proptest::prelude::*;
use sdn::{MulticastRequest, RequestId, Sdn};

/// One step of a random admission/failure interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Offer the request at this index (modulo the batch).
    Admit(usize),
    /// Depart the request at this index — possibly never admitted, or
    /// already torn down by repair: both must be guarded no-ops.
    Depart(usize),
    /// Toggle liveness of this link (modulo the link count), then repair.
    ToggleLink(usize),
    /// Toggle liveness of this server (modulo the server count), then
    /// repair.
    ToggleServer(usize),
    /// Run a repair pass with no new failure (retries pending sessions).
    Repair,
}

fn arb_ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..48).prop_map(Op::Admit),
            (0usize..48).prop_map(Op::Depart),
            (0usize..512).prop_map(Op::ToggleLink),
            (0usize..32).prop_map(Op::ToggleServer),
            Just(Op::Repair),
        ],
        1..len,
    )
}

/// Replays `ops`, auditing after every step. Returns the manager.
fn replay(sdn: &mut Sdn, requests: &[MulticastRequest], ops: &[Op]) -> SessionManager {
    let mut mgr = SessionManager::new(2);
    let server_list: Vec<NodeId> = sdn.servers().to_vec();
    for op in ops {
        match op {
            Op::Admit(i) => {
                let req = &requests[i % requests.len()];
                let tracked = mgr.contains(req.id) || mgr.pending_repairs().contains(&req.id);
                if !tracked {
                    let _ = mgr
                        .admit(sdn, req)
                        .expect("untracked id admits without error");
                }
            }
            Op::Depart(i) => {
                let id = requests[i % requests.len()].id;
                mgr.depart(sdn, id);
            }
            Op::ToggleLink(i) => {
                let e = EdgeId::new(i % sdn.link_count());
                if sdn.is_link_alive(e) {
                    sdn.fail_link(e).expect("valid link");
                } else {
                    sdn.recover_link(e).expect("valid link");
                }
                mgr.repair(sdn);
            }
            Op::ToggleServer(i) => {
                let v = server_list[i % server_list.len()];
                if sdn.is_server_alive(v) {
                    sdn.fail_server(v).expect("valid server");
                } else {
                    sdn.recover_server(v).expect("valid server");
                }
                mgr.repair(sdn);
            }
            Op::Repair => {
                mgr.repair(sdn);
            }
        }
        audit(sdn, mgr.sessions(), mgr.backup_reservations())
            .expect("the auditor must never fire during a chaos replay");
    }
    mgr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under any interleaving of admissions, departures, failures, and
    /// recoveries, every post-step audit passes, and after recovering
    /// all elements and departing every session the network returns to
    /// its all-idle state.
    #[test]
    fn auditor_never_fires_and_ledger_round_trips(
        seed in 0u64..1_000,
        ops in arb_ops(40),
    ) {
        let n = 30;
        let mut sdn = waxman_fixture(n, 500 + seed);
        let fresh = sdn.clone();
        let requests = request_batch(n, 48, 501 + seed);
        let mut mgr = replay(&mut sdn, &requests, &ops);

        // Settle: recover everything, finish pending repairs, depart all.
        sdn.recover_all();
        let _ = mgr.repair(&mut sdn);
        for id in mgr.pending_repairs() {
            mgr.depart(&mut sdn, id);
        }
        let committed: Vec<RequestId> = mgr.sessions().map(|(id, _)| id).collect();
        for id in committed {
            mgr.depart(&mut sdn, id);
        }
        prop_assert!(mgr.is_empty());
        // With no live sessions the audit asserts residuals equal full
        // capacity (within float tolerance).
        audit(&sdn, mgr.sessions(), mgr.backup_reservations()).expect("all-idle audit");
        sdn.reset(); // clear float dust before the exact comparison
        prop_assert_eq!(&sdn, &fresh);
    }
}
