//! Property tests for the failure model and the self-healing repair
//! engine: random graphs plus seeded failure/recovery interleavings must
//! never trip the invariant auditor, the ledger must round-trip to the
//! all-idle state once every session departs, and a repair budget of
//! zero must behave exactly like the plain rejection policy.

use integration_tests::{request_batch, waxman_fixture};
use netgraph::{EdgeId, NodeId};
use nfv_engine::{audit, RepairConfig, RepairPolicy, RepairReport, SessionManager};
use nfv_multicast::ApproScratch;
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

/// Replays `ops`, auditing after every step. Returns the manager and the
/// repair reports in order.
fn replay(
    sdn: &mut Sdn,
    requests: &[MulticastRequest],
    ops: &[Op],
    config: &RepairConfig,
) -> (SessionManager, Vec<RepairReport>) {
    let mut mgr = SessionManager::new();
    let mut scratch = ApproScratch::new();
    let mut reports = Vec::new();
    let server_list: Vec<NodeId> = sdn.servers().to_vec();
    for op in ops {
        match op {
            Op::Admit(i) => {
                let req = &requests[i % requests.len()];
                let tracked = mgr.contains(req.id) || mgr.pending_repairs().contains(&req.id);
                if !tracked {
                    let _ = mgr
                        .admit(sdn, req, 2, &mut scratch)
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
                reports.push(mgr.repair(sdn, config, &mut scratch));
            }
            Op::ToggleServer(i) => {
                let v = server_list[i % server_list.len()];
                if sdn.is_server_alive(v) {
                    sdn.fail_server(v).expect("valid server");
                } else {
                    sdn.recover_server(v).expect("valid server");
                }
                reports.push(mgr.repair(sdn, config, &mut scratch));
            }
            Op::Repair => reports.push(mgr.repair(sdn, config, &mut scratch)),
        }
        audit(sdn, mgr.sessions(), mgr.backup_reservations())
            .expect("the auditor must never fire during a chaos replay");
    }
    (mgr, reports)
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
        let config = RepairConfig::new(2)
            .with_policy(RepairPolicy::Degrade)
            .with_max_retries(2);

        let (mut mgr, _) = replay(&mut sdn, &requests, &ops, &config);

        // Settle: recover everything, finish pending repairs, depart all.
        sdn.recover_all();
        let mut scratch = ApproScratch::new();
        let _ = mgr.repair(&mut sdn, &config, &mut scratch);
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

    /// A repair budget of zero is plain rejection: identical reports,
    /// identical surviving sessions, identical ledger — byte for byte —
    /// to the explicit `Reject` policy.
    #[test]
    fn zero_retries_equals_reject_policy(
        seed in 0u64..1_000,
        ops in arb_ops(32),
    ) {
        let n = 30;
        let fresh = waxman_fixture(n, 600 + seed);
        let requests = request_batch(n, 48, 601 + seed);

        let mut net_a = fresh.clone();
        let cfg_a = RepairConfig::new(2).with_max_retries(0); // FullReroute, no budget
        let (mgr_a, reports_a) = replay(&mut net_a, &requests, &ops, &cfg_a);

        let mut net_b = fresh.clone();
        let cfg_b = RepairConfig::new(2)
            .with_policy(RepairPolicy::Reject)
            .with_max_retries(5);
        let (mgr_b, reports_b) = replay(&mut net_b, &requests, &ops, &cfg_b);

        prop_assert_eq!(&reports_a, &reports_b);
        for r in &reports_a {
            prop_assert!(r.repaired.is_empty());
            prop_assert!(r.degraded.is_empty());
            prop_assert!(r.deferred.is_empty());
        }
        let ids_a: Vec<RequestId> = mgr_a.sessions().map(|(id, _)| id).collect();
        let ids_b: Vec<RequestId> = mgr_b.sessions().map(|(id, _)| id).collect();
        prop_assert_eq!(ids_a, ids_b);
        prop_assert_eq!(&net_a, &net_b);
    }
}
