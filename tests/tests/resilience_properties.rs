//! Property tests for proactive fault tolerance: a single-link failure
//! healed by a best-effort backup-tree swap must leave the invariant
//! auditor green and must not change any *admission decision* for the
//! arrivals that follow, compared to the reactive replan baseline.
//!
//! Why the equivalence holds: a best-effort backup is planned on the
//! session's post-release view with the protected link excluded — the
//! exact subproblem the reactive replan solves right after the failure
//! releases the broken session (a failed link and an excluded link
//! filter identically). With the deterministic planner, the swapped tree
//! and the replanned tree are the same tree, so both timelines hold the
//! same residuals and every subsequent decision matches. The swap just
//! gets there with zero planner invocations — the latency win the
//! `plan_events` assertion pins.

use integration_tests::{request_batch, waxman_fixture};
use netgraph::EdgeId;
use nfv_engine::{audit, BackupPolicy, SessionManager};
use proptest::prelude::*;
use sdn::RequestId;
use std::collections::BTreeSet;

const K: usize = 2;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Proactive (best-effort backups) and reactive (replan only)
    /// timelines fed the identical workload and the identical single-link
    /// failure make identical admission decisions for every subsequent
    /// arrival, with the auditor green throughout.
    #[test]
    fn best_effort_swap_preserves_subsequent_decisions(
        seed in 0u64..500,
        n in 30usize..48,
        prefix in 2usize..10,
        link_choice in 0usize..64,
    ) {
        let mut sdn_p = waxman_fixture(n, seed);
        let mut sdn_r = sdn_p.clone();
        let requests = request_batch(n, prefix + 8, seed ^ 0xBEEF);

        let mut proactive = SessionManager::with_backups(K, BackupPolicy::BestEffort);
        let mut reactive = SessionManager::new(K);

        // Identical admission prefix; the proactive side protects every
        // admitted session (best-effort backups hold no capacity, so the
        // two ledgers stay equal).
        let mut admitted: Vec<RequestId> = Vec::new();
        for req in &requests[..prefix] {
            let a = proactive.admit(&mut sdn_p, req).unwrap();
            let b = reactive.admit(&mut sdn_r, req).unwrap();
            prop_assert_eq!(a, b, "prefix decisions must agree");
            if a {
                admitted.push(req.id);
                let charged = proactive.protect(&mut sdn_p, req.id);
                prop_assert!(charged.is_empty(), "best effort never reserves");
            }
        }
        prop_assert_eq!(sdn_p.clone(), sdn_r.clone());
        let Some(&victim) = admitted.last() else {
            return Ok(()); // nothing admitted: trivially equivalent
        };

        // Fail one link carried *only* by the victim session, so exactly
        // one session breaks and the swap-vs-replan comparison is pure.
        let carried_elsewhere: BTreeSet<EdgeId> = proactive
            .sessions()
            .filter(|(id, _)| *id != victim)
            .flat_map(|(_, s)| s.allocation.links().map(|(e, _)| e))
            .collect();
        let exclusive: Vec<EdgeId> = proactive
            .session(victim)
            .unwrap()
            .allocation
            .links()
            .map(|(e, _)| e)
            .filter(|e| !carried_elsewhere.contains(e))
            .collect();
        let Some(&failed) = exclusive.get(link_choice % exclusive.len().max(1)) else {
            return Ok(()); // every victim link is shared: skip this case
        };
        sdn_p.fail_link(failed).unwrap();
        sdn_r.fail_link(failed).unwrap();

        let rp = proactive.repair(&mut sdn_p);
        let rr = reactive.repair(&mut sdn_r);
        prop_assert_eq!(rp.broken.clone(), vec![victim]);
        prop_assert_eq!(rr.broken.clone(), vec![victim]);
        audit(&sdn_p, proactive.sessions(), proactive.backup_reservations()).unwrap();
        audit(&sdn_r, reactive.sessions(), reactive.backup_reservations()).unwrap();

        // A swap happens exactly when the reactive replan succeeds (same
        // subproblem), and it spends zero planner invocations doing it.
        if rp.swapped == vec![victim] {
            prop_assert_eq!(rr.repaired.clone(), vec![victim]);
            prop_assert_eq!(rp.plan_events, 0, "a swap must not plan");
            prop_assert!(rr.plan_events > 0, "a replan must plan");
        } else {
            // No backup covered the failed link (it was outside the
            // two protected links, or no alternate tree existed): the miss
            // falls back to exactly the reactive replan.
            prop_assert_eq!(rp.repaired.clone(), rr.repaired.clone());
            prop_assert_eq!(rp.plan_events, rr.plan_events);
        }

        // The arrivals that follow see identical networks, so every
        // admission decision matches.
        for req in &requests[prefix..] {
            let a = proactive.admit(&mut sdn_p, req).unwrap();
            let b = reactive.admit(&mut sdn_r, req).unwrap();
            prop_assert_eq!(a, b, "post-failure decisions must agree");
            if a {
                let _ = proactive.protect(&mut sdn_p, req.id);
            }
            audit(&sdn_p, proactive.sessions(), proactive.backup_reservations()).unwrap();
            audit(&sdn_r, reactive.sessions(), reactive.backup_reservations()).unwrap();
        }
        prop_assert_eq!(sdn_p, sdn_r);
    }
}
