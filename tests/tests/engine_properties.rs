//! Property tests for the SSSP caches: the caches must be invisible
//! (cached results == freshly computed ones after arbitrary
//! capacity-update sequences).

use integration_tests::{request_batch, waxman_fixture};
use netgraph::{dijkstra, NodeId};
use nfv_multicast::{appro_multi_cap, appro_multi_cap_cached, Admission, PathCache};
use proptest::prelude::*;

/// One step of a random capacity-churn schedule.
#[derive(Debug, Clone)]
enum Step {
    /// Try to admit the request at this index of a pinned batch; commit
    /// its allocation when admitted (capacities shrink).
    Admit(usize),
    /// Release the allocation committed this many admissions ago, if any
    /// (capacities grow back).
    Release(usize),
    /// Query the cached SSSP tree from this source and compare it against
    /// a fresh Dijkstra run.
    Query(usize),
}

fn arb_steps(n: usize, len: usize) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..64).prop_map(Step::Admit),
            (0usize..8).prop_map(Step::Release),
            (0usize..n).prop_map(Step::Query),
        ],
        1..len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The SSSP cache (and the capacitated fast path built on it) returns
    /// exactly what a from-scratch computation returns, no matter how
    /// residual capacities moved between queries.
    #[test]
    fn cached_sssp_survives_arbitrary_capacity_churn(steps in arb_steps(30, 24)) {
        let n = 30;
        let mut sdn = waxman_fixture(n, 400);
        let requests = request_batch(n, 64, 401);
        let mut cache = PathCache::new(&sdn);
        let mut live_allocs = Vec::new();
        for step in steps {
            match step {
                Step::Admit(i) => {
                    let req = &requests[i];
                    // The cached admission must match the uncached one on
                    // the current residual state.
                    let cached = appro_multi_cap_cached(&sdn, req, 2, &mut cache);
                    let fresh = appro_multi_cap(&sdn, req, 2);
                    prop_assert_eq!(&cached, &fresh);
                    if let Admission::Admitted(tree) = cached {
                        let alloc = tree.allocation(req);
                        sdn.allocate(&alloc).expect("admitted tree fits");
                        live_allocs.push(alloc);
                    }
                }
                Step::Release(back) => {
                    if !live_allocs.is_empty() {
                        let idx = back % live_allocs.len();
                        let alloc = live_allocs.swap_remove(idx);
                        sdn.release(&alloc).expect("release live allocation");
                    }
                }
                Step::Query(src) => {
                    let source = NodeId::new(src);
                    let cached = cache.spt(source);
                    let fresh = dijkstra(sdn.graph(), source);
                    let g = sdn.graph();
                    for v in g.nodes() {
                        prop_assert_eq!(cached.distance(v), fresh.distance(v));
                        prop_assert_eq!(cached.predecessor(g, v), fresh.predecessor(g, v));
                    }
                }
            }
        }
    }
}
