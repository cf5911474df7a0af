//! `Online_CP` decides in reused working memory.
//!
//! Replays a seeded AS1755 stream with departures through one warm
//! `OnlineCp` and counts the heap allocations its decisions make, with a
//! counting global allocator. The per-decision structures (`G_k` and its
//! σ-cut, the terminal SPT bank with KMB's buffers, the rooted tree of
//! steps 10–12) are rebuilt in place, so what remains per decision is the
//! Steiner trees the scan returns and the one tree it materializes. The
//! budget stops a change from quietly bringing back per-candidate
//! allocation.
//!
//! This file deliberately holds a single `#[test]`, and only allocations
//! made on the test's own thread while a decision runs are counted.

use nfv_online::{ActiveSessions, OnlineAlgorithm, OnlineCp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use workload::{PoissonWorkload, RequestGenerator};

/// Mean allocations per decision allowed. The same stream made 382 per
/// decision (72 KB) when every structure was allocated afresh per call,
/// and makes 27 (1.5 KB) in reused working memory.
const BUDGET: f64 = 60.0;

/// Decisions made before counting starts, so every buffer has grown to
/// the size the stream needs.
const WARM_UP: usize = 100;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls (and the bytes they ask for) on a thread that is counting.
struct Counting;

fn record(size: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards unchanged to `System`'s, so `System` upholds the contract.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract is passed on to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    // SAFETY: the caller's contract is passed on to `System` as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` was allocated by `System` with `layout`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: `ptr` was allocated by `System` with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_online_cp_stays_within_its_allocation_budget() {
    let mut sdn = sim::isp_sdn(0);
    let mut rng = StdRng::seed_from_u64(1);
    let mut gen = RequestGenerator::new(sdn.node_count())
        .with_dmax_ratio_range(0.05, 0.2)
        .with_bandwidth_range(50.0, 200.0);
    let stream = PoissonWorkload::new(1.0, 90.0).generate(&mut gen, 1_000, &mut rng);

    let mut algo = OnlineCp::new();
    let mut sessions: ActiveSessions = ActiveSessions::new();
    let (mut counted, mut admitted, mut departed) = (0u64, 0usize, 0usize);
    for (i, (request, arrival, holding)) in stream.iter().enumerate() {
        departed += sessions.release_due(&mut sdn, *arrival);
        let warm = i >= WARM_UP;
        COUNTING.with(|c| c.set(warm));
        let tree = algo.admit(&sdn, request);
        COUNTING.with(|c| c.set(false));
        counted += u64::from(warm);
        if let Some(tree) = tree {
            let alloc = tree.allocation(request);
            sdn.allocate(&alloc)
                .expect("Online_CP admits only what fits");
            sessions.insert(request.id, arrival + holding, alloc);
            admitted += 1;
        }
    }
    assert!(
        admitted > 0 && departed > 0 && admitted < stream.len(),
        "the stream must admit, reject and depart (admitted {admitted}, departed {departed})"
    );

    let allocs = ALLOCS.load(Ordering::Relaxed) as f64 / counted as f64;
    let bytes = BYTES.load(Ordering::Relaxed) as f64 / counted as f64;
    println!("{allocs:.1} allocations and {bytes:.0} bytes per decision over {counted} decisions");
    assert!(
        allocs <= BUDGET,
        "{allocs:.1} allocations per decision exceed the budget of {BUDGET}"
    );
}
