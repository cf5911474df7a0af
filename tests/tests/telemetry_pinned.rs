//! Pinned telemetry counters for a small fixed scenario.
//!
//! Runs the quickstart-style topology through `Appro_Multi_Cap`, then a
//! `SessionManager` lifecycle with one chaos event (an unknown
//! departure), and asserts the **exact** counter values and event
//! sequence the run must produce. Any drift here means either the
//! algorithms changed work (intentional — re-pin) or telemetry recording
//! leaked into a non-deterministic path (a bug).
//!
//! This file deliberately holds a single `#[test]`: the registry is
//! process-global, and each integration-test file is its own process,
//! so nothing else can race these counters.

use nfv_engine::SessionManager;
use nfv_multicast::{appro_multi_cap, Admission};
use sdn::{MulticastRequest, NfvType, RequestId, Sdn, SdnBuilder, ServiceChain};

/// The DESIGN.md quickstart shape: source, two candidate servers on
/// distinct paths, one destination.
fn quickstart() -> (Sdn, [netgraph::NodeId; 5]) {
    let mut bld = SdnBuilder::new();
    let s = bld.add_switch();
    let m1 = bld.add_server(1_000.0, 1.0);
    let a = bld.add_switch();
    let m2 = bld.add_server(1_000.0, 1.0);
    let d = bld.add_switch();
    bld.add_link(s, m1, 1_000.0, 1.0).unwrap();
    bld.add_link(m1, d, 1_000.0, 1.0).unwrap();
    bld.add_link(s, a, 1_000.0, 2.0).unwrap();
    bld.add_link(a, m2, 1_000.0, 2.0).unwrap();
    bld.add_link(m2, d, 1_000.0, 2.0).unwrap();
    (bld.build().unwrap(), [s, m1, a, m2, d])
}

fn req(id: u64, v: &[netgraph::NodeId; 5]) -> MulticastRequest {
    MulticastRequest::new(
        RequestId(id),
        v[0],
        vec![v[4]],
        100.0,
        ServiceChain::new(vec![NfvType::Firewall]),
    )
}

/// Vendored-serde-stub check: the snapshot satisfies the `Serialize`
/// marker bound, so downstream code generic over `serde::Serialize`
/// accepts `results/telemetry.json` payloads.
fn assert_serializable<T: serde::Serialize>(_: &T) {}

#[test]
fn pinned_counters_for_fixed_scenario() {
    telemetry::enable();
    telemetry::reset();

    let (mut sdn, v) = quickstart();

    // One standalone planning pass.
    let planned = appro_multi_cap(&sdn, &req(0, &v), 2);
    assert!(matches!(planned, Admission::Admitted(_)));

    // One committed session plus one chaos event: a departure for a
    // request id the manager has never seen.
    let mut mgr = SessionManager::new(2);
    assert!(mgr.admit(&mut sdn, &req(1, &v)).unwrap());
    mgr.depart(&mut sdn, RequestId(99));
    assert_eq!(mgr.double_release_count(), 1);

    let snap = telemetry::snapshot();

    // Pinned counters: two identical planning passes (standalone +
    // admit) over the 5-node quickstart network with K = 2.
    let pinned = [
        // Two SPT builds per planning pass (source + the winning combo's
        // mini-graph realization), two passes.
        ("dijkstra_runs", 4),
        // One singleton combo evaluated per pass; the size-2 combo is
        // LB1-pruned once the singleton's cost is known, and the
        // duplicate singleton from the K=2 enumeration is deduped.
        ("combos_evaluated", 2),
        ("combos_pruned_lb1", 2),
        ("combos_pruned_lb2", 0),
        ("combos_deduped", 2),
        ("voronoi_closure_builds", 0),
        ("sessions_departed", 0),
        ("double_release", 1),
        ("events_dropped", 0),
    ];
    for (name, expected) in pinned {
        assert_eq!(
            snap.counter(name),
            Some(expected),
            "counter {name} drifted (snapshot:\n{})",
            snap.to_text()
        );
    }

    // One combo evaluated per scan, both landing in the `<= 1` bucket.
    let combos_hist = snap
        .histograms
        .iter()
        .find(|h| h.name == "combos_per_scan")
        .expect("combos_per_scan histogram present");
    assert_eq!(combos_hist.total, 2);
    assert_eq!(combos_hist.buckets.first(), Some(&(1, 2)));

    // The chaos event is the only one, with the first sequence number.
    assert_eq!(snap.events.len(), 1);
    assert_eq!(snap.events[0].seq, 0);
    assert_eq!(
        snap.events[0].event,
        telemetry::Event::UnknownDeparture { request: 99 }
    );

    // The snapshot meets the vendored serde stub's Serialize bound.
    assert_serializable(&snap);

    telemetry::disable();
}
