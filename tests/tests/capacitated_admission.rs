//! Integration tests for `Appro_Multi_Cap` as a sequential admitter: the
//! Fig. 7 pipeline end to end.

use integration_tests::{request_batch, waxman_fixture};
use netgraph::EdgeId;
use nfv_multicast::{appro_multi, appro_multi_cap, appro_multi_cap_plan_excluding, CapPlan};
use sdn::{MulticastRequest, Sdn, SdnBuilder};
use std::collections::BTreeSet;

#[test]
fn sequential_admission_respects_every_capacity() {
    let n = 50;
    let mut sdn = waxman_fixture(n, 70);
    let mut admitted = 0;
    let mut rejected = 0;
    for req in request_batch(n, 150, 71) {
        match appro_multi_cap(&sdn, &req, 3).into_tree() {
            Some(tree) => {
                tree.validate(&sdn, &req).expect("admitted tree is valid");
                sdn.allocate(&tree.allocation(&req))
                    .expect("admitted tree fits residual capacity");
                admitted += 1;
            }
            None => rejected += 1,
        }
    }
    assert!(admitted > 0, "nothing admitted");
    assert!(rejected > 0, "capacity never bound — test is vacuous");
    for e in sdn.graph().edges() {
        assert!(sdn.residual_bandwidth(e.id) >= -1e-6);
    }
    for &v in sdn.servers() {
        assert!(sdn.residual_computing(v).expect("server") >= -1e-6);
    }
}

#[test]
fn capacitated_matches_uncapacitated_on_fresh_network() {
    // With full residual capacity the feasible subgraph is the whole
    // network, so Appro_Multi_Cap must return the same cost as
    // Appro_Multi.
    let n = 40;
    let sdn = waxman_fixture(n, 80);
    for req in request_batch(n, 15, 81) {
        let free = appro_multi(&sdn, &req, 3);
        let capped = appro_multi_cap(&sdn, &req, 3).into_tree();
        match (free, capped) {
            (Some(f), Some(c)) => {
                assert!(
                    (f.total_cost() - c.total_cost()).abs() < 1e-6 * (1.0 + f.total_cost()),
                    "fresh-network mismatch: {} vs {}",
                    f.total_cost(),
                    c.total_cost()
                );
            }
            (None, None) => {}
            (f, c) => panic!(
                "feasibility mismatch: {:?} vs {:?}",
                f.is_some(),
                c.is_some()
            ),
        }
    }
}

#[test]
fn capacitated_cost_only_grows_as_network_fills() {
    // Track the running mean cost in two halves of the admission
    // sequence: as cheap routes saturate, later admissions pay at least
    // roughly as much (allowing slack for workload noise).
    let n = 50;
    let mut sdn = waxman_fixture(n, 90);
    let mut early = Vec::new();
    let mut late = Vec::new();
    let requests = request_batch(n, 200, 91);
    for (i, req) in requests.iter().enumerate() {
        if let Some(tree) = appro_multi_cap(&sdn, req, 3).into_tree() {
            sdn.allocate(&tree.allocation(req)).expect("fits");
            // Normalize by bandwidth and destination count to compare
            // across heterogeneous requests.
            let norm = tree.total_cost() / (req.bandwidth * req.destination_count() as f64);
            if i < 100 {
                early.push(norm);
            } else {
                late.push(norm);
            }
        }
    }
    assert!(!early.is_empty() && !late.is_empty());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&late) >= 0.8 * mean(&early),
        "late admissions became drastically cheaper: early {} late {}",
        mean(&early),
        mean(&late)
    );
}

/// `Appro_Multi_Cap` as it was built before it planned on a
/// `FeasibleGraph`: a copy of the network holding only the links and
/// servers that fit the request (and not `excluded`), Algorithm 1 on the
/// copy, then every edge id translated back by hand.
fn sub_sdn_reference(
    sdn: &Sdn,
    req: &MulticastRequest,
    k: usize,
    excluded: Option<EdgeId>,
) -> CapPlan {
    let g = sdn.graph();
    let mut bld = SdnBuilder::new();
    for _ in g.nodes() {
        bld.add_switch();
    }
    let mut any_server = false;
    for &v in sdn.servers() {
        if sdn.server_fits(v, req.computing_demand()) {
            let capacity = sdn.computing_capacity(v).unwrap();
            bld.attach_server(v, capacity, sdn.unit_computing_cost(v).unwrap())
                .unwrap();
            any_server = true;
        }
    }
    if !any_server {
        return CapPlan::NoTree;
    }
    let mut edge_map = Vec::new();
    for e in g.edges() {
        if Some(e.id) != excluded && sdn.link_fits(e.id, req.bandwidth) {
            bld.add_link(e.u, e.v, sdn.bandwidth_capacity(e.id), e.weight)
                .unwrap();
            edge_map.push(e.id);
        }
    }
    let Some(mut tree) = appro_multi(&bld.build().unwrap(), req, k) else {
        return CapPlan::NoTree;
    };
    let translate = |e: &mut EdgeId| *e = edge_map[e.index()];
    for su in &mut tree.servers {
        su.ingress_edges.iter_mut().for_each(translate);
    }
    tree.distribution_edges.iter_mut().for_each(translate);
    tree.extra_traversals.iter_mut().for_each(translate);
    CapPlan::Tree(tree)
}

#[test]
fn plans_byte_identically_to_the_sub_sdn_construction() {
    // Load the network, fail links and servers, then compare every plan
    // — with and without an excluded link — against the reference, all
    // on this one thread, so a stale subgraph or scan buffer would show.
    let n = 50;
    let (mut plans, mut trees, mut excluded_plans, mut moved) = (0, 0, 0, 0);
    for seed in [100, 110] {
        let mut sdn = waxman_fixture(n, seed);
        for req in request_batch(n, 40, seed + 1) {
            if let Some(tree) = appro_multi_cap(&sdn, &req, 3).into_tree() {
                sdn.allocate(&tree.allocation(&req)).unwrap();
            }
        }
        let links: Vec<EdgeId> = sdn.graph().edges().map(|e| e.id).collect();
        for &e in links.iter().step_by(9) {
            sdn.fail_link(e).unwrap();
        }
        let servers = sdn.servers().to_vec();
        sdn.fail_server(servers[0]).unwrap();
        assert!(!sdn.all_alive());

        for req in request_batch(n, 60, seed + 2) {
            let none = BTreeSet::new();
            let plan = appro_multi_cap_plan_excluding(&sdn, &req, 3, &none);
            let reference = sub_sdn_reference(&sdn, &req, 3, None);
            assert_eq!(
                format!("{plan:?}"),
                format!("{reference:?}"),
                "request {}",
                req.id
            );
            plans += 1;
            trees += usize::from(plan != CapPlan::NoTree);
            // Exclude the first link the plan uses, or a fixed link when
            // there is no plan.
            let cut = match &plan {
                CapPlan::Tree(tree) => tree.distribution_edges.first().copied().unwrap_or(links[1]),
                CapPlan::NoTree => links[1],
            };
            let excluded: BTreeSet<EdgeId> = [cut].into_iter().collect();
            let without = appro_multi_cap_plan_excluding(&sdn, &req, 3, &excluded);
            let reference = sub_sdn_reference(&sdn, &req, 3, Some(cut));
            assert_eq!(
                format!("{without:?}"),
                format!("{reference:?}"),
                "request {}",
                req.id
            );
            excluded_plans += 1;
            moved += usize::from(without != plan);
        }
    }
    assert_eq!((plans, excluded_plans), (120, 120));
    assert!(
        trees > 0 && trees < plans,
        "{trees} of {plans} requests planned"
    );
    assert!(
        moved > 0,
        "excluding a link never changed a plan — test is vacuous"
    );
}
