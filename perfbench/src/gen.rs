//! Seeded, stratified request streams.
//!
//! Each request follows the paper's default marginals: a source and
//! `|D|` distinct destinations drawn uniformly, `|D|` uniform in
//! `1..=D_max` with `D_max / |V|` drawn from a range, a bandwidth uniform
//! in a range, a chain of 1–3 distinct functions, Poisson arrivals and
//! exponential holding times. The draws that set a request's cost — `|D|`,
//! bandwidth, chain length, inter-arrival and holding time — are
//! *stratified*: a pass of `N` requests takes one draw from each of `N`
//! equal-probability strata, in a seeded random order. Every seed thus
//! offers the same mix of large and small requests, and the seed decides
//! which request gets which draw, where it starts and ends, and when. This
//! keeps the run-to-run spread across seeds down to what the placement of
//! requests causes, instead of what a lucky draw of large requests causes.

use nfv_online::TimedRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdn::{MulticastRequest, RequestId};

/// What a workload's requests look like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// `D_max / |V|` is drawn per request from this range.
    pub dmax_ratio: (f64, f64),
    /// Bandwidth demand range in Mbps.
    pub bandwidth: (f64, f64),
    /// Mean holding time over mean inter-arrival time: the offered load
    /// in Erlangs.
    pub erlangs: f64,
}

/// One uniform draw from each of `n` equal strata of `[0, 1)`, shuffled.
fn strata(n: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n)
        .map(|i| (i as f64 + rng.gen_range(0.0..1.0)) / n as f64)
        .collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
    v
}

/// `D_max` for a ratio, as `workload::RequestGenerator` computes it.
fn dmax(ratio: f64, nodes: usize) -> usize {
    ((ratio * nodes as f64).floor() as usize).clamp(1, nodes - 1)
}

/// The quantile `u` of `|D|` when `D_max / |V|` is uniform on `ratio` and
/// `|D|` is uniform on `1..=D_max`.
fn dest_count(u: f64, nodes: usize, ratio: (f64, f64)) -> usize {
    const GRID: usize = 1_000;
    let maxes: Vec<usize> = (0..GRID)
        .map(|i| {
            dmax(
                ratio.0 + (ratio.1 - ratio.0) * (i as f64 + 0.5) / GRID as f64,
                nodes,
            )
        })
        .collect();
    let top = maxes.iter().copied().max().unwrap_or(1);
    for d in 1..top {
        let cdf: f64 = maxes
            .iter()
            .map(|&m| d.min(m) as f64 / m as f64)
            .sum::<f64>()
            / GRID as f64;
        if cdf > u {
            return d;
        }
    }
    top
}

/// The seeded stream of `count` requests on a network of `nodes` nodes.
///
/// # Panics
///
/// Panics if `nodes < 2`.
#[must_use]
pub fn stream(shape: &Shape, nodes: usize, seed: u64, count: usize) -> Vec<TimedRequest> {
    assert!(nodes >= 2, "a multicast needs two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes = strata(count, &mut rng);
    let bandwidths = strata(count, &mut rng);
    let chains = strata(count, &mut rng);
    let gaps = strata(count, &mut rng);
    let holds = strata(count, &mut rng);
    let (b_lo, b_hi) = shape.bandwidth;
    let mut now = 0.0;
    (0..count)
        .map(|i| {
            let source = rng.gen_range(0..nodes);
            let want = dest_count(sizes[i], nodes, shape.dmax_ratio);
            let mut dests: Vec<netgraph::NodeId> = Vec::with_capacity(want);
            while dests.len() < want {
                let d = netgraph::NodeId::new(rng.gen_range(0..nodes));
                if d.index() != source && !dests.contains(&d) {
                    dests.push(d);
                }
            }
            let chain_len = 1 + (chains[i] * 3.0) as usize;
            let request = MulticastRequest::new(
                RequestId(i as u64),
                netgraph::NodeId::new(source),
                dests,
                b_lo + (b_hi - b_lo) * bandwidths[i],
                workload::random_chain(chain_len, &mut rng),
            );
            now += -(1.0 - gaps[i]).ln();
            let holding = -shape.erlangs * (1.0 - holds[i]).ln();
            TimedRequest::new(request, now, holding)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        dmax_ratio: (0.05, 0.2),
        bandwidth: (50.0, 200.0),
        erlangs: 30.0,
    };

    #[test]
    fn same_seed_same_stream() {
        let a = stream(&SHAPE, 250, 5, 60);
        assert_eq!(a, stream(&SHAPE, 250, 5, 60));
        assert_ne!(a, stream(&SHAPE, 250, 6, 60));
        assert!(a.windows(2).all(|p| p[0].arrival < p[1].arrival));
    }

    #[test]
    fn requests_are_well_formed() {
        for tr in stream(&SHAPE, 250, 9, 200) {
            let r = &tr.request;
            assert!((1..=50).contains(&r.destinations.len()));
            assert!(!r.destinations.contains(&r.source));
            let mut d = r.destinations.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), r.destinations.len());
            assert!((50.0..200.0).contains(&r.bandwidth));
            assert!((1..=3).contains(&r.chain.len()));
            assert!(tr.duration > 0.0);
        }
    }

    #[test]
    fn every_seed_offers_the_same_mix() {
        let sizes = |seed| {
            let mut v: Vec<usize> = stream(&SHAPE, 250, seed, 300)
                .iter()
                .map(|t| t.request.destinations.len())
                .collect();
            v.sort_unstable();
            v
        };
        let (a, b) = (sizes(1), sizes(2));
        // Stratified quantiles differ by at most one stratum.
        let differ = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(differ < 30, "{differ} of 300 sorted sizes differ");
        let mean = a.iter().sum::<usize>() as f64 / 300.0;
        // E|D| = E[(D_max + 1) / 2] with D_max uniform-ish on 12..50.
        assert!((14.0..18.0).contains(&mean), "mean |D| {mean}");
    }

    #[test]
    fn fixed_ratio_gives_uniform_counts() {
        assert_eq!(dest_count(0.0, 5_120, (0.0015, 0.0015)), 1);
        assert_eq!(dest_count(0.999, 5_120, (0.0015, 0.0015)), 7);
        assert_eq!(dest_count(0.5, 5_120, (0.0015, 0.0015)), 4);
    }
}
