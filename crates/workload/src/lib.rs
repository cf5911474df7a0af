//! # workload
//!
//! Random NFV-enabled multicast request generation reproducing the
//! workload model of the paper's evaluation (§VI-A):
//!
//! * source and destinations drawn uniformly from the switches,
//! * the ratio `D_max/|V|` of the maximum destination count to the network
//!   size drawn from `[0.05, 0.2]` (or pinned per experiment),
//! * bandwidth demand `b_k` drawn from `[50, 200]` Mbps,
//! * service chains assembled from the five NFV types.
//!
//! Generators are deterministic given an RNG seed, which is how every
//! experiment in `sim` pins its workload.
//!
//! ## Example
//!
//! ```
//! use workload::RequestGenerator;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut gen = RequestGenerator::new(100);
//! let r = gen.generate(&mut rng);
//! assert!(r.bandwidth >= 50.0 && r.bandwidth < 200.0);
//! assert!(!r.destinations.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adversarial;
mod arrivals;
mod churn;

pub use adversarial::{
    CapacityStarvedWorkload, DiurnalWorkload, FlashCrowdWorkload, HeavyTailWorkload,
};
pub use arrivals::{OpenLoopWorkload, PoissonWorkload, TimedSession};
pub use churn::{ChurnAction, ChurnEvent, MembershipChurn};

use netgraph::NodeId;
use rand::Rng;
use sdn::{MulticastRequest, NfvType, RequestId, ServiceChain};

/// How the per-request maximum destination count is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DmaxMode {
    /// `D_max = ratio · |V|`, fixed for every request (the per-subplot
    /// setting of Figs. 5–6).
    Fixed(f64),
    /// The ratio is redrawn uniformly from the interval per request (the
    /// paper's default setting).
    Uniform(f64, f64),
}

/// Deterministic-given-a-seed generator of NFV-enabled multicast requests.
#[derive(Debug, Clone)]
pub struct RequestGenerator {
    node_count: usize,
    dmax: DmaxMode,
    bandwidth: (f64, f64),
    next_id: u64,
}

impl RequestGenerator {
    /// Creates a generator with the paper's default workload parameters
    /// for a network of `node_count` switches: `D_max/|V| ∈ [0.05, 0.2]`,
    /// `b_k ∈ [50, 200]` Mbps, chains of 1–3 functions.
    ///
    /// # Panics
    ///
    /// Panics if `node_count < 2` (a multicast needs a source and at least
    /// one distinct destination).
    #[must_use]
    pub fn new(node_count: usize) -> Self {
        assert!(node_count >= 2, "need at least two switches");
        RequestGenerator {
            node_count,
            dmax: DmaxMode::Uniform(0.05, 0.2),
            bandwidth: (50.0, 200.0),
            next_id: 0,
        }
    }

    /// Pins `D_max/|V|` to a fixed ratio (the Figs. 5–6 sweeps).
    #[must_use]
    pub fn with_dmax_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        self.dmax = DmaxMode::Fixed(ratio);
        self
    }

    /// Draws `D_max/|V|` per request from `[lo, hi]`.
    #[must_use]
    pub fn with_dmax_ratio_range(mut self, lo: f64, hi: f64) -> Self {
        assert!(0.0 < lo && lo <= hi && hi <= 1.0, "need 0 < lo <= hi <= 1");
        self.dmax = DmaxMode::Uniform(lo, hi);
        self
    }

    /// Overrides the bandwidth demand range (Mbps).
    #[must_use]
    pub fn with_bandwidth_range(mut self, lo: f64, hi: f64) -> Self {
        assert!(0.0 < lo && lo <= hi, "need 0 < lo <= hi");
        self.bandwidth = (lo, hi);
        self
    }

    /// The network size this generator was configured for.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Generates the next request.
    pub fn generate<R: Rng + ?Sized>(&mut self, rng: &mut R) -> MulticastRequest {
        let id = RequestId(self.next_id);
        self.next_id += 1;

        let n = self.node_count;
        let source = NodeId::new(rng.gen_range(0..n));

        let ratio = match self.dmax {
            DmaxMode::Fixed(r) => r,
            DmaxMode::Uniform(lo, hi) => {
                if lo >= hi {
                    lo
                } else {
                    rng.gen_range(lo..hi)
                }
            }
        };
        let dmax = ((ratio * n as f64).floor() as usize).clamp(1, n - 1);
        let dest_count = rng.gen_range(1..=dmax);
        let mut dests = Vec::with_capacity(dest_count);
        let mut guard = 0;
        while dests.len() < dest_count && guard < 100 * n {
            guard += 1;
            let d = NodeId::new(rng.gen_range(0..n));
            if d != source && !dests.contains(&d) {
                dests.push(d);
            }
        }

        let bandwidth = if self.bandwidth.0 >= self.bandwidth.1 {
            self.bandwidth.0
        } else {
            rng.gen_range(self.bandwidth.0..self.bandwidth.1)
        };

        let chain = random_chain(rng.gen_range(1..=3), rng);

        MulticastRequest::new(id, source, dests, bandwidth, chain)
    }

    /// Generates `count` requests.
    pub fn generate_batch<R: Rng + ?Sized>(
        &mut self,
        count: usize,
        rng: &mut R,
    ) -> Vec<MulticastRequest> {
        (0..count).map(|_| self.generate(rng)).collect()
    }
}

/// Draws a service chain of `len` distinct functions, order randomized.
///
/// # Panics
///
/// Panics if `len` exceeds the number of NFV types (5).
pub fn random_chain<R: Rng + ?Sized>(len: usize, rng: &mut R) -> ServiceChain {
    assert!(len <= NfvType::ALL.len(), "chain longer than the catalog");
    let mut pool = NfvType::ALL.to_vec();
    // Partial Fisher-Yates.
    for i in 0..len {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(len);
    ServiceChain::new(pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn defaults_match_the_paper() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gen = RequestGenerator::new(100);
        for _ in 0..200 {
            let r = gen.generate(&mut rng);
            assert!(r.bandwidth >= 50.0 && r.bandwidth < 200.0);
            assert!(r.destination_count() >= 1);
            // Dmax at ratio 0.2 of 100 nodes = 20.
            assert!(r.destination_count() <= 20);
            assert!(!r.chain.is_empty());
            assert!(r.chain.len() <= 3);
            assert!(!r.destinations.contains(&r.source));
        }
    }

    #[test]
    fn ids_are_sequential() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut gen = RequestGenerator::new(10);
        let batch = gen.generate_batch(5, &mut rng);
        let ids: Vec<u64> = batch.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fixed_ratio_caps_destinations() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gen = RequestGenerator::new(50).with_dmax_ratio(0.1);
        for _ in 0..100 {
            let r = gen.generate(&mut rng);
            assert!(r.destination_count() <= 5);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut g1 = RequestGenerator::new(60);
        let mut g2 = RequestGenerator::new(60);
        let b1 = g1.generate_batch(20, &mut StdRng::seed_from_u64(9));
        let b2 = g2.generate_batch(20, &mut StdRng::seed_from_u64(9));
        assert_eq!(b1, b2);
    }

    #[test]
    fn destinations_are_distinct() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut gen = RequestGenerator::new(30).with_dmax_ratio(0.5);
        for _ in 0..50 {
            let r = gen.generate(&mut rng);
            let mut d = r.destinations.clone();
            d.dedup();
            assert_eq!(d.len(), r.destination_count());
        }
    }

    #[test]
    fn random_chain_has_distinct_functions() {
        let mut rng = StdRng::seed_from_u64(5);
        for len in 1..=5 {
            let c = random_chain(len, &mut rng);
            assert_eq!(c.len(), len);
            let mut fs = c.functions().to_vec();
            fs.sort_unstable();
            fs.dedup();
            assert_eq!(fs.len(), len);
        }
    }

    #[test]
    fn tiny_network_still_generates() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut gen = RequestGenerator::new(2);
        let r = gen.generate(&mut rng);
        assert_eq!(r.destination_count(), 1);
        assert_ne!(r.destinations[0], r.source);
    }

    #[test]
    #[should_panic(expected = "at least two switches")]
    fn rejects_single_node_network() {
        let _ = RequestGenerator::new(1);
    }

    #[test]
    fn bandwidth_override() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut gen = RequestGenerator::new(10).with_bandwidth_range(10.0, 10.0);
        let r = gen.generate(&mut rng);
        assert_eq!(r.bandwidth, 10.0);
    }
}
