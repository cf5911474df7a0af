//! Adversarial request-sequence generators for the online-algorithm
//! arena.
//!
//! The Poisson/open-loop shapes in [`arrivals`](crate::PoissonWorkload)
//! are *friendly*: stationary rates, independent requests, uniform
//! destinations. Competitive analysis is motivated by exactly the
//! opposite — sequences crafted to make an online policy regret its
//! early admissions. This module provides four such regimes, all
//! deterministic given an RNG seed:
//!
//! * [`FlashCrowdWorkload`] — a stationary background punctured by a
//!   burst window at a multiplied arrival rate whose requests pile onto
//!   a small *hot* destination pool (a viral event).
//! * [`DiurnalWorkload`] — a sinusoidal arrival rate (day/night cycle)
//!   realized by thinning a peak-rate Poisson process.
//! * [`HeavyTailWorkload`] — Pareto-distributed group sizes: most
//!   requests are unicast-ish, a heavy tail spans most of the network.
//! * [`CapacityStarvedWorkload`] — fat bandwidth demands, long chains,
//!   wide groups, arrivals much faster than departures: admission under
//!   permanent scarcity, where threshold/price policies must say no.
//!
//! Every generator emits `(request, arrival, duration)` triples
//! ([`TimedSession`]) so the same sequence drives `nfv_online`'s one
//! online replay both ways: through `run_online` (timing ignored,
//! sessions never depart) and through `run_dynamic` (arrival order,
//! sessions depart at `arrival + duration`).

use crate::arrivals::exponential;
use crate::{random_chain, RequestGenerator, TimedSession};
use netgraph::NodeId;
use rand::Rng;

/// Draws `count` distinct destinations from `0..n`, excluding `source`.
fn distinct_destinations<R: Rng + ?Sized>(
    n: usize,
    source: NodeId,
    count: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let want = count.clamp(1, n.saturating_sub(1));
    let mut dests = Vec::with_capacity(want);
    let mut guard = 0;
    while dests.len() < want && guard < 100 * n {
        guard += 1;
        let d = NodeId::new(rng.gen_range(0..n));
        if d != source && !dests.contains(&d) {
            dests.push(d);
        }
    }
    dests
}

/// A flash crowd: background Poisson arrivals with a burst window at a
/// multiplied rate, whose requests all target a small hot destination
/// pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowdWorkload {
    /// Background arrival rate λ (sessions per unit time).
    pub base_rate: f64,
    /// Rate multiplier inside the burst window (≥ 1).
    pub burst_multiplier: f64,
    /// Burst window start time.
    pub burst_start: f64,
    /// Burst window length.
    pub burst_len: f64,
    /// Size of the hot destination pool burst requests converge on.
    pub hot_pool: usize,
    /// Mean exponential holding time.
    pub mean_holding: f64,
}

impl FlashCrowdWorkload {
    /// Creates a flash-crowd description.
    ///
    /// # Panics
    ///
    /// Panics unless rates, times, and the pool size are positive and
    /// finite, and `burst_multiplier >= 1`.
    #[must_use]
    pub fn new(base_rate: f64, burst_multiplier: f64, burst_start: f64, burst_len: f64) -> Self {
        assert!(base_rate.is_finite() && base_rate > 0.0, "bad base rate");
        assert!(
            burst_multiplier.is_finite() && burst_multiplier >= 1.0,
            "burst multiplier must be >= 1"
        );
        assert!(
            burst_start.is_finite()
                && burst_start >= 0.0
                && burst_len.is_finite()
                && burst_len > 0.0,
            "bad burst window"
        );
        FlashCrowdWorkload {
            base_rate,
            burst_multiplier,
            burst_start,
            burst_len,
            hot_pool: 4,
            mean_holding: 20.0,
        }
    }

    /// Overrides the hot destination pool size (≥ 2; the pool must
    /// contain a destination distinct from any source).
    #[must_use]
    pub fn with_hot_pool(mut self, pool: usize) -> Self {
        assert!(pool >= 2, "hot pool needs at least two nodes");
        self.hot_pool = pool;
        self
    }

    /// Generates `count` sessions in arrival order. Inside the burst
    /// window arrivals accelerate by `burst_multiplier` and every
    /// request's destinations are redrawn from the first `hot_pool`
    /// nodes — the correlated pile-up that punishes policies which spent
    /// that neighborhood's capacity on the background load.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        gen: &mut RequestGenerator,
        count: usize,
        rng: &mut R,
    ) -> Vec<TimedSession> {
        let n = gen.node_count();
        let pool = self.hot_pool.min(n);
        let burst_end = self.burst_start + self.burst_len;
        let mut t = 0.0f64;
        (0..count)
            .map(|_| {
                let in_burst = t >= self.burst_start && t < burst_end;
                let rate = if in_burst {
                    self.base_rate * self.burst_multiplier
                } else {
                    self.base_rate
                };
                t += exponential(rate, rng);
                let mut req = gen.generate(rng);
                if t >= self.burst_start && t < burst_end {
                    let want = req.destination_count().min(pool.saturating_sub(1)).max(1);
                    let mut hot = Vec::with_capacity(want);
                    let mut guard = 0;
                    while hot.len() < want && guard < 100 * pool {
                        guard += 1;
                        let d = NodeId::new(rng.gen_range(0..pool));
                        if d != req.source && !hot.contains(&d) {
                            hot.push(d);
                        }
                    }
                    if !hot.is_empty() {
                        req.destinations = hot;
                    }
                }
                let duration = exponential(1.0 / self.mean_holding, rng);
                (req, t, duration)
            })
            .collect()
    }
}

/// A diurnal (day/night) arrival cycle: the instantaneous rate follows
/// `peak_rate · (trough + (1 − trough) · (1 + sin(2πt/period))/2)`,
/// realized by thinning a peak-rate Poisson process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalWorkload {
    /// Peak arrival rate.
    pub peak_rate: f64,
    /// Cycle period (time units per "day").
    pub period: f64,
    /// Trough rate as a fraction of the peak, in `[0, 1]`.
    pub trough_fraction: f64,
    /// Mean exponential holding time.
    pub mean_holding: f64,
}

impl DiurnalWorkload {
    /// Creates a diurnal-cycle description.
    ///
    /// # Panics
    ///
    /// Panics unless `peak_rate`, `period`, and `mean_holding` are
    /// positive and finite and `trough_fraction ∈ [0, 1]`.
    #[must_use]
    pub fn new(peak_rate: f64, period: f64, trough_fraction: f64, mean_holding: f64) -> Self {
        assert!(peak_rate.is_finite() && peak_rate > 0.0, "bad peak rate");
        assert!(period.is_finite() && period > 0.0, "bad period");
        assert!(
            (0.0..=1.0).contains(&trough_fraction),
            "trough fraction must be in [0, 1]"
        );
        assert!(
            mean_holding.is_finite() && mean_holding > 0.0,
            "bad mean holding"
        );
        DiurnalWorkload {
            peak_rate,
            period,
            trough_fraction,
            mean_holding,
        }
    }

    /// The instantaneous arrival rate at time `t`.
    #[must_use]
    pub fn rate_at(&self, t: f64) -> f64 {
        let phase = (1.0 + (2.0 * std::f64::consts::PI * t / self.period).sin()) / 2.0;
        self.peak_rate * (self.trough_fraction + (1.0 - self.trough_fraction) * phase)
    }

    /// Generates `count` sessions in arrival order by thinning: candidate
    /// arrivals come at the peak rate and survive with probability
    /// `rate_at(t) / peak_rate`, so load swells and recedes each period.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        gen: &mut RequestGenerator,
        count: usize,
        rng: &mut R,
    ) -> Vec<TimedSession> {
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            t += exponential(self.peak_rate, rng);
            let keep: f64 = rng.gen_range(0.0..1.0);
            if keep * self.peak_rate <= self.rate_at(t) {
                let duration = exponential(1.0 / self.mean_holding, rng);
                out.push((gen.generate(rng), t, duration));
            }
        }
        out
    }
}

/// Heavy-tailed multicast group sizes: destination counts follow the
/// discrete Pareto `⌊1/u^(1/α)⌋` (clamped to `[1, |V| − 1]`), so most
/// requests are tiny but a persistent tail spans most of the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyTailWorkload {
    /// Pareto tail index α (> 0); smaller is heavier. α ≈ 1.1 gives
    /// infinite-variance group sizes.
    pub alpha: f64,
    /// Poisson arrival rate.
    pub arrival_rate: f64,
    /// Mean exponential holding time.
    pub mean_holding: f64,
}

impl HeavyTailWorkload {
    /// Creates a heavy-tail description.
    ///
    /// # Panics
    ///
    /// Panics unless all three parameters are positive and finite.
    #[must_use]
    pub fn new(alpha: f64, arrival_rate: f64, mean_holding: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "bad alpha");
        assert!(
            arrival_rate.is_finite() && arrival_rate > 0.0,
            "bad arrival rate"
        );
        assert!(
            mean_holding.is_finite() && mean_holding > 0.0,
            "bad mean holding"
        );
        HeavyTailWorkload {
            alpha,
            arrival_rate,
            mean_holding,
        }
    }

    /// Generates `count` sessions in arrival order, with group sizes
    /// redrawn from the Pareto tail (bandwidth and chain keep `gen`'s
    /// configuration).
    pub fn generate<R: Rng + ?Sized>(
        &self,
        gen: &mut RequestGenerator,
        count: usize,
        rng: &mut R,
    ) -> Vec<TimedSession> {
        let n = gen.node_count();
        let mut t = 0.0f64;
        (0..count)
            .map(|_| {
                t += exponential(self.arrival_rate, rng);
                let mut req = gen.generate(rng);
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let size = (1.0 / u.powf(1.0 / self.alpha)).floor() as usize;
                let size = size.clamp(1, n.saturating_sub(1));
                req.destinations = distinct_destinations(n, req.source, size, rng);
                let duration = exponential(1.0 / self.mean_holding, rng);
                (req, t, duration)
            })
            .collect()
    }
}

/// Permanent scarcity: fat bandwidth demands (default 150–400 Mbps
/// against the generators' usual 50–200), long chains, wide groups, and
/// arrivals an order of magnitude faster than departures. Nothing close
/// to the whole sequence can fit, so the *choice* of what to reject is
/// the entire game — the regime where threshold and pricing policies
/// must diverge from greedy ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityStarvedWorkload {
    /// Poisson arrival rate.
    pub arrival_rate: f64,
    /// Mean exponential holding time (long relative to interarrivals).
    pub mean_holding: f64,
    /// Bandwidth demand range (Mbps), fatter than the friendly default.
    pub bandwidth: (f64, f64),
    /// Service-chain length range (long chains = big computing demand).
    pub chain_len: (usize, usize),
    /// `D_max/|V|` ratio for group sizes.
    pub dmax_ratio: f64,
}

impl CapacityStarvedWorkload {
    /// Creates a capacity-starved description with the default fat
    /// demand profile.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    #[must_use]
    pub fn new(arrival_rate: f64, mean_holding: f64) -> Self {
        assert!(
            arrival_rate.is_finite() && arrival_rate > 0.0,
            "bad arrival rate"
        );
        assert!(
            mean_holding.is_finite() && mean_holding > 0.0,
            "bad mean holding"
        );
        CapacityStarvedWorkload {
            arrival_rate,
            mean_holding,
            bandwidth: (150.0, 400.0),
            chain_len: (3, 5),
            dmax_ratio: 0.3,
        }
    }

    /// Generates `count` sessions in arrival order. Requests draw their
    /// timing here and their identity from `gen`, with bandwidth, chain,
    /// and group size overridden to the starved profile.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        gen: &mut RequestGenerator,
        count: usize,
        rng: &mut R,
    ) -> Vec<TimedSession> {
        let n = gen.node_count();
        let dmax = ((self.dmax_ratio * n as f64).floor() as usize).clamp(1, n.saturating_sub(1));
        let mut t = 0.0f64;
        (0..count)
            .map(|_| {
                t += exponential(self.arrival_rate, rng);
                let mut req = gen.generate(rng);
                req.bandwidth = if self.bandwidth.0 >= self.bandwidth.1 {
                    self.bandwidth.0
                } else {
                    rng.gen_range(self.bandwidth.0..self.bandwidth.1)
                };
                let len = rng.gen_range(self.chain_len.0..=self.chain_len.1);
                req.chain = random_chain(len, rng);
                let size = rng.gen_range(1..=dmax);
                req.destinations = distinct_destinations(n, req.source, size, rng);
                let duration = exponential(1.0 / self.mean_holding, rng);
                (req, t, duration)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn well_formed(sessions: &[TimedSession]) {
        let mut prev = 0.0;
        for (req, arrival, duration) in sessions {
            assert!(*arrival > prev || (*arrival - prev).abs() < 1e-12);
            prev = *arrival;
            assert!(*duration > 0.0 && duration.is_finite());
            assert!(!req.destinations.is_empty());
            assert!(!req.destinations.contains(&req.source));
            let mut d = req.destinations.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), req.destination_count(), "duplicate destinations");
        }
    }

    #[test]
    fn flash_crowd_converges_on_hot_pool_during_burst() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gen = RequestGenerator::new(60);
        let w = FlashCrowdWorkload::new(1.0, 10.0, 20.0, 10.0).with_hot_pool(5);
        let sessions = w.generate(&mut gen, 300, &mut rng);
        well_formed(&sessions);
        let burst: Vec<_> = sessions
            .iter()
            .filter(|(_, t, _)| *t >= 20.0 && *t < 30.0)
            .collect();
        assert!(burst.len() > 50, "burst window too thin: {}", burst.len());
        for (req, _, _) in &burst {
            for d in &req.destinations {
                assert!(d.index() < 5, "burst destination outside hot pool");
            }
        }
        // Outside the burst the workload is the friendly background.
        let calm = sessions
            .iter()
            .any(|(req, t, _)| *t < 20.0 && req.destinations.iter().any(|d| d.index() >= 5));
        assert!(calm, "background traffic never left the hot pool");
    }

    #[test]
    fn diurnal_rate_cycles_between_trough_and_peak() {
        let w = DiurnalWorkload::new(8.0, 100.0, 0.25, 5.0);
        assert!((w.rate_at(25.0) - 8.0).abs() < 1e-9); // sin peak
        assert!((w.rate_at(75.0) - 2.0).abs() < 1e-9); // sin trough
        let mut rng = StdRng::seed_from_u64(2);
        let mut gen = RequestGenerator::new(60);
        let sessions = w.generate(&mut gen, 400, &mut rng);
        well_formed(&sessions);
        // Empirically, the peak half-cycle must out-arrive the trough
        // half-cycle within the first full period.
        let peak_half = sessions.iter().filter(|(_, t, _)| *t < 50.0).count();
        let trough_half = sessions
            .iter()
            .filter(|(_, t, _)| (50.0..100.0).contains(t))
            .count();
        assert!(
            peak_half > trough_half,
            "peak {peak_half} <= trough {trough_half}"
        );
    }

    #[test]
    fn heavy_tail_produces_both_tiny_and_huge_groups() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gen = RequestGenerator::new(100);
        let w = HeavyTailWorkload::new(1.1, 2.0, 5.0);
        let sessions = w.generate(&mut gen, 500, &mut rng);
        well_formed(&sessions);
        let sizes: Vec<usize> = sessions
            .iter()
            .map(|(r, _, _)| r.destination_count())
            .collect();
        let tiny = sizes.iter().filter(|&&s| s == 1).count();
        let huge = sizes.iter().filter(|&&s| s >= 20).count();
        assert!(tiny > 200, "tail not heavy toward 1: {tiny}");
        assert!(huge > 0, "no tail mass at >= 20 destinations");
        assert!(sizes.iter().all(|&s| s <= 99));
    }

    #[test]
    fn capacity_starved_demands_are_fat() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut gen = RequestGenerator::new(50);
        let w = CapacityStarvedWorkload::new(5.0, 50.0);
        let sessions = w.generate(&mut gen, 200, &mut rng);
        well_formed(&sessions);
        for (req, _, _) in &sessions {
            assert!(req.bandwidth >= 150.0 && req.bandwidth < 400.0);
            assert!(req.chain.len() >= 3 && req.chain.len() <= 5);
            assert!(req.destination_count() <= 15); // 0.3 · 50
        }
        // Offered load far exceeds unity: arrivals outpace departures.
        assert!(w.arrival_rate * w.mean_holding > 100.0);
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let fc = FlashCrowdWorkload::new(1.0, 8.0, 10.0, 5.0);
        let a = fc.generate(
            &mut RequestGenerator::new(40),
            60,
            &mut StdRng::seed_from_u64(9),
        );
        let b = fc.generate(
            &mut RequestGenerator::new(40),
            60,
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(a, b);

        let dw = DiurnalWorkload::new(4.0, 50.0, 0.2, 5.0);
        let a = dw.generate(
            &mut RequestGenerator::new(40),
            60,
            &mut StdRng::seed_from_u64(10),
        );
        let b = dw.generate(
            &mut RequestGenerator::new(40),
            60,
            &mut StdRng::seed_from_u64(10),
        );
        assert_eq!(a, b);

        let ht = HeavyTailWorkload::new(1.3, 2.0, 5.0);
        let a = ht.generate(
            &mut RequestGenerator::new(40),
            60,
            &mut StdRng::seed_from_u64(11),
        );
        let b = ht.generate(
            &mut RequestGenerator::new(40),
            60,
            &mut StdRng::seed_from_u64(11),
        );
        assert_eq!(a, b);

        let cs = CapacityStarvedWorkload::new(5.0, 50.0);
        let a = cs.generate(
            &mut RequestGenerator::new(40),
            60,
            &mut StdRng::seed_from_u64(12),
        );
        let b = cs.generate(
            &mut RequestGenerator::new(40),
            60,
            &mut StdRng::seed_from_u64(12),
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "burst multiplier")]
    fn flash_crowd_rejects_shrinking_burst() {
        let _ = FlashCrowdWorkload::new(1.0, 0.5, 0.0, 1.0);
    }
}
