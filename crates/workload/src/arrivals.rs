//! Timed workloads: Poisson arrivals with exponential holding times.
//!
//! The paper's online model offers requests in a bare sequence; the
//! dynamics extension (`nfv_online::run_dynamic`, the same online replay
//! as `run_online` with finite departure times) replays sessions that
//! also *depart*. This module generates the classic teletraffic workload
//! for it: arrivals as a Poisson process of rate `λ`, holding times
//! exponential with mean `1/μ`, giving an offered load of `λ/μ` Erlangs.

use crate::RequestGenerator;
use rand::Rng;
use sdn::MulticastRequest;

/// One generated session: the request plus its timing.
pub type TimedSession = (MulticastRequest, f64, f64);

/// Parameters of a Poisson session workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonWorkload {
    /// Arrival rate λ (sessions per unit time).
    pub arrival_rate: f64,
    /// Mean holding time `1/μ` (time units).
    pub mean_holding: f64,
}

impl PoissonWorkload {
    /// Creates a workload description.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    #[must_use]
    pub fn new(arrival_rate: f64, mean_holding: f64) -> Self {
        assert!(
            arrival_rate.is_finite() && arrival_rate > 0.0,
            "bad arrival rate {arrival_rate}"
        );
        assert!(
            mean_holding.is_finite() && mean_holding > 0.0,
            "bad mean holding time {mean_holding}"
        );
        PoissonWorkload {
            arrival_rate,
            mean_holding,
        }
    }

    /// Offered load `λ/μ` in Erlangs (mean number of concurrent
    /// sessions if everything were admitted).
    #[must_use]
    pub fn offered_load(&self) -> f64 {
        self.arrival_rate * self.mean_holding
    }

    /// Generates `count` sessions as `(request, arrival, duration)`
    /// triples in arrival order, drawing the requests from `gen`.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        gen: &mut RequestGenerator,
        count: usize,
        rng: &mut R,
    ) -> Vec<TimedSession> {
        let mut t = 0.0f64;
        (0..count)
            .map(|_| {
                t += exponential(self.arrival_rate, rng);
                let duration = exponential(1.0 / self.mean_holding, rng);
                (gen.generate(rng), t, duration)
            })
            .collect()
    }
}

/// An open-loop constant-rate workload: arrivals at a fixed cadence.
///
/// Where [`PoissonWorkload`] models stochastic teletraffic, this is the
/// load-generator shape used to measure *sustained throughput*: requests
/// arrive every `1/rate` time units regardless of how fast the system
/// under test drains them (open loop — the generator never waits for
/// admission). Holding times stay exponential so departures interleave
/// with arrivals instead of expiring in lockstep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopWorkload {
    /// Arrival rate (sessions per unit time); interarrival is `1/rate`.
    pub rate: f64,
    /// Mean holding time (time units). Session durations are drawn from
    /// Exp(1/mean); `f64::INFINITY` pins every duration to `f64::MAX`
    /// (finite, so `TimedRequest` accepts it, but far past any simulated
    /// horizon) so a run never sees departures — the pure-arrival shape
    /// throughput benchmarks want.
    pub mean_holding: f64,
}

impl OpenLoopWorkload {
    /// Creates an open-loop workload description.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite and `mean_holding`
    /// is positive (`f64::INFINITY` allowed).
    #[must_use]
    pub fn new(rate: f64, mean_holding: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "bad arrival rate {rate}");
        assert!(
            mean_holding > 0.0 && !mean_holding.is_nan(),
            "bad mean holding time {mean_holding}"
        );
        OpenLoopWorkload { rate, mean_holding }
    }

    /// Generates `count` sessions as `(request, arrival, duration)`
    /// triples at the fixed cadence, drawing the requests from `gen`.
    /// Arrivals start at `1/rate` (not 0) so time 0 is request-free.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        gen: &mut RequestGenerator,
        count: usize,
        rng: &mut R,
    ) -> Vec<TimedSession> {
        let step = 1.0 / self.rate;
        (0..count)
            .map(|i| {
                let arrival = step * (i + 1) as f64;
                let duration = if self.mean_holding.is_infinite() {
                    f64::MAX
                } else {
                    exponential(1.0 / self.mean_holding, rng)
                };
                (gen.generate(rng), arrival, duration)
            })
            .collect()
    }
}

/// Draws from Exp(rate) via inverse transform.
pub(crate) fn exponential<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn arrivals_are_increasing_and_durations_positive() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gen = RequestGenerator::new(50);
        let w = PoissonWorkload::new(2.0, 5.0);
        let sessions = w.generate(&mut gen, 100, &mut rng);
        assert_eq!(sessions.len(), 100);
        for pair in sessions.windows(2) {
            assert!(pair[1].1 > pair[0].1);
        }
        for (_, _, d) in &sessions {
            assert!(*d > 0.0);
        }
    }

    #[test]
    fn mean_interarrival_matches_rate() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut gen = RequestGenerator::new(50);
        let w = PoissonWorkload::new(4.0, 1.0);
        let sessions = w.generate(&mut gen, 4_000, &mut rng);
        let total_time = sessions.last().expect("non-empty").1;
        let rate = sessions.len() as f64 / total_time;
        assert!(
            (rate - 4.0).abs() < 0.3,
            "empirical rate {rate} far from lambda = 4"
        );
    }

    #[test]
    fn mean_holding_matches_mu() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gen = RequestGenerator::new(50);
        let w = PoissonWorkload::new(1.0, 7.0);
        let sessions = w.generate(&mut gen, 4_000, &mut rng);
        let mean: f64 = sessions.iter().map(|(_, _, d)| *d).sum::<f64>() / sessions.len() as f64;
        assert!((mean - 7.0).abs() < 0.5, "empirical mean {mean} far from 7");
    }

    #[test]
    fn offered_load_is_lambda_over_mu() {
        assert_eq!(PoissonWorkload::new(3.0, 4.0).offered_load(), 12.0);
    }

    #[test]
    #[should_panic(expected = "bad arrival rate")]
    fn rejects_zero_rate() {
        let _ = PoissonWorkload::new(0.0, 1.0);
    }

    #[test]
    fn open_loop_arrivals_are_evenly_spaced() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut gen = RequestGenerator::new(50);
        let w = OpenLoopWorkload::new(4.0, 10.0);
        let sessions = w.generate(&mut gen, 20, &mut rng);
        assert_eq!(sessions.len(), 20);
        assert_eq!(sessions[0].1, 0.25);
        for pair in sessions.windows(2) {
            assert!((pair[1].1 - pair[0].1 - 0.25).abs() < 1e-12);
        }
        for (_, _, d) in &sessions {
            assert!(*d > 0.0 && d.is_finite());
        }
    }

    #[test]
    fn open_loop_infinite_holding_never_departs() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut gen = RequestGenerator::new(50);
        let w = OpenLoopWorkload::new(2.0, f64::INFINITY);
        let sessions = w.generate(&mut gen, 10, &mut rng);
        for (_, arrival, d) in &sessions {
            assert_eq!(*d, f64::MAX);
            assert!(arrival.is_finite());
        }
    }

    #[test]
    fn open_loop_is_deterministic_given_seed() {
        let w = OpenLoopWorkload::new(8.0, 3.0);
        let a = w.generate(
            &mut RequestGenerator::new(40),
            30,
            &mut StdRng::seed_from_u64(5),
        );
        let b = w.generate(
            &mut RequestGenerator::new(40),
            30,
            &mut StdRng::seed_from_u64(5),
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "bad arrival rate")]
    fn open_loop_rejects_infinite_rate() {
        let _ = OpenLoopWorkload::new(f64::INFINITY, 1.0);
    }
}
