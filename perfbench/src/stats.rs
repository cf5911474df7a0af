//! Order statistics for the benchmark's reports.

use std::time::Instant;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; below that, one host stall sets its value.
pub const MIN_TAIL: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`, or `None`
/// when fewer than [`MIN_TAIL`] samples lie beyond it.
///
/// # Panics
///
/// Panics if `q` is outside `(0, 1)` or a sample is NaN.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile must lie in (0, 1)");
    let n = samples.len();
    // 1-based nearest rank; the samples beyond it are the `n - rank`
    // larger ones.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_TAIL {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    Some(v[rank - 1])
}

/// The median, taken apart for each position, of several passes' values
/// for the same stream: `rows[p][i]` is pass `p`'s value for decision `i`.
///
/// The host slows down in phases of a second or two; a decision's median
/// over many passes is its cost in the host's usual state, whichever
/// phases hit single passes.
///
/// # Panics
///
/// Panics if there are no rows or they differ in length.
#[must_use]
pub fn per_index_median(rows: &[Vec<f64>]) -> Vec<f64> {
    assert!(!rows.is_empty(), "no passes");
    let n = rows[0].len();
    assert!(
        rows.iter().all(|r| r.len() == n),
        "passes over different streams"
    );
    (0..n)
        .map(|i| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Runs `build` several times and returns the last product with the
/// per-build wall times in seconds. At least `min_builds` builds run, and
/// more follow (up to `max_builds`) while the total stays under
/// `budget_s`, so a cheap set-up is sampled often enough that its median
/// is not set by one host stall.
pub fn timed_builds<T>(
    min_builds: usize,
    max_builds: usize,
    budget_s: f64,
    mut build: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    assert!(min_builds >= 1 && max_builds >= min_builds);
    let mut times = Vec::new();
    let mut spent = 0.0;
    loop {
        let t = Instant::now();
        let product = std::hint::black_box(build());
        let dt = t.elapsed().as_secs_f64();
        times.push(dt);
        spent += dt;
        let more = times.len() < min_builds || (times.len() < max_builds && spent < budget_s);
        if !more {
            return (product, times);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples beyond.
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        // Rank 91 leaves nine: refused.
        assert_eq!(percentile(&samples, 0.91), None);
        // 99 samples: rank 90 leaves nine beyond.
        assert_eq!(percentile(&samples[..99], 0.9), None);
        // p99 needs a thousand samples.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(990.0));
        assert_eq!(percentile(&big[..999], 0.99), None);
    }

    #[test]
    fn percentile_ignores_sample_order() {
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 0.9), Some(180.0));
    }

    #[test]
    fn setup_time_is_the_median_of_builds() {
        // Builds of 1, 50 and 2 ms: the stalled middle build does not set
        // the median.
        let delays = [1u64, 50, 2];
        let mut i = 0;
        let (last, times) = timed_builds(3, 3, 0.0, || {
            std::thread::sleep(std::time::Duration::from_millis(delays[i]));
            i += 1;
            i
        });
        assert_eq!(last, 3);
        assert_eq!(times.len(), 3);
        let m = median(&times);
        assert!((0.002..0.040).contains(&m), "median {m}");
    }

    #[test]
    fn median_is_taken_per_decision() {
        // A slow phase over decision 1 of the second pass and decision 2 of
        // the third does not move either decision's median.
        let rows = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 9.0, 4.0],
            vec![3.5, 1.5, 40.0],
        ];
        assert_eq!(per_index_median(&rows), [3.0, 1.5, 5.0]);
        assert_eq!(per_index_median(&rows[..1]), rows[0]);
    }

    #[test]
    #[should_panic(expected = "different streams")]
    fn median_needs_equal_passes() {
        let _ = per_index_median(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn builds_continue_within_budget() {
        let (_, times) = timed_builds(2, 7, 10.0, || 0);
        assert_eq!(times.len(), 7);
        let (_, times) = timed_builds(2, 7, 0.0, || 0);
        assert_eq!(times.len(), 2);
    }
}
