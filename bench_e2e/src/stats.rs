//! Order statistics, the open-loop schedule and the Zipf sampler.

use std::time::Duration;

use rand::{Rng, StdRng};

/// Percentiles the picker chooses among, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile needs beyond it before the picker reports it.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float noise (99.9 / 100 * 10_000 = 9990.000…2)
    // from bumping an exact rank up by one.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of the ladder (p50, p90, p99, p99.9, p99.99)
/// with at least ten samples beyond it, or `None` when `n` cannot
/// support even the median that way.
#[must_use]
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n.saturating_sub(rank(n, p)) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// (Python's `statistics.quantiles(values, n=4)` default). A single
/// sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// A sample's summary as the benchmark reports it: count, median, the
/// highest supported percentile and the quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest percentile with ≥ 10 samples beyond it, if any.
    pub top: Option<(f64, f64)>,
    /// First quartile, median, third quartile.
    pub quartiles: [f64; 3],
}

impl Summary {
    /// Summarizes `values` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let top = supported_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p)));
        Self {
            n: sorted.len(),
            p50: median(&sorted),
            top,
            quartiles: quartiles(&sorted),
        }
    }
}

/// A fixed-rate open-loop schedule: request `i` is due `i / rate`
/// seconds after the schedule starts, whatever happened to earlier
/// requests.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval: Duration,
}

impl Schedule {
    /// A schedule of `rate` requests per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite.
    #[must_use]
    pub fn per_second(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Self {
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `i` is due, relative to the schedule's start.
    #[must_use]
    pub fn due(&self, i: u64) -> Duration {
        self.interval * u32::try_from(i).expect("schedule index fits u32")
    }

    /// How late request `i` went out if it was sent at `sent` (relative
    /// to the schedule's start); zero when on time or early.
    #[must_use]
    pub fn lateness(&self, i: u64, sent: Duration) -> Duration {
        sent.saturating_sub(self.due(i))
    }
}

/// A Zipf(`exponent`) sampler over ranks `0..n` (rank 0 most likely),
/// by inverse transform over the cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf over no ranks");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn picker_demands_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(percentile(&sorted, 100.0), 1000.0);
        let s = Summary::of(&sorted);
        assert_eq!(s.top, Some((99.0, 990.0)));
        assert_eq!(s.n, 1000);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn open_loop_lateness_counts_from_the_due_time() {
        let schedule = Schedule::per_second(1_000.0);
        assert_eq!(schedule.due(0), Duration::ZERO);
        assert_eq!(schedule.due(5), Duration::from_millis(5));
        // On time and early sends are not late.
        assert_eq!(
            schedule.lateness(5, Duration::from_millis(5)),
            Duration::ZERO
        );
        assert_eq!(
            schedule.lateness(5, Duration::from_millis(4)),
            Duration::ZERO
        );
        // A 10 ms stall after request 0 makes every request due during
        // the stall late by what remains of it.
        let resume = Duration::from_millis(10);
        for i in 1..10u64 {
            assert_eq!(
                schedule.lateness(i, resume),
                Duration::from_millis(10 - i),
                "request {i}"
            );
        }
        assert_eq!(schedule.lateness(10, resume), Duration::ZERO);
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let zipf = Zipf::new(64, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..2_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
        let sample = draw(9);
        assert!(sample.iter().all(|&r| r < 64));
        let count = |r| sample.iter().filter(|&&x| x == r).count();
        assert!(count(0) > count(1) && count(1) > count(10));
        // Rank 0 carries 1/H_64 ≈ 21% of the mass.
        let share = count(0) as f64 / sample.len() as f64;
        assert!((share - 0.21).abs() < 0.03, "rank-0 share {share}");
    }
}
