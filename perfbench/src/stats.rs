//! Order statistics and request accounting for the benchmark's reports.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A nearest-rank percentile of a sorted sample, with the sample size and
/// how many samples lie strictly beyond the reported rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending `sorted` sample:
/// the smallest value with at least `q · n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let n = sorted.len();
    let rank = nearest_rank(n, q);
    Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// 1-based nearest rank of the `q`-quantile in a sample of `n`. `q · n` is
/// taken in integer per-mille arithmetic, so 0.99 · 1000 is 990, not
/// 990.0000000000001.
fn nearest_rank(n: usize, q: f64) -> usize {
    let per_mille = (q * 1000.0).round() as usize;
    (per_mille * n).div_ceil(1000).max(1)
}

/// Smallest sample size whose nearest-rank `q`-quantile has at least
/// `beyond` samples past it.
pub fn samples_for_tail(q: f64, beyond: usize) -> usize {
    (beyond.max(1)..)
        .find(|&n| n - nearest_rank(n, q) >= beyond)
        .expect("some sample size leaves room past any quantile below 1")
}

/// Outcome tally of a closed-loop load run. Every response other than a
/// `200` counts as failed, split by the statuses the server can send under
/// load; transport errors are counted apart from HTTP failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub attempted: u64,
    pub ok: u64,
    pub shed_429: u64,
    pub busy_503: u64,
    pub timeout_504: u64,
    pub other_status: u64,
    pub io_errors: u64,
}

impl Outcomes {
    /// Records one finished attempt: `Some(status)` for an HTTP response,
    /// `None` for a transport failure.
    pub fn record(&mut self, status: Option<u16>) {
        self.attempted += 1;
        match status {
            Some(200) => self.ok += 1,
            Some(429) => self.shed_429 += 1,
            Some(503) => self.busy_503 += 1,
            Some(504) => self.timeout_504 += 1,
            Some(_) => self.other_status += 1,
            None => self.io_errors += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    pub fn merge(&mut self, other: &Outcomes) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.shed_429 += other.shed_429;
        self.busy_503 += other.busy_503;
        self.timeout_504 += other.timeout_504;
        self.other_status += other.other_status;
        self.io_errors += other.io_errors;
    }
}

/// SplitMix64: derives independent, reproducible sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let p = percentile(&ramp(1000), 0.99);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.samples, 1000);
        assert_eq!(p.beyond, 10);
        let p50 = percentile(&ramp(1000), 0.5);
        assert_eq!(p50.value, 500.0);
        assert_eq!(p50.beyond, 500);
        // Ranks round up: 0.99 · 999 = 989.01 → rank 990.
        assert_eq!(percentile(&ramp(999), 0.99).beyond, 9);
        // The maximum is the 100th percentile with nothing beyond it.
        let max = percentile(&ramp(5), 1.0);
        assert_eq!((max.value, max.beyond), (5.0, 0));
        // One sample: every quantile is that sample.
        assert_eq!(percentile(&[42.0], 0.01).value, 42.0);
    }

    #[test]
    fn tail_sample_size() {
        assert_eq!(samples_for_tail(0.99, 10), 1000);
        assert_eq!(samples_for_tail(0.5, 10), 20);
        assert!(percentile(&ramp(samples_for_tail(0.99, 10) - 1), 0.99).beyond < 10);
    }

    #[test]
    fn outcomes_count_each_failure_class() {
        let mut o = Outcomes::default();
        for s in [
            Some(200),
            Some(200),
            Some(429),
            Some(503),
            Some(504),
            Some(500),
            None,
        ] {
            o.record(s);
        }
        assert_eq!(o.attempted, 7);
        assert_eq!(o.ok, 2);
        assert_eq!(
            (
                o.shed_429,
                o.busy_503,
                o.timeout_504,
                o.other_status,
                o.io_errors
            ),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(o.failed(), 5);
        let mut total = Outcomes::default();
        total.merge(&o);
        total.merge(&o);
        assert_eq!(total.attempted, 14);
        assert_eq!(total.failed(), 10);
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }
}
