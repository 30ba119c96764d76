//! Sample statistics, the seeded arrival schedule and the metric-name rule.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least a `q` share of the sample at or below it. `None` for an
/// empty sample or a `q` outside `[0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether a sample of `n` supports reporting its `q` quantile: at least
/// [`MIN_BEYOND`] samples must lie above the nearest-rank position.
pub fn supports(n: usize, q: f64) -> bool {
    let rank = ((q * n as f64).ceil() as usize).max(1);
    n.saturating_sub(rank) >= MIN_BEYOND
}

/// Sorts `values` and returns its `q` quantile, or an error naming `what`
/// when the sample is too small to support it.
pub fn quantile(values: &[f64], q: f64, what: &str) -> Result<f64, String> {
    if q > 0.5 && !supports(values.len(), q) {
        return Err(format!(
            "{what}: {} samples cannot support the {q} quantile (need {MIN_BEYOND} beyond it)",
            values.len()
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, q).ok_or_else(|| format!("{what}: empty sample"))
}

/// Median of a non-empty sample (nearest rank, so always a measured value).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5, "median").unwrap_or(0.0)
}

/// Mean of a sample, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Completion rates of `segments` consecutive, equal-count runs of the
/// completion times `times_s` (seconds, any order). The median of these is
/// a throughput that a transient stall of the machine moves by one
/// segment's worth at most.
pub fn segment_rates(times_s: &[f64], segments: usize) -> Vec<f64> {
    let mut t = times_s.to_vec();
    t.sort_by(f64::total_cmp);
    if t.len() < 2 || segments == 0 {
        return Vec::new();
    }
    let last = t.len() - 1;
    let bounds: Vec<usize> = (0..=segments).map(|k| k * last / segments).collect();
    bounds
        .windows(2)
        .filter(|b| b[1] > b[0] && t[b[1]] > t[b[0]])
        .map(|b| (b[1] - b[0]) as f64 / (t[b[1]] - t[b[0]]))
        .collect()
}

/// SplitMix64: a small, fully specified generator, so that a seed means
/// the same inputs whatever the versions of the crates under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Send times, in seconds from the start, of the first `count` arrivals of
/// a Poisson process at `rate` per second. The count is fixed rather than
/// cut at a duration, so every seed sends the same number of requests.
/// Deterministic per seed.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    let mut rng = SplitMix::new(seed);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            // Exponential gap; 1 - u lies in (0, 1], so the log is finite.
            t += -(1.0 - rng.unit()).ln() / rate;
            t
        })
        .collect()
}

/// A metric name: starts with a letter or digit, at most 64 characters of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&s, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 0.5), Some(7.0));
        assert_eq!(nearest_rank(&[1.0, 2.0], 0.5), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&s, 1.5), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000: rank 990, ten above it.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
        assert!(quantile(&[1.0; 500], 0.99, "x").is_err());
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5, "x"), Ok(2.0));
    }

    #[test]
    fn segment_rates_split_by_count() {
        // 101 completions 10 ms apart, then a 1 s stall, then 100 more.
        let mut t: Vec<f64> = (0..=100).map(|i| f64::from(i) * 0.01).collect();
        t.extend((1..=100).map(|i| 2.0 + f64::from(i) * 0.01));
        t.reverse();
        let rates = segment_rates(&t, 4);
        assert_eq!(rates.len(), 4);
        let near = |a: f64, b: f64| (a - b).abs() < 1e-6 * b;
        assert!(near(rates[0], 100.0) && near(rates[3], 100.0), "{rates:?}");
        // Only the segment holding the stall is slow, so the median holds.
        assert_eq!(rates.iter().filter(|&&r| r < 50.0).count(), 1);
        assert!(near(median(&rates), 100.0));
        assert!(segment_rates(&[1.0], 4).is_empty());
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_stated_rate() {
        let a = poisson_schedule(11, 150.0, 300_000);
        assert_eq!(a, poisson_schedule(11, 150.0, 300_000));
        assert_ne!(a, poisson_schedule(12, 150.0, 300_000));
        assert_eq!(a.len(), 300_000);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a[0] > 0.0);
        // 300 000 arrivals take 2000 s on average; the last arrival time has
        // a standard deviation of ~3.7 s, so 1% (20 s) is well outside chance.
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 150.0).abs() < 1.5, "rate {rate}");
        // Exponential gaps: the mean gap is 1/rate and the share of gaps
        // shorter than the mean is 1 - 1/e.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let short = gaps.iter().filter(|&&g| g < 1.0 / 150.0).count() as f64;
        let share = short / gaps.len() as f64;
        assert!(
            (share - (1.0 - (-1.0f64).exp())).abs() < 0.01,
            "share {share}"
        );
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in [
            "setup_s",
            "stage.table3_mnist_s",
            "p50_ms",
            "9lives",
            "a-b.c",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "rps%",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }
}
