//! The benchmark's statistics: nearest-rank percentiles, geometric means,
//! the pooled normalised tail, the quiet-host percentile the end-to-end
//! timings are read at, and the quartile spread of repeated runs.

/// How many samples must lie beyond a percentile before it is reported
/// without a warning (choosing-metrics guide, section 1).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice (`q` in [0, 1]);
/// `0.0` on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Ascending copy of `values` (all values the benchmark records are finite).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of unsorted values; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive values; `0.0` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Whether at least [`MIN_BEYOND`] of `samples` lie beyond percentile `q`.
pub fn tail_supported(samples: usize, q: f64) -> bool {
    ((samples as f64) * (1.0 - q)).floor() as usize >= MIN_BEYOND
}

/// The share of a window taken to be undisturbed: timings are read at this
/// percentile (rates at its complement).
///
/// The sandbox is a microVM on a shared host.  Once the host's clock level is
/// divided out (see [`crate::clock`]), what is left is a neighbour on the
/// sibling hyperthread or in the shared caches: op times of every class move
/// up together by a factor 1.5 to 2.2 for a few seconds at a time, and how
/// much of a window that takes varies from none to most of it.  Interference
/// only ever slows an operation down, so the quietest twentieth of a window
/// reads the code's own cost as long as a twentieth of the window was quiet,
/// where a whole-window statistic moves with the neighbours from run to run.
pub const QUIET_Q: f64 = 0.05;

/// [`QUIET_Q`] percentile of each non-empty class.
pub fn quiet_times(classes: &[Vec<f64>]) -> Vec<f64> {
    classes
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| percentile(&sorted(c), QUIET_Q))
        .collect()
}

/// Geometric mean over non-empty classes of the class median — classes
/// differ by orders of magnitude, so their medians are combined as ratios.
/// `None` without samples.
pub fn centre(classes: &[Vec<f64>]) -> Option<f64> {
    let medians: Vec<f64> = classes
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| median(c))
        .collect();
    (!medians.is_empty()).then(|| geomean(&medians))
}

/// `q` percentile of (sample ÷ its class median), pooled over classes so
/// that [`MIN_BEYOND`] samples lie beyond the percentile even when one
/// class alone has too few; with the number of samples pooled.
pub fn pooled_tail(classes: &[Vec<f64>], q: f64) -> (f64, usize) {
    let mut ratios = Vec::new();
    for class in classes.iter().filter(|c| !c.is_empty()) {
        let m = median(class).max(1e-300);
        ratios.extend(class.iter().map(|s| s / m));
    }
    (percentile(&sorted(&ratios), q), ratios.len())
}

/// `(max − min) / median` of a metric's readings over repeated runs; `0.0`
/// when the median is zero (an exact count that never moved).
pub fn relative_range(values: &[f64]) -> f64 {
    let s = sorted(values);
    let (Some(lo), Some(hi)) = (s.first(), s.last()) else {
        return 0.0;
    };
    let m = percentile(&s, 0.5);
    if m == 0.0 {
        0.0
    } else {
        (hi - lo) / m.abs()
    }
}

/// The quartiles of at least two readings, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's acceptance
/// statistic): the value at position `i·(n+1)/4` of the sorted readings,
/// interpolated linearly.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need two readings");
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// `(Q3 − Q1) / median` over repeated runs; `0.0` when the median is zero.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed yields the same inputs and tenant order.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.95), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 190.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 100.0, 2.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_time_reads_the_undisturbed_level() {
        // A class that ran 10 % of the window on the fast level, 70 % on a
        // 1.28x slower one and 20 % on a 1.9x slower one: the median sits on
        // the slower level, the quiet time on the fast one.
        let mut ops = vec![0.74; 20];
        ops.extend(vec![0.95; 140]);
        ops.extend(vec![1.4; 40]);
        assert_eq!(median(&ops), 0.95);
        assert_eq!(quiet_times(&[ops, Vec::new()]), vec![0.74]);
    }

    #[test]
    fn centre_is_scale_free() {
        let fast = vec![1.0, 2.0, 3.0];
        let slow = vec![1000.0, 2000.0, 3000.0];
        let c = centre(&[fast, slow, Vec::new()]).unwrap();
        assert!((c - (2.0f64 * 2000.0).sqrt()).abs() < 1e-9);
        assert_eq!(centre(&[Vec::new()]), None);
    }

    #[test]
    fn pooled_tail_is_scale_free_across_classes() {
        // Two classes a factor 1000 apart with the same relative shape: the
        // tail ratio is that shape's, not the slow class's.
        let shape: Vec<f64> = (0..100).map(|i| 1.0 + i as f64 / 100.0).collect();
        let slow: Vec<f64> = shape.iter().map(|s| s * 1000.0).collect();
        let (both, n) = pooled_tail(&[shape.clone(), slow, Vec::new()], 0.95);
        let (alone, _) = pooled_tail(&[shape], 0.95);
        assert_eq!(n, 200);
        assert!((both - alone).abs() < 1e-9);
        assert!(both > 1.0 && both < 1.4);
    }

    #[test]
    fn tail_guard_needs_ten_samples_beyond() {
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(199, 0.95));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(0, 0.5));
    }

    #[test]
    fn relative_range_against_the_median() {
        assert!((relative_range(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(relative_range(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(relative_range(&[0.0, 0.0]), 0.0);
        assert_eq!(relative_range(&[]), 0.0);
    }

    #[test]
    fn quartiles_are_pythons() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4): extrapolated beyond the data
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4)
        assert_eq!(
            quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            [15.0, 40.0, 120.0]
        );
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn splitmix_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64(8);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((0..100).all(|_| SplitMix64(3).below(4) < 4));
        let mut order = [0, 1, 2, 3];
        let mut r = SplitMix64(5);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            r.shuffle(&mut order);
            seen.insert(order);
            let mut sorted = order;
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3]);
        }
        assert_eq!(seen.len(), 24, "every order of four tenants turns up");
    }
}
