//! Small statistics helpers: medians, geometric means, tail percentiles.

/// Median of `values` (mean of the two middle values for even lengths).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Geometric mean of positive values. `None` for an empty slice.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// The standard percentiles a tail is reported at.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// One percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    /// Samples strictly beyond the reported percentile.
    pub beyond: usize,
    pub samples: usize,
}

/// Nearest-rank percentile `p` of `values`, or `None` when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // The smallest sample with at least p% of the samples at or below it.
    let rank = (((p / 100.0) * n as f64).ceil() as usize).max(1);
    let beyond = n.checked_sub(rank)?;
    (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
        percentile: p,
        value: v[rank - 1],
        beyond,
        samples: n,
    })
}

/// The highest percentile of [`LADDER`] that still has
/// [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn highest_tail(values: &[f64]) -> Option<Tail> {
    LADDER.iter().rev().find_map(|&p| percentile(values, p))
}

/// Largest over smallest value (1.0 for a single value). `None` when the
/// slice is empty or holds a non-positive value.
pub fn max_over_min(values: &[f64]) -> Option<f64> {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (!values.is_empty() && min > 0.0).then(|| max / min)
}

/// SplitMix64: the benchmark's own seeded generator for join-order seeds
/// and visiting orders, so inputs depend only on `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        let t = highest_tail(&v).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 285.0);
        assert_eq!(t.beyond, 15);
        assert_eq!(percentile(&v, 90.0).unwrap().value, 270.0);
        assert!(percentile(&v, 99.0).is_none());
        assert!(highest_tail(&v[..15]).is_none());
        assert_eq!(highest_tail(&v[..20]).unwrap().percentile, 50.0);
    }

    #[test]
    fn max_over_min_ratio() {
        assert_eq!(max_over_min(&[2.0, 4.0, 3.0]), Some(2.0));
        assert_eq!(max_over_min(&[]), None);
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
