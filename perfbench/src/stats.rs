//! Percentiles that carry their sample counts.

/// Samples that must lie beyond a tail percentile for it to count as
/// measured.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples it was taken over.
    pub n: usize,
    /// Samples ranked strictly beyond it.
    pub beyond: usize,
}

impl Percentile {
    /// The sample counts, printed beside the value.
    pub fn note(&self) -> String {
        format!("n={} beyond={}", self.n, self.beyond)
    }
}

/// The nearest-rank `pct`-th percentile (`1..=100`) of `samples`, which
/// it sorts in place; `None` for an empty set or an out-of-range `pct`.
pub fn percentile(samples: &mut [f64], pct: usize) -> Option<Percentile> {
    let n = samples.len();
    if n == 0 || !(1..=100).contains(&pct) {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (pct * n).div_ceil(100);
    Some(Percentile { value: samples[rank - 1], n, beyond: n - rank })
}

/// The p50 and p99 of `samples`. A p99 with fewer than [`MIN_BEYOND`]
/// samples beyond it is an error: the tail was not measured.
pub fn p50_p99(samples: &mut [f64]) -> Result<(Percentile, Percentile), String> {
    let p50 = percentile(samples, 50).ok_or("no samples")?;
    let p99 = percentile(samples, 99).expect("the set is non-empty");
    if p99.beyond < MIN_BEYOND {
        return Err(format!(
            "p99 over {} samples has {} beyond it; at least {MIN_BEYOND} are needed",
            p99.n, p99.beyond
        ));
    }
    Ok((p50, p99))
}

/// The median (the mean of the middle pair for an even count); NaN when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n`, `n - 1`, …, 1: unsorted on purpose.
    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_with_sample_counts() {
        let mut s = ramp(100);
        assert_eq!(percentile(&mut s, 50), Some(Percentile { value: 50.0, n: 100, beyond: 50 }));
        assert_eq!(percentile(&mut s, 99), Some(Percentile { value: 99.0, n: 100, beyond: 1 }));
        assert_eq!(percentile(&mut s, 100), Some(Percentile { value: 100.0, n: 100, beyond: 0 }));
        assert_eq!(percentile(&mut [7.0], 99), Some(Percentile { value: 7.0, n: 1, beyond: 0 }));
        assert_eq!(percentile(&mut [], 50), None);
        assert_eq!(percentile(&mut s, 0), None);
        assert_eq!(percentile(&mut s, 101), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let (p50, p99) = p50_p99(&mut ramp(1000)).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (500.0, 1000, 500));
        assert_eq!((p99.value, p99.n, p99.beyond), (990.0, 1000, 10));
        assert_eq!(p99.note(), "n=1000 beyond=10");
        let err = p50_p99(&mut ramp(999)).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(p50_p99(&mut []).is_err());
    }

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
