// utk-lint: class=bench
//! Summary arithmetic: percentiles, the tail rule, failure share and
//! the layer residual. Kept free of I/O so it can be unit-tested.

/// Percentiles the tail rule may report, highest first, in tenths of a
/// percent (999 = p99.9).
const LADDER_PERMILLE: [u64; 4] = [999, 990, 900, 500];

/// Samples a percentile must leave above it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// How many of `n` samples lie strictly above the nearest-rank
/// percentile `permille` (tenths of a percent).
fn beyond(n: usize, permille: u64) -> usize {
    let rank = (permille * n as u64).div_ceil(1000) as usize;
    n - rank
}

/// The highest percentile (in percent) that still has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when not even the median
/// does.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER_PERMILLE
        .iter()
        .find(|&&p| beyond(n, p) >= MIN_BEYOND)
        .map(|&p| p as f64 / 10.0)
}

/// Whether `pct` (in percent) has at least [`MIN_BEYOND`] of `n`
/// samples beyond it.
pub fn supports(n: usize, pct: f64) -> bool {
    beyond(n, (pct * 10.0).round() as u64) >= MIN_BEYOND
}

/// The nearest-rank percentile `pct` of `sorted` (ascending); 0 for an
/// empty sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (total order, so NaN cannot scramble it).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The median of an unsorted sample; 0 for an empty one.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// The arithmetic mean; 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// A latency sample's tail: the highest supported percentile, its
/// value, and the sample count it rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// The percentile reported, in percent.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// How many samples the sample holds.
    pub samples: usize,
}

/// The tail of `samples` by the rule above; `None` below 20 samples.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let pct = supported_percentile(samples.len())?;
    Some(Tail {
        pct,
        value: percentile(&sorted(samples.to_vec()), pct),
        samples: samples.len(),
    })
}

/// Failed plus refused operations as a share of those attempted (0
/// when nothing was attempted).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

/// What the named layers leave unexplained of an end-to-end mean. It
/// may be negative: parallel work inside one request can sum to more
/// than its wall time.
pub fn residual(end_to_end: f64, layers: &[f64]) -> f64 {
    end_to_end - layers.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(9999), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_reports_percentile_value_and_count() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v).expect("1000 samples support p99");
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
        assert_eq!(tail(&v[..500]).map(|t| t.pct), Some(90.0));
        assert_eq!(tail(&v[..10]), None);
    }

    #[test]
    fn failed_frac_counts_against_attempts() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(0, 40), 0.0);
        assert_eq!(failed_frac(3, 12), 0.25);
    }

    #[test]
    fn residual_is_what_layers_leave() {
        assert_eq!(residual(2.0, &[0.5, 0.25, 0.25]), 1.0);
        assert_eq!(residual(1.0, &[]), 1.0);
        assert_eq!(residual(1.0, &[0.75, 0.5]), -0.25);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
