//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank rule on integer percent, so the
//! sample counts below are exact (no floating-point rank rounding).

/// A reported tail percentile must have at least this many samples
/// strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `pct` in `n` samples.
fn rank(n: usize, pct: usize) -> usize {
    (n * pct).div_ceil(100).max(1)
}

/// Samples strictly beyond the `pct`-th percentile of `n` samples.
#[must_use]
pub fn beyond(n: usize, pct: usize) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// The smallest sample count whose `pct`-th percentile has at least
/// [`MIN_BEYOND`] samples beyond it — how many timed ops a run needs
/// before it may report that percentile.
///
/// # Panics
///
/// Panics if `pct` is not below 100.
#[must_use]
pub fn min_samples(pct: usize) -> usize {
    assert!(pct < 100, "the 100th percentile has nothing beyond it");
    (1..)
        .find(|&n| beyond(n, pct) >= MIN_BEYOND)
        .expect("a finite count exists")
}

/// Nearest-rank `pct`-th percentile; `NaN` for no samples.
#[must_use]
pub fn percentile(values: &[f64], pct: usize) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), pct.min(100)) - 1]
}

/// Median (mean of the middle pair for even counts); `NaN` for no
/// samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; `NaN` for no samples.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
