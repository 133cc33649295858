//! Sample summaries for simulator measurements.

use std::fmt;

/// The count, sum and maximum of a stream of samples: each accelerator
/// access's load-to-use latency, summarized as `n`, mean and max.
///
/// # Examples
///
/// ```
/// use fusion_sim::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(1);
/// h.record(5);
/// h.record(5);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.max(), 5);
/// assert!((h.mean() - 11.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Records `n` samples of the same value — equivalent to calling
    /// [`Histogram::record`] `n` times (hot loops with a constant latency,
    /// e.g. scratchpad replay, batch one call per window).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum += value * n;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} max={}",
            self.count,
            self.mean(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_summarizes_samples() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        h.record_n(7, 2);
        h.record_n(9, 0);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1048);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn histogram_empty_mean_is_zero() {
        assert_eq!(Histogram::new().mean(), 0.0);
        assert_eq!(Histogram::new().max(), 0);
    }

    #[test]
    fn histogram_display() {
        let mut h = Histogram::new();
        h.record(4);
        assert_eq!(h.to_string(), "n=1 mean=4.00 max=4");
    }
}
