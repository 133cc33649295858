//! Histograms for simulator measurements.

use std::fmt;

/// A simple power-of-two-bucketed histogram (used for e.g. miss latency and
/// outstanding-request distributions).
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`; bucket 0 counts samples of
/// value 0 or 1.
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
    buckets: Vec<u64>,
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
        let bucket = (64 - value.max(1).leading_zeros() as usize).saturating_sub(1);
        if self.buckets.len() <= bucket {
            self.grow(bucket);
        }
        self.buckets[bucket] += 1;
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
        let bucket = (64 - value.max(1).leading_zeros() as usize).saturating_sub(1);
        if self.buckets.len() <= bucket {
            self.grow(bucket);
        }
        self.buckets[bucket] += n;
        self.count += n;
        self.sum += value * n;
        self.max = self.max.max(value);
    }

    // Extends the buckets so `bucket` exists. Taken only the first time a
    // sample lands above every earlier one, so kept out of the inlined
    // `record` path.
    #[cold]
    fn grow(&mut self, bucket: usize) {
        self.buckets.resize(bucket + 1, 0);
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

    /// Per-bucket counts: bucket `i` covers `[2^i, 2^(i+1))`.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
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
    fn histogram_bucketing() {
        let mut h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(4); // bucket 2
        h.record(1024); // bucket 10
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.count(), 6);
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
