//! The workspace's one seedable pseudo-random generator.

/// splitmix64, the standard 64-bit state-advance mixer: the generator
/// behind seeded fault plans, perf's run order and the property tests.
/// The state is public so a stream can be started from any seed.
///
/// # Examples
///
/// ```
/// use fusion_types::SplitMix64;
///
/// let (mut a, mut b) = (SplitMix64(42), SplitMix64(42));
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_eq!(xs.iter().collect::<crate::FxHashSet<_>>().len(), 8);
        assert_ne!(SplitMix64(43).next_u64(), xs[0]);
    }
}
