//! Bank-conflict timing for multi-banked caches.

use fusion_types::{BlockAddr, Cycle};

/// Tracks per-bank busy time for a block-interleaved banked cache.
///
/// The shared L1X is 16-banked (Table 2); two same-cycle accesses to the
/// same bank serialize, accesses to different banks proceed in parallel.
/// `BankedTiming` models exactly that: each access occupies its bank for
/// `occupancy` cycles and the caller learns when the access actually starts.
///
/// # Examples
///
/// ```
/// use fusion_mem::BankedTiming;
/// use fusion_types::{BlockAddr, Cycle};
///
/// let mut banks = BankedTiming::new(2, 2);
/// let b0 = BlockAddr::from_index(0);
/// let start1 = banks.issue(b0, Cycle::new(10));
/// let start2 = banks.issue(b0, Cycle::new(10)); // same bank: serializes
/// assert_eq!(start1, Cycle::new(10));
/// assert_eq!(start2, Cycle::new(12));
/// ```
#[derive(Debug, Clone)]
pub struct BankedTiming {
    next_free: Vec<Cycle>,
    occupancy: u64,
}

impl BankedTiming {
    /// Creates timing state for `banks` banks, each busy for `occupancy`
    /// cycles per access.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(banks: usize, occupancy: u64) -> Self {
        assert!(banks > 0, "need at least one bank");
        BankedTiming {
            next_free: vec![Cycle::ZERO; banks],
            occupancy: occupancy.max(1),
        }
    }

    /// Issues an access for `block` at time `now`; returns the cycle the
    /// access actually starts (>= `now`).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the bank index is below the bank count, a usize"
    )]
    pub fn issue(&mut self, block: BlockAddr, now: Cycle) -> Cycle {
        // Hot-path note: bank counts are powers of two throughout the design
        // space, where the mask equals the modulo; `%` covers the rest.
        let banks = self.next_free.len() as u64;
        let bank = if banks.is_power_of_two() {
            (block.index() & (banks - 1)) as usize
        } else {
            (block.index() % banks) as usize
        };
        let start = now.max(self.next_free[bank]);
        self.next_free[bank] = start + self.occupancy;
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_banks_run_in_parallel() {
        let mut t = BankedTiming::new(4, 4);
        let now = Cycle::new(100);
        for i in 0..4 {
            assert_eq!(t.issue(BlockAddr::from_index(i), now), now);
        }
    }

    #[test]
    fn same_bank_serializes() {
        let mut t = BankedTiming::new(4, 4);
        let now = Cycle::new(0);
        let b = BlockAddr::from_index(5);
        assert_eq!(t.issue(b, now), Cycle::new(0));
        assert_eq!(t.issue(b, now), Cycle::new(4));
        assert_eq!(t.issue(b, now), Cycle::new(8));
    }

    #[test]
    fn idle_bank_does_not_delay() {
        let mut t = BankedTiming::new(1, 2);
        let b = BlockAddr::from_index(0);
        t.issue(b, Cycle::new(0));
        // Long after the bank freed up.
        assert_eq!(t.issue(b, Cycle::new(50)), Cycle::new(50));
    }
}
