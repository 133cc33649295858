//! NUCA ring timing for the shared L2.
//!
//! Table 2 describes the LLC as "4M shared 16 way, 8 tile NUCA, ring,
//! avg. 20 cycles": blocks are interleaved across eight L2 tiles connected
//! by a bidirectional ring, so the access latency depends on the ring
//! distance between the requester and the block's home tile.

use fusion_types::BlockAddr;

/// L2 tiles on the ring.
const TILES: u64 = 8;
/// Cycles per ring hop (request + response each traverse the ring).
const HOP_CYCLES: u64 = 4;
/// Mean ring distance to a block's home over the 8 tiles: 0, 1, 2, 3, 4,
/// 3, 2, 1 hops.
const MEAN_HOPS: u64 = 2;

/// Ring-based non-uniform cache access timing.
///
/// # Examples
///
/// ```
/// use fusion_mem::NucaRing;
/// use fusion_types::BlockAddr;
///
/// let nuca = NucaRing::new(20);
/// // Average over all home tiles is the configured mean (20 cycles).
/// let avg: f64 = (0..8)
///     .map(|i| nuca.latency(BlockAddr::from_index(i), 0) as f64)
///     .sum::<f64>() / 8.0;
/// assert!((avg - 20.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NucaRing {
    /// Fixed bank access cost at the home tile.
    bank_cycles: u64,
}

impl NucaRing {
    /// The ring's share of the mean access latency (8 cycles): a mean
    /// below it leaves no time for the bank.
    pub const MEAN_HOP_CYCLES: u64 = HOP_CYCLES * MEAN_HOPS;

    /// Creates the ring whose latency, averaged over the home tiles, is
    /// `mean_latency` (Table 2: 20 cycles, a 12-cycle bank).
    ///
    /// # Panics
    ///
    /// Panics if `mean_latency` is below [`NucaRing::MEAN_HOP_CYCLES`].
    pub fn new(mean_latency: u64) -> Self {
        assert!(
            mean_latency >= Self::MEAN_HOP_CYCLES,
            "the mean L2 latency must cover the mean ring hops"
        );
        NucaRing {
            bank_cycles: mean_latency - Self::MEAN_HOP_CYCLES,
        }
    }

    /// Home tile of a block (block-interleaved).
    pub fn home_tile(&self, block: BlockAddr) -> u64 {
        block.index() % TILES
    }

    /// Ring distance between two tile positions.
    pub fn distance(&self, a: u64, b: u64) -> u64 {
        let d = a.abs_diff(b) % TILES;
        d.min(TILES - d)
    }

    /// Round-trip access latency from `from_tile` to the block's home.
    pub fn latency(&self, block: BlockAddr, from_tile: u64) -> u64 {
        let hops = self.distance(self.home_tile(block), from_tile % TILES);
        self.bank_cycles + hops * HOP_CYCLES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_wraps_the_ring() {
        let n = NucaRing::new(20);
        assert_eq!(n.distance(0, 0), 0);
        assert_eq!(n.distance(0, 1), 1);
        assert_eq!(n.distance(0, 7), 1);
        assert_eq!(n.distance(1, 5), 4);
        assert_eq!(n.distance(6, 2), 4);
    }

    #[test]
    fn latency_spans_near_and_far() {
        let n = NucaRing::new(20);
        let near = n.latency(BlockAddr::from_index(0), 0);
        let far = n.latency(BlockAddr::from_index(4), 0);
        assert_eq!(near, 12);
        assert_eq!(far, 12 + 4 * 4);
    }

    #[test]
    fn average_is_the_configured_mean() {
        for mean in [NucaRing::MEAN_HOP_CYCLES, 20, 37] {
            let n = NucaRing::new(mean);
            for from in 0..8 {
                let total: u64 = (0..8)
                    .map(|i| n.latency(BlockAddr::from_index(i), from))
                    .sum();
                assert_eq!(total, 8 * mean, "mean {mean} from tile {from}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "mean ring hops")]
    fn a_mean_below_the_ring_cost_panics() {
        NucaRing::new(NucaRing::MEAN_HOP_CYCLES - 1);
    }

    #[test]
    fn interleaving_covers_all_tiles() {
        let n = NucaRing::new(20);
        let homes: fusion_types::FxHashSet<u64> = (0..16)
            .map(|i| n.home_tile(BlockAddr::from_index(i)))
            .collect();
        assert_eq!(homes.len(), 8);
    }
}
