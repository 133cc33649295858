//! NUCA ring timing for the shared L2.
//!
//! Table 2 describes the LLC as "4M shared 16 way, 8 tile NUCA, ring,
//! avg. 20 cycles": blocks are interleaved across eight L2 tiles connected
//! by a bidirectional ring, so the access latency depends on the ring
//! distance between the requester and the block's home tile.

use fusion_types::BlockAddr;

/// Ring-based non-uniform cache access timing.
///
/// # Examples
///
/// ```
/// use fusion_mem::NucaRing;
/// use fusion_types::BlockAddr;
///
/// let nuca = NucaRing::table2();
/// // Average over all home tiles is the configured mean (20 cycles).
/// let avg: f64 = (0..8)
///     .map(|i| nuca.latency(BlockAddr::from_index(i), 0) as f64)
///     .sum::<f64>() / 8.0;
/// assert!((avg - 20.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NucaRing {
    tiles: u64,
    /// Cycles per ring hop (request + response each traverse the ring).
    hop_cycles: u64,
    /// Fixed bank access cost at the home tile.
    bank_cycles: u64,
}

impl NucaRing {
    /// Creates a ring with `tiles` L2 tiles.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn new(tiles: u64, hop_cycles: u64, bank_cycles: u64) -> Self {
        assert!(tiles > 0, "NUCA needs at least one tile");
        NucaRing {
            tiles,
            hop_cycles,
            bank_cycles,
        }
    }

    /// The Table 2 configuration: 8 tiles on a ring averaging ~20 cycles.
    ///
    /// With round-trip hops costing 4 cycles each and a 12-cycle bank, the
    /// mean over the 8 home distances (0..=4, ring) is 12 + 4 * 2 = 20.
    pub fn table2() -> Self {
        NucaRing::new(8, 4, 12)
    }

    /// Home tile of a block (block-interleaved).
    pub fn home_tile(&self, block: BlockAddr) -> u64 {
        block.index() % self.tiles
    }

    /// Ring distance between two tile positions.
    pub fn distance(&self, a: u64, b: u64) -> u64 {
        let d = a.abs_diff(b) % self.tiles;
        d.min(self.tiles - d)
    }

    /// Round-trip access latency from `from_tile` to the block's home.
    pub fn latency(&self, block: BlockAddr, from_tile: u64) -> u64 {
        let hops = self.distance(self.home_tile(block), from_tile % self.tiles);
        self.bank_cycles + hops * self.hop_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_wraps_the_ring() {
        let n = NucaRing::table2();
        assert_eq!(n.distance(0, 0), 0);
        assert_eq!(n.distance(0, 1), 1);
        assert_eq!(n.distance(0, 7), 1);
        assert_eq!(n.distance(1, 5), 4);
        assert_eq!(n.distance(6, 2), 4);
    }

    #[test]
    fn latency_spans_near_and_far() {
        let n = NucaRing::table2();
        let near = n.latency(BlockAddr::from_index(0), 0);
        let far = n.latency(BlockAddr::from_index(4), 0);
        assert_eq!(near, 12);
        assert_eq!(far, 12 + 4 * 4);
    }

    #[test]
    fn average_matches_table2() {
        let n = NucaRing::table2();
        let avg: f64 = (0..8)
            .map(|i| n.latency(BlockAddr::from_index(i), 0) as f64)
            .sum::<f64>()
            / 8.0;
        assert!((avg - 20.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn interleaving_covers_all_tiles() {
        let n = NucaRing::table2();
        let homes: fusion_types::FxHashSet<u64> = (0..16)
            .map(|i| n.home_tile(BlockAddr::from_index(i)))
            .collect();
        assert_eq!(homes.len(), 8);
    }
}
