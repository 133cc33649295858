//! The per-accelerator scratchpad of the SCRATCH baseline.

use fusion_types::hash::FxHashMap;
use fusion_types::{BlockAddr, CACHE_BLOCK_BYTES};

/// An explicitly managed RAM holding whole cache blocks.
///
/// Unlike a cache, a scratchpad has no tags and no replacement: the DMA
/// engine decides exactly which blocks reside in it for each execution
/// window (paper Section 2.1). Accesses to non-resident blocks are *errors*
/// — the oracle DMA must have staged everything the window touches.
///
/// # Examples
///
/// ```
/// use fusion_mem::Scratchpad;
/// use fusion_types::BlockAddr;
///
/// let mut sp = Scratchpad::new(4096);
/// let b = BlockAddr::from_index(3);
/// sp.fill(b);
/// sp.write(b).unwrap();
/// assert_eq!(sp.drain_dirty(), vec![b]);
/// ```
#[derive(Debug, Clone)]
pub struct Scratchpad {
    // Hot-map audit: probed per access; the only iteration is
    // `drain_dirty`, which sorts before returning.
    resident: FxHashMap<BlockAddr, bool>, // block -> dirty
    capacity_blocks: usize,
    accesses: u64,
}

/// Error returned when an access touches a block the DMA never staged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotResidentError(pub BlockAddr);

impl std::fmt::Display for NotResidentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "block {} not resident in scratchpad", self.0)
    }
}

impl std::error::Error for NotResidentError {}

impl Scratchpad {
    /// Creates a scratchpad of `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than one cache block.
    pub fn new(capacity_bytes: usize) -> Self {
        assert!(
            capacity_bytes >= CACHE_BLOCK_BYTES,
            "scratchpad must hold at least one block"
        );
        Scratchpad {
            resident: FxHashMap::default(),
            capacity_blocks: capacity_bytes / CACHE_BLOCK_BYTES,
            accesses: 0,
        }
    }

    /// Capacity in blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// Blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.resident.len()
    }

    /// Stages `block` (DMA-in), evicting nothing: the DMA engine guarantees
    /// windows fit.
    ///
    /// # Panics
    ///
    /// Panics if the scratchpad would exceed capacity — that is a DMA
    /// windowing bug, not a runtime condition.
    pub fn fill(&mut self, block: BlockAddr) {
        if !self.resident.contains_key(&block) {
            assert!(
                self.resident.len() < self.capacity_blocks,
                "oracle DMA overfilled scratchpad ({} blocks)",
                self.capacity_blocks
            );
            self.resident.insert(block, false);
        }
    }

    /// Reads from a resident block.
    ///
    /// # Errors
    ///
    /// Returns [`NotResidentError`] if the block was never staged.
    pub fn read(&mut self, block: BlockAddr) -> Result<(), NotResidentError> {
        if self.resident.contains_key(&block) {
            self.accesses += 1;
            Ok(())
        } else {
            Err(NotResidentError(block))
        }
    }

    /// Writes to a block, marking it dirty. Writes may touch blocks that
    /// were not DMA'd in (write-allocate in place: the oracle DMA only
    /// stages read data, paper Section 4).
    ///
    /// # Errors
    ///
    /// Returns [`NotResidentError`] if allocating the block would exceed
    /// capacity.
    pub fn write(&mut self, block: BlockAddr) -> Result<(), NotResidentError> {
        if let Some(dirty) = self.resident.get_mut(&block) {
            *dirty = true;
            self.accesses += 1;
            return Ok(());
        }
        if self.resident.len() >= self.capacity_blocks {
            return Err(NotResidentError(block));
        }
        self.resident.insert(block, true);
        self.accesses += 1;
        Ok(())
    }

    /// Ends a window: removes everything and returns the dirty blocks (in
    /// deterministic address order) that the DMA must write back.
    pub fn drain_dirty(&mut self) -> Vec<BlockAddr> {
        #[expect(
            clippy::disallowed_methods,
            reason = "collect-then-sort: the sort below fixes the order"
        )]
        let mut dirty: Vec<BlockAddr> = self
            .resident
            .drain()
            .filter_map(|(b, d)| d.then_some(b))
            .collect();
        dirty.sort_unstable();
        dirty
    }

    /// Total data-array accesses performed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn fill_read_write_cycle() {
        let mut sp = Scratchpad::new(256);
        sp.fill(b(1));
        assert!(sp.read(b(1)).is_ok());
        assert!(sp.write(b(1)).is_ok());
        assert_eq!(sp.accesses(), 2);
        assert_eq!(sp.drain_dirty(), vec![b(1)]);
        assert_eq!(sp.resident_blocks(), 0);
    }

    #[test]
    fn read_of_unstaged_block_errors() {
        let mut sp = Scratchpad::new(256);
        let err = sp.read(b(9)).unwrap_err();
        assert_eq!(err, NotResidentError(b(9)));
        assert!(err.to_string().contains("not resident"));
    }

    #[test]
    fn write_allocates_in_place() {
        let mut sp = Scratchpad::new(256);
        assert!(sp.write(b(2)).is_ok());
        assert_eq!(sp.drain_dirty(), vec![b(2)]);
    }

    #[test]
    fn write_respects_capacity() {
        let mut sp = Scratchpad::new(128); // 2 blocks
        sp.fill(b(0));
        sp.fill(b(1));
        assert!(sp.write(b(2)).is_err());
    }

    #[test]
    #[should_panic(expected = "overfilled")]
    fn overfill_panics() {
        let mut sp = Scratchpad::new(64);
        sp.fill(b(0));
        sp.fill(b(1));
    }

    #[test]
    fn drain_frees_full_capacity_for_reuse() {
        // One scratchpad serves every window of a run: after a drain the
        // next window must be able to fill all of it again.
        let mut sp = Scratchpad::new(256); // 4 blocks
        for window in 0..3u64 {
            let base = window * 10;
            for i in 0..4 {
                sp.fill(b(base + i));
            }
            assert_eq!(sp.resident_blocks(), sp.capacity_blocks());
            sp.write(b(base + 1)).unwrap();
            assert!(sp.write(b(base + 9)).is_err());
            assert_eq!(sp.drain_dirty(), vec![b(base + 1)]);
            assert_eq!(sp.resident_blocks(), 0);
            assert!(sp.read(b(base)).is_err());
        }
    }

    #[test]
    fn drain_is_sorted_and_clean_blocks_skipped() {
        let mut sp = Scratchpad::new(512);
        for i in [5, 3, 8, 1] {
            sp.fill(b(i));
        }
        sp.write(b(8)).unwrap();
        sp.write(b(3)).unwrap();
        assert_eq!(sp.drain_dirty(), vec![b(3), b(8)]);
    }
}
