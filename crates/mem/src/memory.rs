//! Main-memory timing model.

use fusion_types::{BlockAddr, Cycle, PAGE_BYTES};

/// The Table 2 main memory: 4 channels, open-page, 200-cycle base latency,
/// 32-entry command queue per channel.
///
/// The model captures the two behaviours the evaluation is sensitive to:
/// channel-level bandwidth contention (back-to-back DMA bursts queue up)
/// and an open-page row-hit discount for streaming accesses.
///
/// # Examples
///
/// ```
/// use fusion_mem::MainMemory;
/// use fusion_types::{BlockAddr, Cycle};
///
/// let mut mem = MainMemory::table2();
/// let done = mem.access(BlockAddr::from_index(0), Cycle::new(0));
/// assert!(done >= Cycle::new(150));
/// ```
#[derive(Debug, Clone)]
pub struct MainMemory {
    channels: Vec<Channel>,
    latency: u64,
    row_hit_latency: u64,
    burst_cycles: u64,
    accesses: u64,
}

#[derive(Debug, Clone, Default)]
struct Channel {
    next_free: Cycle,
    open_row: Option<u64>,
}

impl MainMemory {
    /// Creates a memory with the given channel count and base latency.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize, latency: u64) -> Self {
        assert!(channels > 0, "memory needs at least one channel");
        MainMemory {
            channels: vec![Channel::default(); channels],
            latency,
            row_hit_latency: latency / 2,
            burst_cycles: 8, // 64 B at 8 B/cycle on the channel
            accesses: 0,
        }
    }

    /// The Table 2 configuration: 4 channels, 200-cycle latency.
    pub fn table2() -> Self {
        MainMemory::new(4, 200)
    }

    /// Performs one block access issued at `now`; returns its completion
    /// time, modeling queueing on the block's channel and open-page hits.
    pub fn access(&mut self, block: BlockAddr, now: Cycle) -> Cycle {
        let n = self.channels.len() as u64;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the channel index is below the channel count, a usize"
        )]
        let chan = (block.index() % n) as usize;
        let row = block.base().value() / PAGE_BYTES as u64;
        let channel = &mut self.channels[chan];
        let start = now.max(channel.next_free);
        let latency = if channel.open_row == Some(row) {
            self.row_hit_latency
        } else {
            channel.open_row = Some(row);
            self.latency
        };
        channel.next_free = start + self.burst_cycles;
        self.accesses += 1;
        start + latency
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

impl Default for MainMemory {
    fn default() -> Self {
        MainMemory::table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn first_access_pays_full_latency() {
        let mut m = MainMemory::table2();
        assert_eq!(m.access(b(0), Cycle::new(0)), Cycle::new(200));
        assert_eq!(m.accesses(), 1);
    }

    #[test]
    fn open_row_discount_for_streaming() {
        let mut m = MainMemory::table2();
        // Blocks 0 and 4 share channel 0 and the same 4 KiB row: the
        // second access hits the open row and pays half the latency.
        m.access(b(0), Cycle::new(0));
        let done = m.access(b(4), Cycle::new(1000));
        assert_eq!(done, Cycle::new(1100));
        // Block 64 is on channel 0 in the next row: the full latency again.
        let done = m.access(b(64), Cycle::new(2000));
        assert_eq!(done, Cycle::new(2200));
    }

    #[test]
    fn channel_contention_queues() {
        let mut m = MainMemory::new(1, 200);
        let d1 = m.access(b(0), Cycle::new(0));
        // Same channel: the second access starts only after the first's
        // burst occupies the channel for 8 cycles; it also row-hits.
        let d2 = m.access(b(1), Cycle::new(0));
        assert_eq!(d1, Cycle::new(200));
        assert_eq!(d2, Cycle::new(8 + 100));
        assert_eq!(m.accesses(), 2);
    }

    #[test]
    fn channels_are_independent() {
        let mut m = MainMemory::new(4, 200);
        let d0 = m.access(b(0), Cycle::new(0));
        let d1 = m.access(b(1), Cycle::new(0));
        // Different channels: both start immediately.
        assert_eq!(d0, Cycle::new(200));
        assert_eq!(d1, Cycle::new(200));
    }
}
