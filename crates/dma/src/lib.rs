//! The oracle coherent DMA engine of the SCRATCH baseline.
//!
//! Industry SCRATCH-style systems (ARM ACP, IBM PowerBus — paper Section
//! 2.1) stage data into per-accelerator scratchpads with a coherent DMA
//! engine that reads the most-up-to-date data from the shared LLC. The
//! paper's evaluation assumes a particularly **aggressive oracle**: the DMA
//! operations are auto-generated from the dynamic trace, moving exactly the
//! read-before-written blocks in and exactly the dirty blocks out, with the
//! controller residing at the host LLC (no request-issue overhead).
//!
//! [`DmaController`] times each block of a window transfer — command
//! issue, LLC fetch, link serialization — with the LLC pipeline overlapped
//! against the link, and accumulates the transfer statistics reported in
//! the Figure 6d table (DMA kB, transfer counts).

use fusion_types::{BlockAddr, Bytes, Cycle, LinkConfig, CACHE_BLOCK_BYTES};

/// Direction of a DMA window transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaDirection {
    /// LLC → scratchpad (staging a window's read data).
    In,
    /// Scratchpad → LLC (writing back a window's dirty data).
    Out,
}

/// Summary of one window transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaTransfer {
    /// Completion time of the last block.
    pub done_at: Cycle,
    /// Blocks moved.
    pub blocks: usize,
    /// Bytes moved.
    pub bytes: Bytes,
    /// Direction of the transfer.
    pub direction: DmaDirection,
}

/// The oracle DMA controller.
///
/// # Examples
///
/// ```
/// use fusion_dma::{DmaController, DmaDirection};
/// use fusion_types::{BlockAddr, Cycle, LinkConfig};
///
/// let link = LinkConfig { pj_per_byte: 6.0, latency: 8, bytes_per_cycle: 8 };
/// let mut dma = DmaController::new(link);
/// let blocks = [BlockAddr::from_index(0), BlockAddr::from_index(1)];
/// // LLC supplies each block 20 cycles after it is requested:
/// let t = dma.transfer(&blocks, DmaDirection::In, Cycle::new(0), |_b, at| at + 20);
/// assert_eq!(t.blocks, 2);
/// assert!(t.done_at > Cycle::new(20));
/// ```
#[derive(Debug, Clone)]
pub struct DmaController {
    link: LinkConfig,
    /// Descriptor decode / command processing cycles per block.
    command_overhead: u64,
    /// Coherent-port occupancy per block beyond the raw transfer: the
    /// ACP/PowerBus-style snoop port holds the block's read/write for the
    /// LLC round trip, so back-to-back blocks cannot stream at pure link
    /// bandwidth.
    port_occupancy: u64,
    transfers: u64,
    blocks_in: u64,
    blocks_out: u64,
}

impl DmaController {
    /// Creates a controller using `link` between the LLC and the
    /// scratchpads.
    pub fn new(link: LinkConfig) -> Self {
        DmaController {
            link,
            command_overhead: 2,
            port_occupancy: 14,
            transfers: 0,
            blocks_in: 0,
            blocks_out: 0,
        }
    }

    /// Moves `blocks` in the given direction starting at `start`.
    ///
    /// `llc_access` is invoked once per block with the time the command
    /// reaches the LLC and must return when the LLC (or memory) produced /
    /// accepted the data — the host-side MESI/L2 model supplies this.
    /// LLC fetches are pipelined; the link serializes one block at a time.
    pub fn transfer(
        &mut self,
        blocks: &[BlockAddr],
        direction: DmaDirection,
        start: Cycle,
        mut llc_access: impl FnMut(BlockAddr, Cycle) -> Cycle,
    ) -> DmaTransfer {
        if blocks.is_empty() {
            return DmaTransfer {
                done_at: start,
                blocks: 0,
                bytes: Bytes::ZERO,
                direction,
            };
        }
        self.transfers += 1;
        let mut link_free = start;
        let mut done = start;
        for (i, &b) in blocks.iter().enumerate() {
            // Commands pipeline one per `command_overhead` cycles.
            let cmd_at = start + self.command_overhead * i as u64;
            let ready = match direction {
                DmaDirection::In => llc_access(b, cmd_at),
                // Outbound: data leaves the scratchpad immediately; the
                // LLC write is charged when the block arrives.
                DmaDirection::Out => cmd_at,
            };
            let begin = ready.max(link_free);
            let xfer = self.link.transfer_cycles(CACHE_BLOCK_BYTES as u64);
            link_free = begin + xfer + self.port_occupancy;
            let landed = match direction {
                DmaDirection::In => link_free,
                DmaDirection::Out => llc_access(b, link_free),
            };
            done = done.max(landed);
        }
        match direction {
            DmaDirection::In => self.blocks_in += blocks.len() as u64,
            DmaDirection::Out => self.blocks_out += blocks.len() as u64,
        }
        DmaTransfer {
            done_at: done,
            blocks: blocks.len(),
            bytes: Bytes::new((blocks.len() * CACHE_BLOCK_BYTES) as u64),
            direction,
        }
    }

    /// Window transfers performed.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Blocks staged into scratchpads.
    pub fn blocks_in(&self) -> u64 {
        self.blocks_in
    }

    /// Blocks written back to the LLC.
    pub fn blocks_out(&self) -> u64 {
        self.blocks_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkConfig {
        LinkConfig {
            pj_per_byte: 6.0,
            latency: 8,
            bytes_per_cycle: 8,
        }
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn empty_transfer_is_free() {
        let mut dma = DmaController::new(link());
        let t = dma.transfer(&[], DmaDirection::In, Cycle::new(7), |_b, at| at);
        assert_eq!(t.done_at, Cycle::new(7));
        assert_eq!(dma.transfers(), 0);
    }

    #[test]
    fn single_block_in_timing() {
        let mut dma = DmaController::new(link());
        let t = dma.transfer(&[b(0)], DmaDirection::In, Cycle::new(0), |_b, at| at + 20);
        // LLC at 20, then 8-cycle link latency + 8 cycles serialization +
        // 14 cycles of coherent-port occupancy.
        assert_eq!(t.done_at, Cycle::new(20 + 8 + 8 + 14));
        assert_eq!(t.bytes, Bytes::new(64));
        assert_eq!(dma.blocks_in(), 1);
    }

    #[test]
    fn link_serializes_blocks() {
        let mut dma = DmaController::new(link());
        let many: Vec<BlockAddr> = (0..10).map(b).collect();
        let t = dma.transfer(&many, DmaDirection::In, Cycle::new(0), |_b, at| at + 20);
        // Throughput-bound: ~16 cycles per block on the link.
        assert!(t.done_at.value() >= 20 + 10 * 16 - 16);
        assert_eq!(dma.blocks_in(), 10);
        assert_eq!(t.bytes, Bytes::new(640));
    }

    #[test]
    fn outbound_charges_llc_on_arrival() {
        let mut dma = DmaController::new(link());
        let mut llc_times = Vec::new();
        let t = dma.transfer(&[b(0)], DmaDirection::Out, Cycle::new(0), |_b, at| {
            llc_times.push(at);
            at + 20
        });
        // The LLC write happens after the link transfer, not before.
        assert!(llc_times[0].value() >= 16);
        assert_eq!(t.done_at, llc_times[0] + 20);
        assert_eq!(dma.blocks_out(), 1);
    }

    #[test]
    fn stats_accumulate_across_windows() {
        let mut dma = DmaController::new(link());
        let t_in = dma.transfer(&[b(0), b(1)], DmaDirection::In, Cycle::new(0), |_b, at| {
            at + 20
        });
        let t_out = dma.transfer(&[b(1)], DmaDirection::Out, Cycle::new(100), |_b, at| {
            at + 20
        });
        assert_eq!(dma.transfers(), 2);
        assert_eq!(dma.blocks_in(), 2);
        assert_eq!(dma.blocks_out(), 1);
        // Block 1's fetch (ready at 22) waits for block 0 to free the
        // link at 20 + 16 + 14 = 50; the write-back lands at 100 + 30 + 20.
        assert_eq!(t_in.done_at, Cycle::new(80));
        assert_eq!(t_out.done_at, Cycle::new(150));
    }
}
