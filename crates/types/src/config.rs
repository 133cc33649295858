//! System configuration mirroring Table 2 of the paper.
//!
//! All latencies are in tile cycles (2 GHz), all energies in picojoules.
//! The defaults are the paper's *SMALL* configuration (4 KB L0X / 64 KB
//! L1X); [`SystemConfig::large`] is the Section 5.5 *LARGE* configuration
//! (8 KB L0X / 256 KB L1X).

/// Geometry of one cache or scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways). `1` models a direct-mapped cache.
    pub ways: usize,
    /// Number of banks (the shared L1X is 16-banked in the paper). Moves
    /// access energy only: pipelined banks never conflict at one issue per
    /// cycle.
    pub banks: usize,
    /// Access latency in cycles (tag + data).
    pub latency: u64,
}

impl CacheGeometry {
    /// Number of cache blocks this geometry holds.
    #[inline]
    pub fn blocks(&self) -> usize {
        self.capacity_bytes / crate::CACHE_BLOCK_BYTES
    }

    /// Number of sets (blocks / ways).
    #[inline]
    pub fn sets(&self) -> usize {
        (self.blocks() / self.ways).max(1)
    }
}

/// Geometry of one scratchpad: a plain SRAM, neither set-associative nor
/// banked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScratchpadGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

/// Write policy of the private L0X caches (Section 5.3 compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Dirty data stays in the L0X until self-downgrade (the FUSION default;
    /// the paper calls this "write caching").
    #[default]
    WriteBack,
    /// Every store is propagated to the L1X immediately.
    WriteThrough,
}

/// Energy and geometry of one on-chip link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Energy per byte moved, in picojoules (Table 2).
    pub pj_per_byte: f64,
    /// One-way latency in cycles.
    pub latency: u64,
    /// Peak bandwidth in bytes per cycle (8 B/cycle = one flit per cycle).
    pub bytes_per_cycle: u64,
}

impl LinkConfig {
    /// Cycles needed to serialize `bytes` over this link (at least the
    /// one-way latency).
    #[inline]
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        self.latency + bytes.div_ceil(self.bytes_per_cycle.max(1))
    }
}

/// Complete configuration of one simulated system (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Per-AXC private L0X cache (FUSION) — 4 KB or 8 KB, ITRS HP.
    pub l0x: CacheGeometry,
    /// Per-AXC scratchpad (SCRATCH) — same capacity as the L0X.
    pub scratchpad: ScratchpadGeometry,
    /// Shared per-tile L1X — 64 KB 16-bank 8-way, or 256 KB (LARGE).
    pub l1x: CacheGeometry,
    /// Host L1 data cache — 64 KB 4-way, 3 cycles.
    pub host_l1: CacheGeometry,
    /// Host shared L2 (LLC) — 4 MB 16-way NUCA; `latency` is the mean over
    /// the ring's home tiles (20 cycles).
    pub l2: CacheGeometry,
    /// Main memory access latency in cycles on a row miss; a row hit
    /// costs half.
    pub memory_latency: u64,
    /// Link between an AXC (L0X / scratchpad) and the shared L1X:
    /// 0.4 pJ/byte.
    pub link_axc_l1x: LinkConfig,
    /// Link between the tile's L1X and the host L2: 6 pJ/byte.
    pub link_l1x_l2: LinkConfig,
    /// Energy per byte of the direct L0X→L0X forwarding path used by
    /// FUSION-Dx: 0.1 pJ/byte. A forward is charged energy but not timed:
    /// phases run one after another, so the consumer starts after the
    /// producer ends.
    pub link_l0x_l0x_pj_per_byte: f64,
    /// L0X write policy (Section 5.3).
    pub write_policy: WritePolicy,
    /// Extra tag-energy fraction paid for the 32-bit timestamp check (the
    /// paper accounts 15%). Charged on both the L0X and the L1X tag.
    pub timestamp_tag_overhead: f64,
    /// Size of the coherence/DMA control message in bytes (request, ack,
    /// eviction notices). 8 bytes = one flit.
    pub control_message_bytes: u64,
    /// Enables the ACC lease-renewal extension (not part of the paper's
    /// protocol; see DESIGN.md "Extensions"): expired L0X copies whose
    /// data is provably current re-acquire epochs with control messages
    /// only.
    pub lease_renewal: bool,
    /// Sequential-prefetch degree at the L1X (extension; 0 = off, the
    /// paper's configuration): on a detected streaming miss pattern the
    /// tile fetches this many subsequent blocks in the background,
    /// recovering part of the DMA push advantage on cold streams.
    pub l1x_prefetch_degree: usize,
    /// Opt-in runtime protocol invariant checking and fault planting (see
    /// DESIGN.md §10). Off by default; a clean checker-on run produces
    /// results identical to a checker-off run.
    pub checker: crate::fault::CheckerConfig,
}

impl SystemConfig {
    /// The paper's SMALL configuration: 4 KB L0X / scratchpad, 64 KB L1X.
    pub fn small() -> Self {
        SystemConfig {
            l0x: CacheGeometry {
                capacity_bytes: 4 * 1024,
                ways: 4,
                banks: 1,
                latency: 1,
            },
            scratchpad: ScratchpadGeometry {
                capacity_bytes: 4 * 1024,
                latency: 1,
            },
            l1x: CacheGeometry {
                capacity_bytes: 64 * 1024,
                ways: 8,
                banks: 16,
                latency: 3,
            },
            host_l1: CacheGeometry {
                capacity_bytes: 64 * 1024,
                ways: 4,
                banks: 1,
                latency: 3,
            },
            l2: CacheGeometry {
                capacity_bytes: 4 * 1024 * 1024,
                ways: 16,
                banks: 8,
                latency: 20,
            },
            memory_latency: 200,
            // In-tile switch hop: serialization dominates, no extra wire
            // latency beyond the first flit.
            link_axc_l1x: LinkConfig {
                pj_per_byte: 0.4,
                latency: 0,
                bytes_per_cycle: 8,
            },
            link_l1x_l2: LinkConfig {
                pj_per_byte: 6.0,
                latency: 8,
                bytes_per_cycle: 8,
            },
            link_l0x_l0x_pj_per_byte: 0.1,
            write_policy: WritePolicy::WriteBack,
            timestamp_tag_overhead: 0.15,
            control_message_bytes: 8,
            lease_renewal: false,
            l1x_prefetch_degree: 0,
            checker: crate::fault::CheckerConfig::default(),
        }
    }

    /// The Section 5.5 LARGE configuration: 8 KB L0X, 256 KB L1X
    /// (2 extra cycles of L1X latency, 2x L1X access energy).
    pub fn large() -> Self {
        let mut cfg = Self::small();
        cfg.l0x.capacity_bytes = 8 * 1024;
        cfg.scratchpad.capacity_bytes = 8 * 1024;
        cfg.l1x.capacity_bytes = 256 * 1024;
        cfg.l1x.latency += 2;
        cfg
    }

    /// Returns a copy with the given L0X write policy (Section 5.3 study).
    pub fn with_write_policy(mut self, policy: WritePolicy) -> Self {
        self.write_policy = policy;
        self
    }

    /// Returns a copy with the ACC lease-renewal extension enabled.
    pub fn with_lease_renewal(mut self, enabled: bool) -> Self {
        self.lease_renewal = enabled;
        self
    }

    /// Returns a copy with the L1X sequential prefetcher set to `degree`.
    pub fn with_l1x_prefetch(mut self, degree: usize) -> Self {
        self.l1x_prefetch_degree = degree;
        self
    }

    /// Returns a copy with the given runtime protocol-checker setup.
    pub fn with_checker(mut self, checker: crate::fault::CheckerConfig) -> Self {
        self.checker = checker;
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_matches_table2() {
        let cfg = SystemConfig::small();
        assert_eq!(cfg.l0x.capacity_bytes, 4096);
        assert_eq!(cfg.l1x.capacity_bytes, 64 * 1024);
        assert_eq!(cfg.l1x.banks, 16);
        assert_eq!(cfg.l1x.ways, 8);
        assert_eq!(cfg.l2.capacity_bytes, 4 * 1024 * 1024);
        assert_eq!(cfg.l2.ways, 16);
        assert_eq!(cfg.memory_latency, 200);
        assert_eq!(cfg.link_axc_l1x.pj_per_byte, 0.4);
        assert_eq!(cfg.link_l1x_l2.pj_per_byte, 6.0);
        assert_eq!(cfg.host_l1.latency, 3);
        assert_eq!(cfg.l2.latency, 20);
    }

    #[test]
    fn large_doubles_l0x_and_quadruples_l1x() {
        let small = SystemConfig::small();
        let large = SystemConfig::large();
        assert_eq!(large.l0x.capacity_bytes, 2 * small.l0x.capacity_bytes);
        assert_eq!(large.l1x.capacity_bytes, 4 * small.l1x.capacity_bytes);
        assert_eq!(large.l1x.latency, small.l1x.latency + 2);
    }

    #[test]
    fn geometry_derivations() {
        let g = SystemConfig::small().l1x;
        assert_eq!(g.blocks(), 1024);
        assert_eq!(g.sets(), 128);
        let s = SystemConfig::small().l0x;
        assert_eq!(s.blocks(), 64);
        assert_eq!(s.sets(), 16);
    }

    #[test]
    fn link_transfer_cycles() {
        let l = SystemConfig::small().link_axc_l1x;
        // 64-byte block at 8 B/cycle; the in-tile hop adds no latency.
        assert_eq!(l.transfer_cycles(64), 8);
        assert_eq!(l.transfer_cycles(8), 1);
        assert_eq!(l.transfer_cycles(0), 0);
        let h = SystemConfig::small().link_l1x_l2;
        assert_eq!(h.transfer_cycles(64), 16);
    }

    #[test]
    fn write_policy_builder() {
        let cfg = SystemConfig::small().with_write_policy(WritePolicy::WriteThrough);
        assert_eq!(cfg.write_policy, WritePolicy::WriteThrough);
        assert_eq!(SystemConfig::default().write_policy, WritePolicy::WriteBack);
    }
}
