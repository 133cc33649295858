//! Per-activity energy law.

use fusion_types::{CacheGeometry, PicoJoules, SystemConfig};

/// Energy of one SRAM data-array access, given the bank that actually fires.
///
/// An analytic stand-in for CACTI at 45 nm ITRS HP: dynamic read energy of
/// an SRAM mat grows roughly with the square root of the bank capacity
/// (bitline/wordline lengths scale with the array edge), plus a fixed
/// decode/sense term. Multi-banked caches only fire one bank per access but
/// pay an intra-cache network term that grows with bank count.
fn sram_data_access_pj(bank_bytes: f64, banks: usize) -> f64 {
    let bank_kb = bank_bytes / 1024.0;
    let array = 2.0 * bank_kb.powf(0.6) + 0.8;
    // H-tree / bank-select network: grows with the full mat area the
    // request and response must traverse, so with total capacity.
    let total_kb = bank_kb * banks as f64;
    let bank_network = if banks > 1 {
        0.4 * total_kb.sqrt()
    } else {
        0.0
    };
    array + bank_network
}

/// Energy of one tag-array probe (all ways of one set).
fn tag_access_pj(geometry: &CacheGeometry) -> f64 {
    // ~5 tag bytes per way probed in parallel; scaled by a small per-bit cost.
    0.08 * geometry.ways as f64 + 0.3
}

/// Precomputed per-event energies for one [`SystemConfig`].
///
/// All values are dynamic energy per event in picojoules. Construct once per
/// simulated system and read fields directly (this is a plain data table;
/// see C-STRUCT-PRIVATE exception for passive data).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// One L0X access (tag incl. 32-bit timestamp check at +15 %, plus data).
    pub l0x_access: PicoJoules,
    /// One scratchpad access (data array only — no tags, no timestamps).
    pub scratchpad_access: PicoJoules,
    /// One shared L1X access (one of the 16 banks fires; the tag includes
    /// the timestamp overhead, on SHARED's MESI L1X too).
    pub l1x_access: PicoJoules,
    /// One L1X tag-only probe (e.g. lease bookkeeping on a forwarded
    /// request that is filtered without a data access).
    pub l1x_tag_probe: PicoJoules,
    /// One host L1 access.
    pub host_l1_access: PicoJoules,
    /// One shared L2 (LLC) access, including NUCA bank + directory lookup.
    pub l2_access: PicoJoules,
    /// One main-memory access (controller + DRAM activate/read, far above
    /// SRAM costs).
    pub memory_access: PicoJoules,
    /// One AX-TLB lookup (small, associative).
    pub tlb_lookup: PicoJoules,
    /// One AX-RMAP lookup (physically indexed pointer array).
    pub rmap_lookup: PicoJoules,
    /// DMA controller state-machine energy per block transferred.
    pub dma_per_block: PicoJoules,
    /// One integer datapath *activity*: the 0.5 pJ adder the paper quotes
    /// plus operand registers, muxing and control (Aladdin's activity
    /// counts charge the full datapath slice per operation).
    pub int_op: PicoJoules,
    /// One floating-point datapath activity.
    pub fp_op: PicoJoules,
    /// AXC–L1X link energy per byte (Table 2: 0.4 pJ/B).
    pub link_axc_l1x_pj_per_byte: f64,
    /// L1X–host-L2 link energy per byte (Table 2: 6 pJ/B).
    pub link_l1x_l2_pj_per_byte: f64,
    /// Direct L0X–L0X forwarding link energy per byte (Section 5.4:
    /// 0.1 pJ/B).
    pub link_l0x_l0x_pj_per_byte: f64,
}

impl EnergyModel {
    /// Builds the energy table for `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        let l0x_data = sram_data_access_pj(
            cfg.l0x.capacity_bytes as f64 / cfg.l0x.banks as f64,
            cfg.l0x.banks,
        );
        let l0x_tag = tag_access_pj(&cfg.l0x) * (1.0 + cfg.timestamp_tag_overhead);
        let scratch = sram_data_access_pj(cfg.scratchpad.capacity_bytes as f64, 1);
        let l1x_data = sram_data_access_pj(
            cfg.l1x.capacity_bytes as f64 / cfg.l1x.banks as f64,
            cfg.l1x.banks,
        );
        let l1x_tag = tag_access_pj(&cfg.l1x) * (1.0 + cfg.timestamp_tag_overhead);
        let host_l1 = sram_data_access_pj(
            cfg.host_l1.capacity_bytes as f64 / cfg.host_l1.banks as f64,
            cfg.host_l1.banks,
        ) + tag_access_pj(&cfg.host_l1);
        // L2: one NUCA bank access + directory state lookup.
        let l2_bank = sram_data_access_pj(
            cfg.l2.capacity_bytes as f64 / cfg.l2.banks as f64,
            cfg.l2.banks,
        );
        let l2 = l2_bank + tag_access_pj(&cfg.l2) + 4.0;
        EnergyModel {
            l0x_access: PicoJoules::new(l0x_data + l0x_tag),
            scratchpad_access: PicoJoules::new(scratch),
            l1x_access: PicoJoules::new(l1x_data + l1x_tag),
            l1x_tag_probe: PicoJoules::new(l1x_tag),
            host_l1_access: PicoJoules::new(host_l1),
            l2_access: PicoJoules::new(l2),
            memory_access: PicoJoules::new(1200.0),
            tlb_lookup: PicoJoules::new(1.4),
            rmap_lookup: PicoJoules::new(2.0),
            dma_per_block: PicoJoules::new(2.0),
            int_op: PicoJoules::new(2.0),
            fp_op: PicoJoules::new(6.0),
            link_axc_l1x_pj_per_byte: cfg.link_axc_l1x.pj_per_byte,
            link_l1x_l2_pj_per_byte: cfg.link_l1x_l2.pj_per_byte,
            link_l0x_l0x_pj_per_byte: cfg.link_l0x_l0x_pj_per_byte,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::new(&SystemConfig::small())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1x_costs_about_1_5x_l0x() {
        // Lesson 3: "a 4K L0X ... is 1.5x more energy efficient than even a
        // heavily banked L1X".
        let m = EnergyModel::new(&SystemConfig::small());
        let ratio = m.l1x_access / m.l0x_access;
        assert!(
            (1.2..=1.8).contains(&ratio),
            "L1X/L0X access energy ratio {ratio} outside paper band"
        );
    }

    #[test]
    fn large_l1x_costs_about_2x_small() {
        // Section 5.5: LARGE L1X access energy ~2x the SMALL L1X.
        let small = EnergyModel::new(&SystemConfig::small());
        let large = EnergyModel::new(&SystemConfig::large());
        let ratio = large.l1x_access / small.l1x_access;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "LARGE/SMALL L1X energy ratio {ratio} outside paper band"
        );
    }

    #[test]
    fn l0x_pays_timestamp_overhead_over_scratchpad() {
        let m = EnergyModel::new(&SystemConfig::small());
        assert!(m.l0x_access > m.scratchpad_access);
    }

    #[test]
    fn hierarchy_energy_is_ordered() {
        let m = EnergyModel::new(&SystemConfig::small());
        assert!(m.l0x_access < m.l1x_access);
        assert!(m.l1x_access < m.l2_access);
        assert!(m.l2_access < m.memory_access);
    }

    #[test]
    fn link_energies_follow_table2() {
        let m = EnergyModel::new(&SystemConfig::small());
        assert_eq!(m.link_axc_l1x_pj_per_byte, 0.4);
        assert_eq!(m.link_l1x_l2_pj_per_byte, 6.0);
        assert_eq!(m.link_l0x_l0x_pj_per_byte, 0.1);
        // Moving one 64 B block over the L1X-L2 link costs more than the L2
        // access itself -- the paper's "wire energy dominated era" premise.
        assert!(64.0 * m.link_l1x_l2_pj_per_byte > m.l2_access.value());
    }

    #[test]
    fn int_op_matches_published_figure() {
        // 0.5 pJ for the add itself (paper's figure) plus register/control
        // activity; FP costs more than integer.
        let m = EnergyModel::default();
        assert_eq!(m.int_op.value(), 2.0);
        assert!(m.fp_op > m.int_op);
    }
}
