//! SCRATCH: per-accelerator scratchpads fed by the oracle coherent DMA.

use std::sync::Arc;

use fusion_accel::analysis::DmaWindow;
use fusion_accel::{kind_runs_of, run_phase_kind_runs};
use fusion_dma::{DmaController, DmaDirection};
use fusion_energy::{Component, EnergyLedger};
use fusion_types::{AxcId, Cycle, CACHE_BLOCK_BYTES};

use crate::host::{NoTile, TileAgent};
use crate::result::SimResult;
use crate::systems::{PhaseHooks, Run};

/// The SCRATCH baseline (paper Section 2.1): each accelerator owns a 4 KB
/// scratchpad; the oracle DMA engine segments every invocation into
/// scratchpad-sized windows, stages exactly the read data before each
/// window and drains exactly the dirty data after it — all through the
/// host L2 over the 6 pJ/byte link, on the critical path.
///
/// The replay keeps no scratchpad contents: it moves each oracle window's
/// `dma_in` and `dma_out` lists as given. The oracle stages every block a
/// window reads first and fits each window in the scratchpad (checked
/// against a brute-force reference in `crates/accel/tests/analyses.rs`),
/// so every access hits.
#[derive(Debug)]
pub(super) struct ScratchSystem {
    dma: DmaController,
    /// Oracle windowing is trace post-processing: memoized on the
    /// workload, so repeat runs (and the sweep's untimed set-up stage) skip
    /// it entirely.
    windows: Arc<Vec<Vec<DmaWindow>>>,
    no_tile: NoTile,
}

impl ScratchSystem {
    pub(super) fn new(run: &Run<'_>) -> Self {
        let cfg = run.cfg;
        let cap_blocks = cfg.scratchpad.capacity_bytes / CACHE_BLOCK_BYTES;
        ScratchSystem {
            dma: DmaController::new(cfg.link_l1x_l2),
            windows: run.workload.dma_windows(cap_blocks),
            no_tile: NoTile,
        }
    }
}

impl PhaseHooks for ScratchSystem {
    fn agent(&mut self) -> &mut dyn TileAgent {
        &mut self.no_tile
    }

    fn accel_phase(
        &mut self,
        run: &mut Run<'_>,
        phase_idx: usize,
        _axc: AxcId,
        mut now: Cycle,
    ) -> (Cycle, u64) {
        let (cfg, em) = (run.cfg, &run.em);
        let (host, ledger, latency) = (&mut run.host, &mut run.ledger, &mut run.latency);
        let dma = &mut self.dma;
        let phase = &run.workload.phases[phase_idx];
        let pid = run.workload.pid;
        let dp = run.workload.phase_refs(phase_idx);
        let mut phase_dma = 0u64;
        for w in &self.windows[phase_idx] {
            // DMA-in: stage the window's read data.
            let t0 = now;
            let tr = dma.transfer(&w.dma_in, DmaDirection::In, now, |b, at| {
                host.dma_read_block(pid, b, at, ledger, &mut NoTile)
            });
            charge_dma_blocks(ledger, em, w.dma_in.len() as u64);
            now = tr.done_at;
            phase_dma += now - t0;

            // Execute the window: every access hits the scratchpad.
            let sp_lat = cfg.scratchpad.latency;
            let wdp = dp.slice(w.ref_range.0, w.ref_range.1);
            let t = run_phase_kind_runs(
                wdp.len(),
                |j| wdp.gaps[j],
                phase.mlp,
                now,
                kind_runs_of(wdp.kinds),
                |_, at, _| {
                    ledger.charge(Component::AxcCache, em.scratchpad_access);
                    at + sp_lat
                },
            );
            // Every scratchpad access has the same latency: one
            // batched histogram update replaces a per-ref record.
            latency.record_n(sp_lat, wdp.len() as u64);
            now = t.end;

            // DMA-out: drain the window's dirty blocks.
            let t0 = now;
            let tr = dma.transfer(&w.dma_out, DmaDirection::Out, now, |b, at| {
                host.dma_write_block(pid, b, at, ledger, &mut NoTile)
            });
            charge_dma_blocks(ledger, em, w.dma_out.len() as u64);
            now = tr.done_at;
            phase_dma += now - t0;
        }
        (now, phase_dma)
    }

    fn label(&self) -> &'static str {
        "SCRATCH"
    }

    fn report(&self, res: &mut SimResult) {
        res.dma_blocks = self.dma.blocks_in() + self.dma.blocks_out();
        res.dma_transfers = self.dma.transfers();
    }
}

/// Per-block DMA charges: controller activity + 64 B on the L2-scratchpad
/// link (the L2 access itself is charged inside the coherent LLC read).
fn charge_dma_blocks(ledger: &mut EnergyLedger, em: &fusion_energy::EnergyModel, blocks: u64) {
    ledger.charge_n(Component::Dma, em.dma_per_block, blocks);
    ledger.charge_bytes_n(
        Component::LinkL1xL2Data,
        em.link_l1x_l2_pj_per_byte,
        CACHE_BLOCK_BYTES as u64,
        blocks,
    );
}

#[cfg(test)]
mod tests {
    use crate::runner::{run_system, SystemKind};
    use fusion_energy::Component;
    use fusion_types::SystemConfig;
    use fusion_workloads::{build_suite, Scale, SuiteId};

    #[test]
    fn adpcm_runs_and_charges_dma() {
        let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
        let res = run_system(SystemKind::Scratch, &wl, &SystemConfig::small()).unwrap();
        assert!(res.total_cycles > 0);
        assert!(res.dma_cycles > 0);
        assert!(res.dma_blocks > 0);
        assert!(res.energy.count(Component::Dma) > 0);
        assert!(res.energy.count(Component::L2) > 0);
        assert_eq!(res.system, "SCRATCH");
    }

    #[test]
    fn dma_fraction_high_for_sharing_heavy_suite() {
        // FFT re-streams its working buffer through the scratchpad every
        // stage: DMA dominates (the paper reports 82 % for this class).
        let wl = build_suite(SuiteId::Fft, Scale::Tiny);
        let res = run_system(SystemKind::Scratch, &wl, &SystemConfig::small()).unwrap();
        assert!(
            res.dma_time_fraction() > 0.4,
            "FFT DMA fraction {:.2} unexpectedly low",
            res.dma_time_fraction()
        );
    }

    #[test]
    fn scratchpad_accesses_cover_all_refs() {
        let wl = build_suite(SuiteId::Filter, Scale::Tiny);
        let res = run_system(SystemKind::Scratch, &wl, &SystemConfig::small()).unwrap();
        let axc_refs: u64 = wl
            .trace_stats()
            .functions
            .iter()
            .map(|f| f.loads + f.stores)
            .sum();
        assert_eq!(res.energy.count(Component::AxcCache), axc_refs);
    }

    #[test]
    fn per_phase_results_cover_program() {
        let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
        let res = run_system(SystemKind::Scratch, &wl, &SystemConfig::small()).unwrap();
        assert_eq!(res.phases.len(), wl.phases.len());
        let sum: u64 = res.phases.iter().map(|p| p.cycles).sum();
        assert_eq!(sum, res.total_cycles);
    }
}
