//! SCRATCH: per-accelerator scratchpads fed by the oracle coherent DMA.

use fusion_accel::ooo::{run_host_phase_indexed, OooParams};
use fusion_accel::{clip_kind_runs, run_phase_kind_runs, DecodedTrace, Workload};
use fusion_dma::{DmaController, DmaDirection};
use fusion_energy::{Component, EnergyLedger};
use fusion_mem::Scratchpad;
use fusion_types::error::SimError;
use fusion_types::{Cycle, SystemConfig, CACHE_BLOCK_BYTES};

use crate::host::{HostSide, NoTile};
use crate::result::{PhaseResult, SimResult};
use crate::runner::RunControl;
use crate::systems::{charge_compute, EnergyMark};

/// The SCRATCH baseline (paper Section 2.1): each accelerator owns a 4 KB
/// scratchpad; the oracle DMA engine segments every invocation into
/// scratchpad-sized windows, stages exactly the read data before each
/// window and drains exactly the dirty data after it — all through the
/// host L2 over the 6 pJ/byte link, on the critical path.
#[derive(Debug)]
pub struct ScratchSystem {
    cfg: SystemConfig,
}

impl ScratchSystem {
    /// Creates the system for `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        ScratchSystem { cfg: cfg.clone() }
    }

    /// Runs `workload` to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvariantViolation`] when the opt-in protocol
    /// checker flags a directory transition.
    pub fn run(&mut self, workload: &Workload) -> Result<SimResult, SimError> {
        self.run_decoded(workload, &DecodedTrace::decode(workload))
    }

    /// Runs `workload` replaying the pre-decoded stream `decoded` (which
    /// must be `DecodedTrace::decode(workload)`; the sweep shares one
    /// decoding across all systems and configurations).
    ///
    /// # Errors
    ///
    /// Same as [`ScratchSystem::run`].
    pub fn run_decoded(
        &mut self,
        workload: &Workload,
        decoded: &DecodedTrace,
    ) -> Result<SimResult, SimError> {
        self.run_guarded(workload, decoded, &RunControl::default())
    }

    /// [`ScratchSystem::run_decoded`] with watchdogs: `ctl` is polled at
    /// every phase boundary (see DESIGN.md §10).
    ///
    /// # Errors
    ///
    /// Same as [`ScratchSystem::run`], plus [`SimError::Timeout`] when a
    /// watchdog in `ctl` fires.
    pub fn run_guarded(
        &mut self,
        workload: &Workload,
        decoded: &DecodedTrace,
        ctl: &RunControl<'_>,
    ) -> Result<SimResult, SimError> {
        let cfg = &self.cfg;
        let mut host = HostSide::new(cfg);
        let em = host.energy_model().clone();
        let mut ledger = EnergyLedger::new();
        let mut dma = DmaController::new(cfg.link_l1x_l2);
        let cap_blocks = cfg.scratchpad.capacity_bytes / CACHE_BLOCK_BYTES;
        let mut now = Cycle::ZERO;
        let mut phases_out = Vec::new();
        let mut latency = fusion_sim::Histogram::new();
        let mut total_dma = 0u64;
        // Oracle windowing is trace post-processing: memoized on the shared
        // decoded trace, so repeat runs (and the sweep's untimed decode
        // stage) skip it entirely.
        let all_windows = decoded.dma_windows(workload, cap_blocks);
        let pid = workload.pid;
        // One scratchpad for the whole run: `drain_dirty` empties it at the
        // end of every window, so each window starts from an empty store.
        let mut sp = Scratchpad::new(cfg.scratchpad.capacity_bytes);

        for (phase_idx, phase) in workload.phases.iter().enumerate() {
            let start = now;
            let mark = EnergyMark::take(&ledger);
            charge_compute(&mut ledger, &phase.ops, &em);
            let mut phase_dma = 0u64;
            let dp = decoded.phase(phase_idx);

            if phase.unit.is_host() {
                let t = run_host_phase_indexed(
                    dp.len(),
                    |j| dp.gaps[j],
                    |j| dp.kinds[j].is_write(),
                    OooParams::default(),
                    now,
                    |j, at| {
                        host.host_access(
                            pid,
                            dp.blocks[j],
                            dp.kinds[j],
                            at,
                            &mut ledger,
                            &mut NoTile,
                        )
                    },
                );
                now = t.end;
            } else {
                let windows = &all_windows[phase_idx];
                for w in windows {
                    // DMA-in: stage the window's read data.
                    let t0 = now;
                    let tr = dma.transfer(&w.dma_in, DmaDirection::In, now, |b, at| {
                        host.dma_read_block(pid, b, at, &mut ledger, &mut NoTile)
                    });
                    charge_dma_blocks(&mut ledger, &em, w.dma_in.len() as u64);
                    for &b in &w.dma_in {
                        sp.fill(b);
                    }
                    now = tr.done_at;
                    phase_dma += now - t0;

                    // Execute the window: every access hits the scratchpad.
                    // Kind-sorted chunked replay over the window's clipped
                    // runs: the read/write branch below is run-constant.
                    let sp_lat = cfg.scratchpad.latency;
                    let wdp = dp.slice(w.ref_range.0, w.ref_range.1);
                    let t = run_phase_kind_runs(
                        wdp.len(),
                        |j| wdp.gaps[j],
                        phase.mlp,
                        now,
                        clip_kind_runs(
                            decoded.phase_kind_runs(phase_idx),
                            w.ref_range.0,
                            w.ref_range.1,
                        ),
                        |j, at, is_write| {
                            ledger.charge(Component::AxcCache, em.scratchpad_access);
                            if is_write {
                                // lint:allow-unwrap — the oracle schedule sized the window
                                sp.write(wdp.blocks[j]).expect("oracle DMA window overflow");
                            } else {
                                sp.read(wdp.blocks[j])
                                    // lint:allow-unwrap — oracle preloads every read block
                                    .expect("oracle DMA missed a read block");
                            }
                            at + sp_lat
                        },
                    );
                    // Every scratchpad access has the same latency: one
                    // batched histogram update replaces a per-ref record.
                    latency.record_n(sp_lat, wdp.len() as u64);
                    now = t.end;

                    // DMA-out: drain the dirty blocks.
                    let t0 = now;
                    let dirty = sp.drain_dirty();
                    debug_assert_eq!(dirty, w.dma_out, "oracle window analysis out of sync");
                    let tr = dma.transfer(&dirty, DmaDirection::Out, now, |b, at| {
                        host.dma_write_block(pid, b, at, &mut ledger, &mut NoTile)
                    });
                    charge_dma_blocks(&mut ledger, &em, dirty.len() as u64);
                    now = tr.done_at;
                    phase_dma += now - t0;
                }
            }

            total_dma += phase_dma;
            phases_out.push(PhaseResult {
                name: phase.name.clone(),
                is_host: phase.unit.is_host(),
                cycles: now - start,
                dma_cycles: phase_dma,
                memory_energy: mark.memory_since(&ledger),
                compute_energy: mark.compute_since(&ledger),
            });
            ctl.check(now.value())?;
            if cfg.checker.enabled {
                if let Some(v) = host.checker_violation() {
                    return Err(v.into());
                }
            }
        }

        Ok(SimResult {
            system: "SCRATCH",
            workload: workload.name.clone(),
            total_cycles: now.value(),
            dma_cycles: total_dma,
            ax_tlb_lookups: host.ax_tlb_lookups(),
            ax_rmap_lookups: 0,
            host_forwards: host.host_forwards(),
            dma_blocks: dma.blocks_in() + dma.blocks_out(),
            dma_transfers: dma.transfers(),
            l2_accesses: host.l2_accesses(),
            energy: ledger,
            phases: phases_out,
            tile: None,
            latency,
            metrics: Default::default(),
        })
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
    use super::*;
    use fusion_workloads::{build_suite, Scale, SuiteId};

    #[test]
    fn adpcm_runs_and_charges_dma() {
        let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
        let mut sys = ScratchSystem::new(&SystemConfig::small());
        let res = sys.run(&wl).unwrap();
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
        let res = ScratchSystem::new(&SystemConfig::small()).run(&wl).unwrap();
        assert!(
            res.dma_time_fraction() > 0.4,
            "FFT DMA fraction {:.2} unexpectedly low",
            res.dma_time_fraction()
        );
    }

    #[test]
    fn scratchpad_accesses_cover_all_refs() {
        let wl = build_suite(SuiteId::Filter, Scale::Tiny);
        let res = ScratchSystem::new(&SystemConfig::small()).run(&wl).unwrap();
        let axc_refs: u64 = wl
            .phases
            .iter()
            .filter(|p| !p.unit.is_host())
            .map(|p| p.refs.len() as u64)
            .sum();
        assert_eq!(res.energy.count(Component::AxcCache), axc_refs);
    }

    #[test]
    fn per_phase_results_cover_program() {
        let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
        let res = ScratchSystem::new(&SystemConfig::small()).run(&wl).unwrap();
        assert_eq!(res.phases.len(), wl.phases.len());
        let sum: u64 = res.phases.iter().map(|p| p.cycles).sum();
        assert_eq!(sum, res.total_cycles);
    }
}
