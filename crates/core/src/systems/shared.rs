//! SHARED: one shared L1X per tile, a plain MESI agent (no private L0Xs).

use fusion_accel::ooo::{run_host_phase_indexed, OooParams};
use fusion_accel::{run_phase_kind_runs, DecodedTrace, Workload};
use fusion_coherence::MesiReq;
use fusion_energy::{Component, EnergyLedger, EnergyModel};
use fusion_mem::{BankedTiming, ReplacementPolicy, SetAssocCache};
use fusion_types::error::SimError;
use fusion_types::{BlockAddr, Cycle, PhysAddr, Pid, SystemConfig, CACHE_BLOCK_BYTES};

use crate::host::{HostSide, TileAgent};
use crate::result::{PhaseResult, SimResult};
use crate::runner::RunControl;
use crate::systems::{charge_compute, EnergyMark};

/// MESI state of a SHARED L1X line (I is absence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SharedMeta {
    exclusive: bool,
    /// When the full-line fill that installed this copy lands (mirrors the
    /// `in_flight` entry so the hit path never probes the map; the map is
    /// only consulted when the line is absent).
    fill_full: Cycle,
}

/// The SHARED L1X: physically indexed (the tile shares the core-side view,
/// so translation sits on the critical path — Lesson 8's contrast).
#[derive(Debug)]
struct SharedL1x {
    cache: SetAssocCache<SharedMeta>,
    energy: EnergyModel,
}

impl SharedL1x {
    const PHYS_PID: Pid = Pid(0);

    fn pblock(pa: PhysAddr) -> BlockAddr {
        BlockAddr::from_index(pa.block_base().value() / CACHE_BLOCK_BYTES as u64)
    }
}

impl TileAgent for SharedL1x {
    fn handle_forward(
        &mut self,
        pa: PhysAddr,
        now: Cycle,
        ledger: &mut EnergyLedger,
    ) -> (Cycle, bool) {
        // Plain MESI: invalidate (or downgrade) immediately; dirty data
        // travels back with the response.
        ledger.charge(Component::L1x, self.energy.l1x_tag_probe);
        match self.cache.invalidate(Self::PHYS_PID, Self::pblock(pa)) {
            Some(e) => (now + 4, e.dirty),
            None => (now, false),
        }
    }
}

/// The SHARED baseline (paper Section 2.1, after Zheng et al. / DySER):
/// every accelerator access pays the banked L1X's latency and energy plus
/// the request/response link messages; misses become MESI GetS/GetX at the
/// host L2.
#[derive(Debug)]
pub struct SharedSystem {
    cfg: SystemConfig,
}

impl SharedSystem {
    /// Creates the system for `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        SharedSystem { cfg: cfg.clone() }
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
    /// Same as [`SharedSystem::run`].
    pub fn run_decoded(
        &mut self,
        workload: &Workload,
        decoded: &DecodedTrace,
    ) -> Result<SimResult, SimError> {
        self.run_guarded(workload, decoded, &RunControl::default())
    }

    /// [`SharedSystem::run_decoded`] with watchdogs: `ctl` is polled at
    /// every phase boundary (see DESIGN.md §10).
    ///
    /// # Errors
    ///
    /// Same as [`SharedSystem::run`], plus [`SimError::Timeout`] when a
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
        let mut l1x = SharedL1x {
            cache: SetAssocCache::new(cfg.l1x, ReplacementPolicy::Lru),
            energy: em.clone(),
        };
        // Banks are fully pipelined: one new access per bank per cycle.
        let mut banks = BankedTiming::new(cfg.l1x.banks, 1);
        // In-flight L1X fills: a hit on a line whose fill has not landed
        // yet cannot return data earlier than the fill (hit-under-miss).
        // Hot-map audit: get/insert by key — never iterated.
        let mut in_flight: fusion_types::hash::FxHashMap<BlockAddr, Cycle> =
            fusion_types::hash::FxHashMap::default();
        let word = cfg.control_message_bytes;
        let mut now = Cycle::ZERO;
        let mut phases_out = Vec::new();
        let mut latency = fusion_sim::Histogram::new();
        let pid = workload.pid;
        // Link serialization times are fixed for the run: the AXC-side
        // word, the L2-side request word, full block and critical word.
        let axc_word_cycles = cfg.link_axc_l1x.transfer_cycles(word);
        let l2_word_cycles = cfg.link_l1x_l2.transfer_cycles(word);
        let l2_block_cycles = cfg.link_l1x_l2.transfer_cycles(CACHE_BLOCK_BYTES as u64);
        let l2_critical_cycles = cfg.link_l1x_l2.transfer_cycles(8);

        for (phase_idx, phase) in workload.phases.iter().enumerate() {
            let start = now;
            let mark = EnergyMark::take(&ledger);
            charge_compute(&mut ledger, &phase.ops, &em);
            let dp = decoded.phase(phase_idx);

            if phase.unit.is_host() {
                let t = run_host_phase_indexed(
                    dp.len(),
                    |j| dp.gaps[j],
                    |j| dp.kinds[j].is_write(),
                    OooParams::default(),
                    now,
                    |j, at| {
                        host.host_access(pid, dp.blocks[j], dp.kinds[j], at, &mut ledger, &mut l1x)
                    },
                );
                now = t.end;
            } else {
                // Kind-sorted chunked replay: `is_write` arrives as a
                // run-constant from the precomputed same-kind chunks, so
                // the hot loop never loads or tests the per-ref kind.
                let t = run_phase_kind_runs(
                    dp.len(),
                    |j| dp.gaps[j],
                    phase.mlp,
                    now,
                    decoded.phase_kind_runs(phase_idx).iter().copied(),
                    |j, at, is_write| {
                        // Address/request message AXC -> L1X.
                        ledger.charge_bytes(
                            Component::LinkAxcL1xMsg,
                            em.link_axc_l1x_pj_per_byte,
                            word,
                        );
                        // Critical-path translation (shared, core-style view).
                        let pa = host.shared_tlb_translate(pid, dp.blocks[j], &mut ledger);
                        let pblock = SharedL1x::pblock(pa);
                        let arb = at + axc_word_cycles;
                        let bank_start = banks.issue(pblock, arb);
                        ledger.charge(Component::L1x, em.l1x_access);
                        let mut ready = bank_start + cfg.l1x.latency;

                        let mut is_upgrade = false;
                        // Carried through an upgrade so the reinserted line
                        // keeps mirroring the (untouched) `in_flight` entry.
                        let mut prev_fill = Cycle::ZERO;
                        let needs_fill = match l1x.cache.lookup(SharedL1x::PHYS_PID, pblock) {
                            Some(line) => {
                                // Hit-under-miss: the line's own fill gate
                                // replaces the per-ref `in_flight` probe.
                                ready = ready.max(line.meta.fill_full);
                                if is_write && !line.meta.exclusive {
                                    is_upgrade = true;
                                    prev_fill = line.meta.fill_full;
                                    Some(MesiReq::GetX) // upgrade
                                } else {
                                    if is_write {
                                        line.dirty = true;
                                    }
                                    None
                                }
                            }
                            None => {
                                if let Some(&fill_done) = in_flight.get(&pblock) {
                                    ready = ready.max(fill_done);
                                }
                                Some(if is_write {
                                    MesiReq::GetX
                                } else {
                                    MesiReq::GetS
                                })
                            }
                        };
                        if let Some(req) = needs_fill {
                            ledger.charge_bytes(
                                Component::LinkL1xL2Msg,
                                em.link_l1x_l2_pj_per_byte,
                                word,
                            );
                            let req_at = ready + l2_word_cycles;
                            let (l2_ready, recalls) =
                                host.mesi_request_from_tile(pa, req, req_at, &mut ledger);
                            for rpa in recalls {
                                ledger.charge(Component::L1x, em.l1x_tag_probe);
                                if let Some(e) = l1x
                                    .cache
                                    .invalidate(SharedL1x::PHYS_PID, SharedL1x::pblock(rpa))
                                {
                                    host.tile_eviction_phys(rpa, e.dirty, &mut ledger);
                                }
                            }
                            ledger.charge_bytes(
                                Component::LinkL1xL2Data,
                                em.link_l1x_l2_pj_per_byte,
                                if is_upgrade {
                                    8
                                } else {
                                    CACHE_BLOCK_BYTES as u64
                                },
                            );
                            // Critical-word-first: the requester proceeds on
                            // the first flit; the full line gates merged hits.
                            // An upgrade already holds the data: only the
                            // ownership acknowledgement comes back.
                            let fill_full = if !is_upgrade {
                                let full = l2_ready + l2_block_cycles;
                                ready = l2_ready + l2_critical_cycles;
                                in_flight.insert(pblock, full);
                                full
                            } else {
                                ready = l2_ready + l2_critical_cycles;
                                prev_fill
                            };
                            // A GetS with no other sharer is granted E: the
                            // line may be upgraded to M silently later.
                            let exclusive = req == MesiReq::GetX || host.tile_owns(pa);
                            if let Some(victim) = l1x.cache.insert(
                                SharedL1x::PHYS_PID,
                                pblock,
                                SharedMeta {
                                    exclusive,
                                    fill_full,
                                },
                                is_write,
                            ) {
                                let vpa =
                                    PhysAddr::new(victim.block.index() * CACHE_BLOCK_BYTES as u64);
                                host.tile_eviction_phys(vpa, victim.dirty, &mut ledger);
                            }
                        }
                        // Word-granular response back to the accelerator.
                        ledger.charge_bytes(
                            Component::LinkAxcL1xData,
                            em.link_axc_l1x_pj_per_byte,
                            word,
                        );
                        let done = ready + axc_word_cycles;
                        latency.record(done - at);
                        done
                    },
                );
                now = t.end;
            }

            phases_out.push(PhaseResult {
                name: phase.name.clone(),
                is_host: phase.unit.is_host(),
                cycles: now - start,
                dma_cycles: 0,
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

        // Final flush: dirty L1X lines write back to the host L2.
        let mut flushed = Vec::new();
        l1x.cache.flush_with(|e| flushed.push(e));
        for e in flushed {
            let pa = PhysAddr::new(e.block.index() * CACHE_BLOCK_BYTES as u64);
            host.tile_eviction_phys(pa, e.dirty, &mut ledger);
        }

        Ok(SimResult {
            system: "SHARED",
            workload: workload.name.clone(),
            total_cycles: now.value(),
            dma_cycles: 0,
            ax_tlb_lookups: host.ax_tlb_lookups(),
            ax_rmap_lookups: 0,
            host_forwards: host.host_forwards(),
            dma_blocks: 0,
            dma_transfers: 0,
            l2_accesses: host.l2_accesses(),
            energy: ledger,
            phases: phases_out,
            tile: None,
            latency,
            metrics: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::ScratchSystem;
    use fusion_workloads::{build_suite, Scale, SuiteId};

    #[test]
    fn runs_and_uses_the_l1x() {
        let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
        let res = SharedSystem::new(&SystemConfig::small()).run(&wl).unwrap();
        assert!(res.total_cycles > 0);
        assert!(res.energy.count(Component::L1x) > 0);
        assert_eq!(res.dma_blocks, 0);
    }

    #[test]
    fn every_axc_access_pays_the_l1x() {
        let wl = build_suite(SuiteId::Filter, Scale::Tiny);
        let res = SharedSystem::new(&SystemConfig::small()).run(&wl).unwrap();
        let axc_refs: u64 = wl
            .phases
            .iter()
            .filter(|p| !p.unit.is_host())
            .map(|p| p.refs.len() as u64)
            .sum();
        assert!(res.energy.count(Component::L1x) >= axc_refs);
    }

    #[test]
    fn shared_beats_scratch_on_dma_bound_fft() {
        // Lesson 1: with DMA dominating SCRATCH, SHARED is faster. Needs
        // Small scale — at Tiny the whole FFT fits one scratchpad window.
        let wl = build_suite(SuiteId::Fft, Scale::Small);
        let sc = ScratchSystem::new(&SystemConfig::small()).run(&wl).unwrap();
        let sh = SharedSystem::new(&SystemConfig::small()).run(&wl).unwrap();
        assert!(
            sh.total_cycles < sc.total_cycles,
            "SHARED {} !< SCRATCH {}",
            sh.total_cycles,
            sc.total_cycles
        );
    }

    #[test]
    fn l1x_filters_l2_for_small_working_sets() {
        let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
        let res = SharedSystem::new(&SystemConfig::small()).run(&wl).unwrap();
        // Blocks fit in the 64 KB L1X: far fewer L2 accesses than refs.
        let refs = wl.total_refs();
        assert!(
            res.l2_accesses < refs / 4,
            "L2 {} refs {refs}",
            res.l2_accesses
        );
    }
}
