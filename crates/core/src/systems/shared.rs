//! SHARED: one shared L1X per tile, a plain MESI agent (no private L0Xs).

use fusion_accel::{kind_runs_of, run_phase_kind_runs};
use fusion_coherence::MesiReq;
use fusion_energy::{Component, EnergyLedger, EnergyModel};
use fusion_mem::{ReplacementPolicy, SetAssocCache};
use fusion_types::{AxcId, BlockAddr, Cycle, PhysAddr, Pid, CACHE_BLOCK_BYTES};

use crate::host::TileAgent;
use crate::systems::{PhaseHooks, Run};

/// MESI state of a SHARED L1X line (I is absence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SharedMeta {
    exclusive: bool,
    /// When the full-line fill that installed this copy lands: a hit before
    /// then cannot return data earlier than the fill (hit-under-miss).
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
///
/// No bank conflicts are modelled: banks are fully pipelined (one new
/// access per bank per cycle) and the issue engine issues at most one
/// reference per cycle, so a bank is always free when the next one comes.
#[derive(Debug)]
pub(super) struct SharedSystem {
    l1x: SharedL1x,
}

impl SharedSystem {
    pub(super) fn new(run: &Run<'_>) -> Self {
        SharedSystem {
            l1x: SharedL1x {
                cache: SetAssocCache::new(run.cfg.l1x, ReplacementPolicy::Lru),
                energy: run.em.clone(),
            },
        }
    }
}

impl PhaseHooks for SharedSystem {
    fn agent(&mut self) -> &mut dyn TileAgent {
        &mut self.l1x
    }

    fn accel_phase(
        &mut self,
        run: &mut Run<'_>,
        phase_idx: usize,
        _axc: AxcId,
        now: Cycle,
    ) -> (Cycle, u64) {
        let (cfg, em) = (run.cfg, &run.em);
        let (host, ledger, latency) = (&mut run.host, &mut run.ledger, &mut run.latency);
        let l1x = &mut self.l1x;
        let phase = &run.workload.phases[phase_idx];
        let pid = run.workload.pid;
        let dp = run.workload.phase_refs(phase_idx);
        let word = cfg.control_message_bytes;
        // Link serialization times: the AXC-side word, the L2-side request
        // word, full block and critical word.
        let axc_word_cycles = cfg.link_axc_l1x.transfer_cycles(word);
        let l2_word_cycles = cfg.link_l1x_l2.transfer_cycles(word);
        let l2_block_cycles = cfg.link_l1x_l2.transfer_cycles(CACHE_BLOCK_BYTES as u64);
        let l2_critical_cycles = cfg.link_l1x_l2.transfer_cycles(8);
        // Kind-sorted chunked replay: `is_write` arrives as a
        // run-constant from the phase's same-kind chunks, so the
        // access closure never loads or tests the per-ref kind.
        let t = run_phase_kind_runs(
            dp.len(),
            |j| dp.gaps[j],
            phase.mlp,
            now,
            kind_runs_of(dp.kinds),
            |j, at, is_write| {
                // Address/request message AXC -> L1X.
                ledger.charge_bytes(Component::LinkAxcL1xMsg, em.link_axc_l1x_pj_per_byte, word);
                // Critical-path translation (shared, core-style view).
                let pa = host.shared_tlb_translate(pid, dp.block(j), ledger);
                let pblock = SharedL1x::pblock(pa);
                ledger.charge(Component::L1x, em.l1x_access);
                let mut ready = at + axc_word_cycles + cfg.l1x.latency;

                let mut is_upgrade = false;
                // Carried through an upgrade: the reinserted line keeps
                // its fill gate.
                let mut prev_fill = Cycle::ZERO;
                let needs_fill = match l1x.cache.lookup(SharedL1x::PHYS_PID, pblock) {
                    Some(line) => {
                        // Hit-under-miss: the line's own fill gate.
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
                    None => Some(if is_write {
                        MesiReq::GetX
                    } else {
                        MesiReq::GetS
                    }),
                };
                if let Some(req) = needs_fill {
                    ledger.charge_bytes(Component::LinkL1xL2Msg, em.link_l1x_l2_pj_per_byte, word);
                    let req_at = ready + l2_word_cycles;
                    let (l2_ready, recalls) = host.mesi_request_from_tile(pa, req, req_at, ledger);
                    for rpa in recalls {
                        ledger.charge(Component::L1x, em.l1x_tag_probe);
                        if let Some(e) = l1x
                            .cache
                            .invalidate(SharedL1x::PHYS_PID, SharedL1x::pblock(rpa))
                        {
                            host.tile_eviction_phys(rpa, e.dirty, ledger);
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
                    ready = l2_ready + l2_critical_cycles;
                    let fill_full = if is_upgrade {
                        prev_fill
                    } else {
                        l2_ready + l2_block_cycles
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
                        let vpa = PhysAddr::new(victim.block.index() * CACHE_BLOCK_BYTES as u64);
                        host.tile_eviction_phys(vpa, victim.dirty, ledger);
                    }
                }
                // Word-granular response back to the accelerator.
                ledger.charge_bytes(Component::LinkAxcL1xData, em.link_axc_l1x_pj_per_byte, word);
                let done = ready + axc_word_cycles;
                latency.record(done - at);
                done
            },
        );
        (t.end, 0)
    }

    fn finish(&mut self, run: &mut Run<'_>, _now: Cycle) {
        // Final flush: dirty L1X lines write back to the host L2.
        let mut flushed = Vec::new();
        self.l1x.cache.flush_with(|e| flushed.push(e));
        for e in flushed {
            let pa = PhysAddr::new(e.block.index() * CACHE_BLOCK_BYTES as u64);
            run.host.tile_eviction_phys(pa, e.dirty, &mut run.ledger);
        }
    }

    fn label(&self) -> &'static str {
        "SHARED"
    }
}

#[cfg(test)]
mod tests {
    use crate::runner::{run_system, SystemKind};
    use fusion_energy::Component;
    use fusion_types::SystemConfig;
    use fusion_workloads::{build_suite, Scale, SuiteId};

    #[test]
    fn runs_and_uses_the_l1x() {
        let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
        let res = run_system(SystemKind::Shared, &wl, &SystemConfig::small()).unwrap();
        assert!(res.total_cycles > 0);
        assert!(res.energy.count(Component::L1x) > 0);
        assert_eq!(res.dma_blocks, 0);
    }

    #[test]
    fn every_axc_access_pays_the_l1x() {
        let wl = build_suite(SuiteId::Filter, Scale::Tiny);
        let res = run_system(SystemKind::Shared, &wl, &SystemConfig::small()).unwrap();
        let axc_refs: u64 = wl
            .trace_stats()
            .functions
            .iter()
            .map(|f| f.loads + f.stores)
            .sum();
        assert!(res.energy.count(Component::L1x) >= axc_refs);
    }

    #[test]
    fn shared_beats_scratch_on_dma_bound_fft() {
        // Lesson 1: with DMA dominating SCRATCH, SHARED is faster. Needs
        // Small scale — at Tiny the whole FFT fits one scratchpad window.
        let wl = build_suite(SuiteId::Fft, Scale::Small);
        let sc = run_system(SystemKind::Scratch, &wl, &SystemConfig::small()).unwrap();
        let sh = run_system(SystemKind::Shared, &wl, &SystemConfig::small()).unwrap();
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
        let res = run_system(SystemKind::Shared, &wl, &SystemConfig::small()).unwrap();
        // Blocks fit in the 64 KB L1X: far fewer L2 accesses than refs.
        let refs = wl.total_refs();
        assert!(
            res.l2_accesses < refs / 4,
            "L2 {} refs {refs}",
            res.l2_accesses
        );
    }
}
