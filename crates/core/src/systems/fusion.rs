//! FUSION / FUSION-Dx: private L0Xs + shared L1X under the ACC protocol.

use fusion_accel::{kind_runs_of, run_phase_kind_runs};
use fusion_coherence::acc::{AccAccess, AccTile, TileTiming};
use fusion_coherence::{ForwardRule, TileStats};
use fusion_energy::{Component, EnergyLedger, EnergyModel};
use fusion_types::error::InvariantViolation;
use fusion_types::hash::FxHashMap;
use fusion_types::{AccessKind, AxcId, BlockAddr, Cycle, PhysAddr, Pid, CACHE_BLOCK_BYTES};
use fusion_vm::{AxRmap, L1xPointer, RmapOutcome};

use crate::host::{HostSide, TileAgent};
use crate::result::SimResult;
use crate::systems::{PhaseHooks, Run};

/// The accelerator tile plus its reverse map — the unit that answers
/// forwarded host MESI requests (Figure 4, right).
#[derive(Debug)]
struct FusionTile {
    tile: AccTile,
    rmap: AxRmap,
    energy: EnergyModel,
    /// Per-AXC stream table: the last few demand-miss blocks. Streaming
    /// kernels interleave several planes (HIST touches six), so one
    /// register per AXC cannot see the sequential pattern.
    streams: Vec<Vec<BlockAddr>>,
    prefetch_degree: usize,
}

/// Stream-table entries per accelerator (8 concurrent streams, as in
/// classic stream prefetchers).
const STREAM_TABLE: usize = 8;

impl TileAgent for FusionTile {
    fn handle_forward(
        &mut self,
        pa: PhysAddr,
        now: Cycle,
        ledger: &mut EnergyLedger,
    ) -> (Cycle, bool) {
        // AX-RMAP translates the physical address to the L1X line.
        ledger.charge(Component::Rmap, self.energy.rmap_lookup);
        match self.rmap.lookup(pa) {
            Some(ptr) => {
                let fwd = self.tile.host_forward(ptr.pid, ptr.vblock, now);
                self.rmap.unregister(pa);
                (fwd.release_at, fwd.dirty)
            }
            None => (now, false),
        }
    }
}

/// The FUSION architecture (paper Section 3): per-AXC L0X caches and a
/// shared L1X kept coherent by the ACC lease protocol; the L1X is an M/E/I
/// participant in host MESI with the AX-TLB on its miss path and the
/// AX-RMAP for forwarded requests. With `dx` enabled, trace-identified
/// producer→consumer stores are forwarded directly between L0Xs
/// (FUSION-Dx, Section 3.2).
#[derive(Debug)]
pub(super) struct FusionSystem {
    state: FusionTile,
    dx: bool,
    /// FUSION-Dx: forwarding directives grouped by producing phase —
    /// a rule is armed only while its producing invocation runs.
    /// Hot-map audit: built per simulation and probed on every access
    /// in the forwarding fast path; FxHash keeps the probe cheap and the
    /// iteration order deterministic.
    rules_by_phase: FxHashMap<usize, FxHashMap<(Pid, BlockAddr), Vec<ForwardRule>>>,
    /// Tile counters at the last energy charge.
    stats_mark: TileStats,
}

impl FusionSystem {
    /// Builds FUSION, or FUSION-Dx (write forwarding enabled) when `dx`.
    pub(super) fn new(run: &Run<'_>, dx: bool) -> Self {
        let (cfg, workload) = (run.cfg, run.workload);
        let pid = workload.pid;
        let timing = TileTiming {
            l0_latency: cfg.l0x.latency,
            l1_latency: cfg.l1x.latency,
            link_latency: cfg.link_axc_l1x.latency,
            link_bytes_per_cycle: cfg.link_axc_l1x.bytes_per_cycle,
        };
        let mut state = FusionTile {
            tile: AccTile::new(
                workload.axc_count().max(1),
                cfg.l0x,
                cfg.l1x,
                timing,
                cfg.write_policy,
            ),
            rmap: AxRmap::new(),
            energy: run.em.clone(),
            streams: vec![Vec::new(); workload.axc_count().max(1)],
            prefetch_degree: cfg.l1x_prefetch_degree,
        };
        state.tile.set_lease_renewal(cfg.lease_renewal);
        if cfg.checker.enabled {
            state.tile.enable_checker(cfg.checker.acc_fault);
        }
        let mut rules_by_phase: FxHashMap<usize, FxHashMap<(Pid, BlockAddr), Vec<ForwardRule>>> =
            FxHashMap::default();
        if dx {
            // Per-function epoch lengths for the forwarded copies.
            let lease_of = |axc: AxcId| {
                workload
                    .phases
                    .iter()
                    .find(|p| p.unit.axc() == Some(axc))
                    .map(|p| p.lease)
                    .unwrap_or(cfg.default_lease)
            };
            // Forwarding-pair identification is trace post-processing:
            // memoized on the workload (see `Workload::forward_pairs`), so
            // repeat runs and the sweep's untimed set-up stage pay for it
            // once.
            for &p in workload.forward_pairs(cfg.l0x.blocks()).iter() {
                // A forwarded copy only lives for the consumer's epoch
                // length, so forwarding pays off only when the consumer is
                // the very next invocation.
                if p.consumer_phase != p.producer_phase + 1 {
                    continue;
                }
                rules_by_phase
                    .entry(p.producer_phase)
                    .or_default()
                    .entry((pid, p.block))
                    .or_default()
                    .push(ForwardRule {
                        producer: p.producer,
                        consumer: p.consumer,
                        lease: lease_of(p.consumer),
                        eager: p.streaming,
                    });
            }
        }
        let stats_mark = *state.tile.stats();
        FusionSystem {
            state,
            dx,
            rules_by_phase,
            stats_mark,
        }
    }
}

impl PhaseHooks for FusionSystem {
    fn agent(&mut self) -> &mut dyn TileAgent {
        &mut self.state
    }

    fn before_phase(&mut self, idx: usize) {
        self.state
            .tile
            .set_forward_rules(self.rules_by_phase.get(&idx).cloned().unwrap_or_default());
    }

    fn accel_phase(
        &mut self,
        run: &mut Run<'_>,
        phase_idx: usize,
        axc: AxcId,
        now: Cycle,
    ) -> (Cycle, u64) {
        let (host, ledger, latency) = (&mut run.host, &mut run.ledger, &mut run.latency);
        let state = &mut self.state;
        let phase = &run.workload.phases[phase_idx];
        let pid = run.workload.pid;
        let dp = run.workload.phase_refs(phase_idx);
        let lease = phase.lease;
        // Kind-sorted chunked replay: the access kind is
        // reconstructed once per same-kind run (lossless —
        // `AccessKind` is exactly {Load, Store}), so the access
        // closure never loads the per-ref kind lane.
        let t = run_phase_kind_runs(
            dp.len(),
            |j| dp.gaps[j],
            phase.mlp,
            now,
            kind_runs_of(dp.kinds),
            |j, at, is_write| {
                let kind = if is_write {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let done = tile_access(state, host, ledger, axc, pid, dp.block(j), kind, at, lease);
                latency.record(done - at);
                done
            },
        );
        // Invocation complete: expected-latency epochs end now.
        state.tile.downgrade_all(axc, pid, t.end);
        (t.end, 0)
    }

    fn after_phase(&mut self, run: &mut Run<'_>) {
        let stats = self.state.tile.stats();
        charge_tile_delta(&mut run.ledger, &run.em, &mut self.stats_mark, stats);
    }

    fn checker_violation(&self) -> Option<InvariantViolation> {
        self.state.tile.checker_violation()
    }

    fn finish(&mut self, run: &mut Run<'_>, now: Cycle) {
        // End of program: flush the tile back to the host's coherence
        // space.
        let (host, ledger) = (&mut run.host, &mut run.ledger);
        for ev in self.state.tile.flush_all(now) {
            if let Some(pa) = host.tile_eviction(ev.pid, ev.block, ev.dirty, ledger) {
                self.state.rmap.unregister(pa);
            }
        }
        // Charge the flush's tile activity.
        self.after_phase(run);
    }

    fn label(&self) -> &'static str {
        if self.dx {
            "FUSION-Dx"
        } else {
            "FUSION"
        }
    }

    fn report(&self, res: &mut SimResult) {
        res.ax_rmap_lookups = self.state.rmap.lookups();
        res.tile = Some(*self.state.tile.stats());
    }
}

/// One accelerator access against the FUSION tile, resolving L1X misses
/// through the host (AX-TLB → MESI GetX → fill → lease grant).
#[allow(clippy::too_many_arguments)]
fn tile_access(
    state: &mut FusionTile,
    host: &mut HostSide,
    ledger: &mut EnergyLedger,
    axc: AxcId,
    pid: Pid,
    block: BlockAddr,
    kind: AccessKind,
    at: Cycle,
    lease: u32,
) -> Cycle {
    match state.tile.axc_access(axc, pid, block, kind, at, lease) {
        AccAccess::L0Hit { done_at } | AccAccess::L1Served { done_at } => done_at,
        AccAccess::FillNeeded { request_at } => {
            let fill = host.tile_fill(pid, block, request_at, ledger, state);
            let ptr = L1xPointer { pid, vblock: block };
            match state.rmap.register(fill.pa, ptr) {
                RmapOutcome::Installed | RmapOutcome::Refreshed => {}
                RmapOutcome::Synonym(dup) => {
                    // Appendix policy: only one synonym may live in the
                    // tile — evict the duplicate before installing.
                    let fwd = state.tile.host_forward(dup.pid, dup.vblock, fill.data_at);
                    host.tile_eviction(dup.pid, dup.vblock, fwd.dirty, ledger);
                    state.rmap.replace(fill.pa, ptr);
                }
            }
            let res = state
                .tile
                .complete_fill(axc, pid, block, kind, fill.data_at, lease);
            if let Some(ev) = res.evicted {
                if let Some(pa) = host.tile_eviction(ev.pid, ev.block, ev.dirty, ledger) {
                    state.rmap.unregister(pa);
                }
            }
            // Sequential prefetcher (extension): two consecutive demand
            // misses arm a background fetch of the next blocks. The
            // fetches pay full traffic/energy but run off the critical
            // path, narrowing the pull-vs-push gap against DMA.
            let window = state.prefetch_degree as u64 + 1;
            let table = &mut state.streams[axc.index()];
            let matched = table.iter().position(|last| {
                let delta = block.index().wrapping_sub(last.index());
                (1..=window).contains(&delta)
            });
            let streaming = matched.is_some();
            match matched {
                Some(i) => table[i] = block,
                None => {
                    if table.len() >= STREAM_TABLE {
                        table.remove(0);
                    }
                    table.push(block);
                }
            }
            if streaming && state.prefetch_degree > 0 {
                for k in 1..=state.prefetch_degree as u64 {
                    let pb = BlockAddr::from_index(block.index() + k);
                    if state.tile.l1x_resident_line(pid, pb) {
                        continue;
                    }
                    let pf = host.tile_fill(pid, pb, fill.data_at, ledger, state);
                    state.rmap.replace(pf.pa, L1xPointer { pid, vblock: pb });
                    if let Some(ev) = state.tile.prefetch_install(pid, pb, pf.data_at) {
                        if let Some(pa) = host.tile_eviction(ev.pid, ev.block, ev.dirty, ledger) {
                            state.rmap.unregister(pa);
                        }
                    }
                }
            }
            res.done_at
        }
    }
}

/// Converts a tile-counter delta into energy charges (the Figure 6a
/// stacks for the FUSION bars).
#[expect(
    clippy::cast_possible_truncation,
    reason = "the 8-byte message and the 64-byte block are exact in u64"
)]
fn charge_tile_delta(
    ledger: &mut EnergyLedger,
    em: &EnergyModel,
    mark: &mut TileStats,
    current: &TileStats,
) {
    let d = current.delta(mark);
    *mark = *current;
    let block = CACHE_BLOCK_BYTES as f64;
    let msg = 8.0;
    // L0X array activity: demand accesses plus the array reads performed
    // by writebacks and forwards.
    ledger.charge_n(
        Component::AxcCache,
        em.l0x_access,
        d.l0_accesses + d.wb_l0_to_l1 + d.fwd_l0_to_l0,
    );
    ledger.charge_n(Component::L1x, em.l1x_access, d.l1_accesses);
    ledger.charge_bytes_n(
        Component::LinkAxcL1xMsg,
        em.link_axc_l1x_pj_per_byte,
        msg as u64,
        d.msgs_l0_to_l1,
    );
    ledger.charge_bytes_n(
        Component::LinkAxcL1xData,
        em.link_axc_l1x_pj_per_byte,
        block as u64,
        d.data_l1_to_l0 + d.wb_l0_to_l1,
    );
    ledger.charge_bytes_n(
        Component::LinkAxcL1xData,
        em.link_axc_l1x_pj_per_byte,
        msg as u64,
        d.wt_stores,
    );
    ledger.charge_bytes_n(
        Component::LinkL0xFwd,
        em.link_l0x_l0x_pj_per_byte,
        block as u64,
        d.fwd_l0_to_l0,
    );
    // Writebacks that found the L1X line evicted continue to the host L2.
    ledger.charge_bytes_n(
        Component::LinkL1xL2Data,
        em.link_l1x_l2_pj_per_byte,
        block as u64,
        d.wb_through_to_l2,
    );
    ledger.charge_n(Component::L2, em.l2_access, d.wb_through_to_l2);
    // Lease renewals: the request message is already in `msgs_l0_to_l1`;
    // add the grant acknowledgement and the L1X tag/lease probe.
    ledger.charge_bytes_n(
        Component::LinkAxcL1xMsg,
        em.link_axc_l1x_pj_per_byte,
        msg as u64,
        d.lease_renewals,
    );
    ledger.charge_n(Component::L1x, em.l1x_tag_probe, d.lease_renewals);
}

#[cfg(test)]
mod tests {
    use crate::runner::{run_system, SystemKind};
    use fusion_energy::Component;
    use fusion_types::SystemConfig;
    use fusion_workloads::{build_suite, Scale, SuiteId};

    fn cfg() -> SystemConfig {
        SystemConfig::small()
    }

    #[test]
    fn runs_all_tiny_suites() {
        for id in fusion_workloads::all_suites() {
            let wl = build_suite(id, Scale::Tiny);
            let res = run_system(SystemKind::Fusion, &wl, &cfg()).unwrap();
            assert!(res.total_cycles > 0, "{id}");
            let tile = res.tile.expect("fusion reports tile stats");
            assert!(tile.l0_accesses > 0, "{id}");
        }
    }

    #[test]
    fn l0x_filters_most_l1x_traffic() {
        // Lesson 3: the L0X filters ~80 % of accesses for FFT-class
        // locality.
        let wl = build_suite(SuiteId::Fft, Scale::Tiny);
        let res = run_system(SystemKind::Fusion, &wl, &cfg()).unwrap();
        let t = res.tile.unwrap();
        let filtered = 1.0 - (t.msgs_l0_to_l1 as f64 / t.l0_accesses as f64);
        assert!(filtered > 0.6, "L0X filtered only {:.0}%", filtered * 100.0);
    }

    #[test]
    fn fusion_faster_than_scratch_on_sharing_heavy_suites() {
        let wl = build_suite(SuiteId::Fft, Scale::Tiny);
        let fu = run_system(SystemKind::Fusion, &wl, &cfg()).unwrap();
        let sc = run_system(SystemKind::Scratch, &wl, &cfg()).unwrap();
        assert!(
            fu.total_cycles < sc.total_cycles,
            "FUSION {} !< SCRATCH {}",
            fu.total_cycles,
            sc.total_cycles
        );
    }

    #[test]
    fn fusion_beats_shared_where_shared_degrades() {
        // Lesson 2: SUSAN/FILT/ADPCM-class workloads hurt on SHARED; the
        // L0X recovers the loss. Small scale — at Tiny the margin is
        // within the fill-latency noise.
        let wl = build_suite(SuiteId::Adpcm, Scale::Small);
        let fu = run_system(SystemKind::Fusion, &wl, &cfg()).unwrap();
        let sh = run_system(SystemKind::Shared, &wl, &cfg()).unwrap();
        assert!(
            fu.total_cycles < sh.total_cycles,
            "FUSION {} !< SHARED {}",
            fu.total_cycles,
            sh.total_cycles
        );
    }

    #[test]
    fn dx_forwards_blocks_and_saves_link_energy() {
        let wl = build_suite(SuiteId::Fft, Scale::Tiny);
        let fu = run_system(SystemKind::Fusion, &wl, &cfg()).unwrap();
        let dx = run_system(SystemKind::FusionDx, &wl, &cfg()).unwrap();
        let fwd = dx.tile.unwrap().fwd_l0_to_l0;
        assert!(fwd > 0, "FUSION-Dx forwarded no blocks");
        let fu_link = fu.energy.link_total();
        let dx_link = dx.energy.link_total();
        assert!(
            dx_link < fu_link,
            "Dx link energy {dx_link} !< FUSION {fu_link}"
        );
    }

    #[test]
    fn host_phase_forwards_through_rmap() {
        // TRACK's host phase consumes tile-produced data.
        let wl = build_suite(SuiteId::Tracking, Scale::Tiny);
        let res = run_system(SystemKind::Fusion, &wl, &cfg()).unwrap();
        assert!(res.host_forwards > 0);
        assert!(res.ax_rmap_lookups > 0);
        assert!(res.ax_tlb_lookups > 0);
    }

    #[test]
    fn write_through_multiplies_link_traffic() {
        // Lesson 5 / Table 4.
        let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
        let wb = run_system(SystemKind::Fusion, &wl, &cfg()).unwrap();
        let wt_cfg = cfg().with_write_policy(fusion_types::WritePolicy::WriteThrough);
        let wt = run_system(SystemKind::Fusion, &wl, &wt_cfg).unwrap();
        let wb_flits = wb.traffic().flits_axc_l1x.value();
        let wt_flits = wt.traffic().flits_axc_l1x.value();
        assert!(
            wt_flits > 2 * wb_flits,
            "write-through flits {wt_flits} !>> write-back {wb_flits}"
        );
    }

    #[test]
    fn prefetcher_hides_streaming_misses() {
        // Extension: the stream prefetcher converts most cold streaming
        // misses into L1X hits at near-perfect accuracy.
        let wl = build_suite(SuiteId::Tracking, Scale::Small);
        let base = run_system(SystemKind::Fusion, &wl, &cfg()).unwrap();
        let pf_cfg = cfg().with_l1x_prefetch(4);
        let pf = run_system(SystemKind::Fusion, &wl, &pf_cfg).unwrap();
        let t = pf.tile.unwrap();
        assert!(
            t.prefetch_installs > 100,
            "prefetcher barely fired: {}",
            t.prefetch_installs
        );
        let accuracy = t.prefetch_hits as f64 / t.prefetch_installs as f64;
        assert!(accuracy > 0.9, "stream prefetch accuracy {accuracy:.2}");
        assert!(
            pf.total_cycles < base.total_cycles,
            "prefetch {} !< baseline {}",
            pf.total_cycles,
            base.total_cycles
        );
        // Off by default (paper configuration).
        assert_eq!(base.tile.unwrap().prefetch_installs, 0);
    }

    #[test]
    fn latency_histogram_covers_all_accelerator_refs() {
        let wl = build_suite(SuiteId::Filter, Scale::Tiny);
        let res = run_system(SystemKind::Fusion, &wl, &cfg()).unwrap();
        let axc_refs: u64 = wl
            .trace_stats()
            .functions
            .iter()
            .map(|f| f.loads + f.stores)
            .sum();
        assert_eq!(res.latency.count(), axc_refs);
        // Hits dominate: mean latency sits near the 1-cycle L0X.
        assert!(res.latency.mean() < 20.0, "mean {:.1}", res.latency.mean());
        assert!(res.latency.max() > 10, "some accesses must miss");
    }

    #[test]
    fn energy_breakdown_has_expected_components() {
        let wl = build_suite(SuiteId::Disparity, Scale::Tiny);
        let res = run_system(SystemKind::Fusion, &wl, &cfg()).unwrap();
        for c in [
            Component::AxcCache,
            Component::L1x,
            Component::L2,
            Component::LinkAxcL1xMsg,
            Component::LinkAxcL1xData,
            Component::LinkL1xL2Data,
            Component::Tlb,
        ] {
            assert!(res.energy.count(c) > 0, "missing component {c:?}");
        }
    }
}
