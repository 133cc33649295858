//! The eight "Lessons Learned" of the paper's evaluation (Section 5),
//! each pinned as an executable assertion so the qualitative claims stay
//! true as the simulator evolves.
//!
//! Small scale keeps CI fast while preserving every crossover; the Paper
//! scale numbers live in EXPERIMENTS.md.

#![allow(clippy::unwrap_used, reason = "a test fails by panicking")]

use fusion_repro::core::runner::{run_system, SystemKind};
use fusion_repro::core::SimResult;
use fusion_repro::energy::Component;
use fusion_repro::types::{SystemConfig, WritePolicy};
use fusion_repro::workloads::{build_suite, Scale, SuiteId};

fn run(kind: SystemKind, id: SuiteId) -> SimResult {
    run_system(kind, &build_suite(id, Scale::Small), &SystemConfig::small()).unwrap()
}

#[test]
fn lesson1_shared_l1x_beats_scratch_on_dma_bound_suites() {
    // "FFT, DISP., TRACK. ... spend a significant amount of time in DMA
    // transfers and the SHARED system outperforms the SCRATCH system."
    for id in [SuiteId::Fft, SuiteId::Disparity] {
        let sc = run(SystemKind::Scratch, id);
        let sh = run(SystemKind::Shared, id);
        assert!(
            sc.dma_time_fraction() > 0.4,
            "{id}: SCRATCH DMA fraction {:.2} too low for the lesson",
            sc.dma_time_fraction()
        );
        assert!(
            sh.total_cycles < sc.total_cycles,
            "{id}: SHARED {} !< SCRATCH {}",
            sh.total_cycles,
            sc.total_cycles
        );
    }
    // "...the SHARED system degrades performance" where the working set
    // is small and SCRATCH captures the locality.
    for id in [SuiteId::Adpcm, SuiteId::Susan, SuiteId::Filter] {
        let sc = run(SystemKind::Scratch, id);
        let sh = run(SystemKind::Shared, id);
        assert!(
            sh.total_cycles > sc.total_cycles,
            "{id}: SHARED should degrade vs SCRATCH ({} vs {})",
            sh.total_cycles,
            sc.total_cycles
        );
    }
}

#[test]
fn lesson2_private_l0x_recovers_shared_degradation() {
    // "The FUSION system is able to capture the spatial locality for
    // SUSAN, FILT. and ADPCM which is the cause of degradation in the
    // SHARED system."
    for id in [SuiteId::Adpcm, SuiteId::Susan, SuiteId::Filter] {
        let sh = run(SystemKind::Shared, id);
        let fu = run(SystemKind::Fusion, id);
        assert!(
            fu.total_cycles < sh.total_cycles,
            "{id}: FUSION {} !< SHARED {}",
            fu.total_cycles,
            sh.total_cycles
        );
    }
}

#[test]
fn lesson3_l0x_filters_l1x_accesses_and_saves_energy() {
    // "...introducing a 4K L0X ... filters out 83% and 80% of the accesses
    // to the L1X for FFT and DISP."
    for (id, min_filter) in [(SuiteId::Fft, 0.75), (SuiteId::Disparity, 0.75)] {
        let fu = run(SystemKind::Fusion, id);
        let tile = fu.tile.expect("fusion tile stats");
        let filtered = 1.0 - tile.msgs_l0_to_l1 as f64 / tile.l0_accesses.max(1) as f64;
        assert!(
            filtered > min_filter,
            "{id}: L0X filtered only {:.0}% of L1X traffic",
            filtered * 100.0
        );
        // And the energy per filtered access is lower than the L1X's.
        let sh = run(SystemKind::Shared, id);
        assert!(
            fu.cache_energy() < sh.cache_energy(),
            "{id}: FUSION energy {} !< SHARED {}",
            fu.cache_energy(),
            sh.cache_energy()
        );
    }
}

#[test]
fn lesson4_coherence_messages_cost_fusion_energy_on_thrashy_suites() {
    // "However these gains are lost to repeated thrashing ... FUSION
    // increases energy consumption" for HIST/SUSAN/FILT-class suites:
    // FUSION's cache-hierarchy energy exceeds SCRATCH's there.
    for id in [SuiteId::Susan, SuiteId::Filter, SuiteId::Histogram] {
        let sc = run(SystemKind::Scratch, id);
        let fu = run(SystemKind::Fusion, id);
        assert!(
            fu.cache_energy() > sc.cache_energy(),
            "{id}: expected FUSION to pay an energy penalty ({} vs {})",
            fu.cache_energy(),
            sc.cache_energy()
        );
        // ...while still recovering most of the performance (the paper
        // reports a simultaneous performance improvement).
        let sh = run(SystemKind::Shared, id);
        assert!(
            fu.total_cycles < sh.total_cycles,
            "{id}: FUSION slower than SHARED"
        );
    }
    // But on sharing-heavy suites FUSION *saves* energy vs SCRATCH.
    for id in [SuiteId::Fft, SuiteId::Tracking] {
        let sc = run(SystemKind::Scratch, id);
        let fu = run(SystemKind::Fusion, id);
        assert!(
            fu.cache_energy() < sc.cache_energy(),
            "{id}: FUSION must save energy ({} vs {})",
            fu.cache_energy(),
            sc.cache_energy()
        );
    }
}

#[test]
fn lesson5_write_through_is_expensive() {
    // Table 4: write-through multiplies AXC-L1X bandwidth.
    for id in [SuiteId::Adpcm, SuiteId::Histogram] {
        let wl = build_suite(id, Scale::Small);
        let wb = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
        let wt = run_system(
            SystemKind::Fusion,
            &wl,
            &SystemConfig::small().with_write_policy(WritePolicy::WriteThrough),
        )
        .unwrap();
        let wb_flits = wb.traffic().flits_axc_l1x.value();
        let wt_flits = wt.traffic().flits_axc_l1x.value();
        assert!(
            wt_flits > wb_flits,
            "{id}: write-through {wt_flits} flits !> write-back {wb_flits}"
        );
    }
}

#[test]
fn lesson6_dx_forwarding_saves_link_energy_on_fft() {
    // Table 5: FFT benefits from producer->consumer forwarding.
    let fu = run(SystemKind::Fusion, SuiteId::Fft);
    let dx = run(SystemKind::FusionDx, SuiteId::Fft);
    let fwd = dx.tile.expect("dx tile").fwd_l0_to_l0;
    assert!(fwd > 0, "FUSION-Dx forwarded nothing on FFT");
    let link = |r: &SimResult| {
        r.energy.energy(Component::LinkAxcL1xMsg).value()
            + r.energy.energy(Component::LinkAxcL1xData).value()
            + r.energy.energy(Component::LinkL0xFwd).value()
    };
    assert!(
        link(&dx) < link(&fu),
        "Dx AXC-link energy {} !< FUSION {}",
        link(&dx),
        link(&fu)
    );
    // And Dx stays within a few percent of FUSION's performance.
    assert!(dx.total_cycles <= fu.total_cycles + fu.total_cycles / 20);
}

#[test]
fn lesson7_larger_caches_are_not_better_for_small_working_sets() {
    // Figure 7: ADPCM/SUSAN/FILT (working sets < 30 kB) pay the LARGE
    // configuration's higher access energy for nothing.
    for id in [SuiteId::Adpcm, SuiteId::Susan, SuiteId::Filter] {
        let wl = build_suite(id, Scale::Small);
        let small = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
        let large = run_system(SystemKind::Fusion, &wl, &SystemConfig::large()).unwrap();
        assert!(
            large.cache_energy() > small.cache_energy(),
            "{id}: LARGE config should cost more energy ({} vs {})",
            large.cache_energy(),
            small.cache_energy()
        );
    }
}

#[test]
fn lesson8_translation_is_off_the_critical_path() {
    // Table 6: the AX-TLB only sees L1X-miss traffic, so its lookups are
    // a tiny fraction of the accelerator's accesses; its energy is < 1%.
    let fu = run(SystemKind::Fusion, SuiteId::Fft);
    let tile = fu.tile.expect("tile stats");
    assert!(
        fu.ax_tlb_lookups < tile.l0_accesses / 20,
        "AX-TLB lookups {} not filtered (accesses {})",
        fu.ax_tlb_lookups,
        tile.l0_accesses
    );
    let translation = fu.energy.energy(Component::Tlb) + fu.energy.energy(Component::Rmap);
    assert!(
        translation.value() < 0.01 * fu.cache_energy().value(),
        "translation energy {} exceeds 1% of {}",
        translation,
        fu.cache_energy()
    );
    // The SHARED design pays translation on every access instead.
    let sh = run(SystemKind::Shared, SuiteId::Fft);
    assert!(sh.ax_tlb_lookups > fu.ax_tlb_lookups * 10);
}

// The two extensions (DESIGN.md §7) are not lessons of the paper, but the
// same kind of claim: a direction, asserted here; the goldens pin values.

#[test]
fn extension_prefetch_degree_cuts_fusion_cycles_on_track() {
    // "It directly answers the paper's pull-vs-push observation": each
    // step up in L1X prefetch degree makes FUSION faster on TRACK, whose
    // miss streams are sequential, and every prefetch hit was installed.
    let wl = build_suite(SuiteId::Tracking, Scale::Tiny);
    let mut prev: Option<u64> = None;
    for degree in [0usize, 2, 4, 8] {
        let cfg = SystemConfig::small().with_l1x_prefetch(degree);
        let res = run_system(SystemKind::Fusion, &wl, &cfg).unwrap();
        let tile = res.tile.expect("fusion tile stats");
        if let Some(prev) = prev {
            assert!(
                res.total_cycles < prev,
                "degree {degree}: {} cycles !< {prev} at the lower degree",
                res.total_cycles
            );
            assert!(tile.prefetch_installs > 0, "degree {degree}: no installs");
            assert!(
                (1..=tile.prefetch_installs).contains(&tile.prefetch_hits),
                "degree {degree}: {} hits for {} installs",
                tile.prefetch_hits,
                tile.prefetch_installs
            );
        } else {
            assert_eq!(tile.prefetch_installs, 0, "degree 0 must not prefetch");
        }
        prev = Some(res.total_cycles);
    }
}

#[test]
fn extension_lease_renewal_replaces_refetches_on_fft() {
    // A renewal re-acquires an expired epoch with a message pair instead
    // of a 64-byte refetch: fewer L1X-to-L0X data transfers and less cache
    // energy, and never more cycles.
    let wl = build_suite(SuiteId::Fft, Scale::Tiny);
    let base = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
    let cfg = SystemConfig::small().with_lease_renewal(true);
    let renewed = run_system(SystemKind::Fusion, &wl, &cfg).unwrap();
    let bt = base.tile.expect("tile stats");
    let rt = renewed.tile.expect("tile stats");
    assert_eq!(bt.lease_renewals, 0, "renewal is off by default");
    assert!(rt.lease_renewals > 0, "FFT renewed no lease");
    assert!(
        rt.data_l1_to_l0 < bt.data_l1_to_l0,
        "data transfers {} !< {} without renewal",
        rt.data_l1_to_l0,
        bt.data_l1_to_l0
    );
    assert!(
        renewed.cache_energy() < base.cache_energy(),
        "cache energy {} !< {} without renewal",
        renewed.cache_energy(),
        base.cache_energy()
    );
    assert!(
        renewed.total_cycles <= base.total_cycles,
        "renewal cost cycles: {} > {}",
        renewed.total_cycles,
        base.total_cycles
    );
}
