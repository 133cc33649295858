//! Cross-crate integration: consistency invariants that must hold across
//! all four architectures for every workload.

use fusion_repro::core::runner::{run_system, SystemKind};
use fusion_repro::energy::Component;
use fusion_repro::types::SystemConfig;
use fusion_repro::workloads::{all_suites, build_suite, Scale, SuiteId};

const ALL_SYSTEMS: [SystemKind; 4] = [
    SystemKind::Scratch,
    SystemKind::Shared,
    SystemKind::Fusion,
    SystemKind::FusionDx,
];

#[test]
fn every_system_completes_every_suite() {
    for id in all_suites() {
        let wl = build_suite(id, Scale::Tiny);
        for kind in ALL_SYSTEMS {
            let res = run_system(kind, &wl, &SystemConfig::small()).unwrap();
            assert!(res.total_cycles > 0, "{id}/{kind}: zero cycles");
            assert!(res.cache_energy().value() > 0.0, "{id}/{kind}: zero energy");
            assert_eq!(res.phases.len(), wl.phases.len(), "{id}/{kind}");
        }
    }
}

#[test]
fn phase_cycles_partition_total() {
    for id in all_suites() {
        let wl = build_suite(id, Scale::Tiny);
        for kind in ALL_SYSTEMS {
            let res = run_system(kind, &wl, &SystemConfig::small()).unwrap();
            let sum: u64 = res.phases.iter().map(|p| p.cycles).sum();
            assert_eq!(
                sum, res.total_cycles,
                "{id}/{kind}: phase cycles don't partition the total"
            );
            let dma: u64 = res.phases.iter().map(|p| p.dma_cycles).sum();
            assert_eq!(
                dma, res.dma_cycles,
                "{id}/{kind}: phase DMA cycles don't sum to the run's"
            );
        }
    }
}

#[test]
fn simulations_are_deterministic() {
    for kind in ALL_SYSTEMS {
        let wl = build_suite(SuiteId::Susan, Scale::Tiny);
        let a = run_system(kind, &wl, &SystemConfig::small()).unwrap();
        let b = run_system(kind, &wl, &SystemConfig::small()).unwrap();
        assert_eq!(a.total_cycles, b.total_cycles, "{kind}");
        assert_eq!(a.energy, b.energy, "{kind}");
        assert_eq!(a.tile, b.tile, "{kind}");
    }
}

#[test]
fn workload_builds_are_deterministic() {
    for id in all_suites() {
        let a = build_suite(id, Scale::Tiny);
        let b = build_suite(id, Scale::Tiny);
        assert_eq!(a, b, "{id}: non-deterministic trace");
    }
}

#[test]
fn compute_energy_is_system_independent() {
    // The datapath does the same work on every architecture; only the
    // memory system differs.
    let wl = build_suite(SuiteId::Filter, Scale::Tiny);
    let reference = run_system(SystemKind::Scratch, &wl, &SystemConfig::small())
        .unwrap()
        .energy
        .energy(Component::Compute);
    for kind in ALL_SYSTEMS {
        let e = run_system(kind, &wl, &SystemConfig::small())
            .unwrap()
            .energy
            .energy(Component::Compute);
        assert_eq!(e, reference, "{kind}: compute energy diverged");
    }
}

#[test]
fn memory_cold_misses_are_equal_across_systems() {
    // Every system starts cold and touches the same working set: DRAM
    // access counts may differ slightly (writeback ordering) but the
    // first-touch fills are identical, so counts must be within the
    // working set's block count of each other.
    let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
    let blocks = wl.working_set().value() / 64;
    let counts: Vec<u64> = ALL_SYSTEMS
        .iter()
        .map(|&k| {
            run_system(k, &wl, &SystemConfig::small())
                .unwrap()
                .energy
                .count(Component::Memory)
        })
        .collect();
    let min = *counts.iter().min().unwrap();
    let max = *counts.iter().max().unwrap();
    assert!(
        max - min <= blocks,
        "memory traffic diverged: {counts:?} (working set {blocks} blocks)"
    );
}

#[test]
fn only_scratch_uses_dma_and_only_fusion_uses_the_tile() {
    let wl = build_suite(SuiteId::Fft, Scale::Tiny);
    for kind in ALL_SYSTEMS {
        let res = run_system(kind, &wl, &SystemConfig::small()).unwrap();
        match kind {
            SystemKind::Scratch => {
                assert!(res.dma_blocks > 0);
                assert!(res.tile.is_none());
                assert_eq!(res.ax_rmap_lookups, 0);
            }
            SystemKind::Shared => {
                assert_eq!(res.dma_blocks, 0);
                assert!(res.tile.is_none());
            }
            SystemKind::Fusion | SystemKind::FusionDx => {
                assert_eq!(res.dma_blocks, 0);
                assert!(res.tile.is_some());
            }
        }
    }
}

#[test]
fn fusion_dx_forwards_only_when_enabled() {
    let wl = build_suite(SuiteId::Fft, Scale::Tiny);
    let fu = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
    let dx = run_system(SystemKind::FusionDx, &wl, &SystemConfig::small()).unwrap();
    assert_eq!(fu.tile.unwrap().fwd_l0_to_l0, 0);
    assert!(dx.tile.unwrap().fwd_l0_to_l0 > 0);
    assert_eq!(fu.energy.count(Component::LinkL0xFwd), 0);
}

#[test]
fn large_config_runs_all_suites() {
    for id in all_suites() {
        let wl = build_suite(id, Scale::Tiny);
        let res = run_system(SystemKind::Fusion, &wl, &SystemConfig::large()).unwrap();
        assert!(res.total_cycles > 0, "{id} at LARGE config");
    }
}

#[test]
fn host_phases_cost_host_l1_energy() {
    // Every suite ends with a host phase; its accesses go through the
    // host L1, not the tile.
    for id in all_suites() {
        let wl = build_suite(id, Scale::Tiny);
        let res = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
        assert!(
            res.energy.count(Component::HostL1) > 0,
            "{id}: host phase produced no host-L1 accesses"
        );
    }
}
