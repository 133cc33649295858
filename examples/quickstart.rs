//! Quickstart: simulate one workload on the FUSION architecture.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example stops on a failed run"
)]

use fusion_repro::core::runner::{run_system, SystemKind};
use fusion_repro::workloads::{build_suite, Scale, SuiteId};

fn main() {
    // Build the ADPCM workload (coder + decoder accelerators) at a small
    // input scale. The kernels really run: the trace is their dynamic
    // memory behaviour.
    let workload = build_suite(SuiteId::Adpcm, Scale::Small);
    println!(
        "workload {}: {} accelerators, {} phases, {} refs, {} working set",
        workload.name,
        workload.axc_count(),
        workload.phases.len(),
        workload.total_refs(),
        workload.working_set(),
    );

    // Run it on the FUSION coherent cache hierarchy.
    let res = run_system(SystemKind::Fusion, &workload, &Default::default()).unwrap();
    println!(
        "\nFUSION: {} cycles, {} cache-hierarchy energy",
        res.total_cycles,
        res.cache_energy(),
    );
    let tile = res.tile.expect("FUSION reports tile statistics");
    println!(
        "L0X hit rate {:.1}% ({} accesses, {} lease expiries)",
        100.0 * tile.l0_hits as f64 / tile.l0_accesses as f64,
        tile.l0_accesses,
        tile.l0_lease_expiries,
    );
    println!("\nenergy breakdown:\n{}", res.energy);

    // And compare with the scratchpad + oracle-DMA baseline.
    let sc = run_system(SystemKind::Scratch, &workload, &Default::default()).unwrap();
    println!(
        "SCRATCH: {} cycles ({:.0}% in DMA transfers), {} cache-hierarchy energy",
        sc.total_cycles,
        100.0 * sc.dma_time_fraction(),
        sc.cache_energy(),
    );
}
