//! Design-space sweep: vary the private L0X and shared L1X sizes and the
//! write policy, reproducing the style of the paper's Section 5.3/5.5
//! studies on one workload.
//!
//! ```sh
//! cargo run --release --example design_space [fft|disp|track|adpcm|susan|filt|hist]
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example stops on a failed run"
)]

use fusion_repro::core::runner::{run_system, SystemKind};
use fusion_repro::types::{SystemConfig, WritePolicy};
use fusion_repro::workloads::{build_suite, Scale, SuiteId};

fn main() {
    let suite = match std::env::args().nth(1).as_deref() {
        Some("fft") => SuiteId::Fft,
        Some("disp") => SuiteId::Disparity,
        Some("track") => SuiteId::Tracking,
        Some("susan") => SuiteId::Susan,
        Some("filt") => SuiteId::Filter,
        Some("hist") => SuiteId::Histogram,
        _ => SuiteId::Adpcm,
    };
    let workload = build_suite(suite, Scale::Small);
    println!(
        "design space for {} ({} refs)\n",
        workload.name,
        workload.total_refs()
    );
    println!(
        "{:>6} {:>7} {:>12} {:>10} {:>12} {:>10}",
        "L0X", "L1X", "policy", "cycles", "cache pJ", "L0 hit%"
    );

    for l0_kb in [2usize, 4, 8, 16] {
        for l1_kb in [32usize, 64, 256] {
            for policy in [WritePolicy::WriteBack, WritePolicy::WriteThrough] {
                let mut cfg = SystemConfig::small();
                cfg.l0x.capacity_bytes = l0_kb * 1024;
                cfg.scratchpad.capacity_bytes = l0_kb * 1024;
                cfg.l1x.capacity_bytes = l1_kb * 1024;
                cfg.write_policy = policy;
                let res = run_system(SystemKind::Fusion, &workload, &cfg).unwrap();
                let tile = res.tile.expect("fusion tile stats");
                println!(
                    "{:>4}KB {:>5}KB {:>12} {:>10} {:>12.0} {:>10.1}",
                    l0_kb,
                    l1_kb,
                    format!("{policy:?}"),
                    res.total_cycles,
                    res.cache_energy().value(),
                    100.0 * tile.l0_hits as f64 / tile.l0_accesses.max(1) as f64,
                );
            }
        }
    }

    println!(
        "\nLesson 7 (\"larger may not be better\"): watch the energy column \
         grow with capacity\nwhile cycles barely move once the working set fits."
    );
}
