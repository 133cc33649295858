//! The paper's Figure 1 scenario: an image-processing program whose steps
//! are offloaded to different accelerators, with the final step in
//! software on the host.
//!
//! The histogram-equalization suite is exactly this pipeline
//! (`rgb2hsl -> histogram -> equalize -> hsl2rgb -> host digest`). This
//! example runs it on all four architectures and reports how each one
//! moves the intermediate data.
//!
//! ```sh
//! cargo run --release --example image_pipeline
//! ```

#![allow(clippy::unwrap_used, reason = "an example stops on a failed run")]

use fusion_repro::core::runner::{run_system, SystemKind};
use fusion_repro::energy::Component;
use fusion_repro::workloads::{build_suite, Scale, SuiteId};

fn main() {
    let workload = build_suite(SuiteId::Histogram, Scale::Small);
    println!(
        "image pipeline ({}): {} phases over {} accelerators + host, {} working set\n",
        workload.name,
        workload.phases.len(),
        workload.axc_count(),
        workload.working_set(),
    );

    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "system", "cycles", "cache pJ", "L2+link pJ", "DMA blocks", "fwd reqs"
    );
    for kind in [
        SystemKind::Scratch,
        SystemKind::Shared,
        SystemKind::Fusion,
        SystemKind::FusionDx,
    ] {
        let res = run_system(kind, &workload, &Default::default()).unwrap();
        let l2_and_link = res.energy.energy(Component::L2)
            + res.energy.energy(Component::LinkL1xL2Msg)
            + res.energy.energy(Component::LinkL1xL2Data);
        println!(
            "{:<10} {:>10} {:>12.0} {:>12.0} {:>12} {:>10}",
            res.system,
            res.total_cycles,
            res.cache_energy().value(),
            l2_and_link.value(),
            res.dma_blocks,
            res.host_forwards,
        );
    }

    println!(
        "\nThe SCRATCH baseline ping-pongs every intermediate plane through \
         the host L2 via DMA;\nFUSION keeps the `tmp` planes inside the \
         accelerator tile and the host's final step\npulls results through \
         ordinary MESI forwarded requests."
    );
}
