//! Ablation: the L1X sequential stream prefetcher (DESIGN.md
//! "Extensions"). Reports, for the large-working-set suites, how much of
//! the oracle DMA's push advantage a simple pull-side prefetcher recovers.

#![allow(clippy::unwrap_used, reason = "a bench stops on a failed run")]

use criterion::{criterion_group, criterion_main, Criterion};
use fusion_core::{run_system, SystemKind};
use fusion_types::SystemConfig;
use fusion_workloads::{build_suite, Scale, SuiteId};

fn bench(c: &mut Criterion) {
    let wl = build_suite(SuiteId::Tracking, Scale::Tiny);
    for degree in [0usize, 2, 4, 8] {
        let cfg = SystemConfig::small().with_l1x_prefetch(degree);
        let res = run_system(SystemKind::Fusion, &wl, &cfg).unwrap();
        let t = res.tile.unwrap();
        println!(
            "prefetch ablation (TRACK tiny) degree={degree}: {} cycles, {} installs, {} hits",
            res.total_cycles, t.prefetch_installs, t.prefetch_hits,
        );
    }
    let mut g = c.benchmark_group("ablation_prefetch");
    for degree in [0usize, 4] {
        let cfg = SystemConfig::small().with_l1x_prefetch(degree);
        g.bench_function(format!("track_tiny/degree{degree}"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    run_system(SystemKind::Fusion, &wl, &cfg)
                        .unwrap()
                        .total_cycles,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
