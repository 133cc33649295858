//! Figure 7 regeneration: LARGE vs SMALL accelerator cache configuration.

#![allow(clippy::unwrap_used, reason = "a bench stops on a failed run")]

use criterion::{criterion_group, criterion_main, Criterion};
use fusion_core::{run_system, SystemKind};
use fusion_types::SystemConfig;
use fusion_workloads::{build_suite, Scale, SuiteId};

fn bench(c: &mut Criterion) {
    let wl = build_suite(SuiteId::Susan, Scale::Tiny);
    let mut g = c.benchmark_group("fig7");
    g.bench_function("small", |b| {
        b.iter(|| {
            std::hint::black_box(
                run_system(SystemKind::Fusion, &wl, &SystemConfig::small())
                    .unwrap()
                    .cache_energy(),
            )
        })
    });
    g.bench_function("large", |b| {
        b.iter(|| {
            std::hint::black_box(
                run_system(SystemKind::Fusion, &wl, &SystemConfig::large())
                    .unwrap()
                    .cache_energy(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
