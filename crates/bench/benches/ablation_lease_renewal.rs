//! Ablation: the ACC lease-renewal extension (DESIGN.md "Extensions").
//!
//! Compares FUSION with and without data-free epoch renewals on a
//! lease-expiry-heavy workload, and reports the simulated effect in the
//! bench output.

#![allow(clippy::unwrap_used, reason = "a bench stops on a failed run")]

use criterion::{criterion_group, criterion_main, Criterion};
use fusion_core::{run_system, SystemKind};
use fusion_types::SystemConfig;
use fusion_workloads::{build_suite, Scale, SuiteId};

fn bench(c: &mut Criterion) {
    let wl = build_suite(SuiteId::Fft, Scale::Tiny);
    let base = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
    let renewed = run_system(
        SystemKind::Fusion,
        &wl,
        &SystemConfig::small().with_lease_renewal(true),
    )
    .unwrap();
    println!(
        "lease renewal ablation (FFT tiny): {} renewals, data transfers {} -> {}, \
         cache energy {:.0} -> {:.0} pJ",
        renewed.tile.unwrap().lease_renewals,
        base.tile.unwrap().data_l1_to_l0,
        renewed.tile.unwrap().data_l1_to_l0,
        base.cache_energy().value(),
        renewed.cache_energy().value(),
    );
    let mut g = c.benchmark_group("ablation_lease_renewal");
    g.bench_function("fusion_baseline", |b| {
        b.iter(|| std::hint::black_box(run_system(SystemKind::Fusion, &wl, &SystemConfig::small())))
    });
    g.bench_function("fusion_renewal", |b| {
        let cfg = SystemConfig::small().with_lease_renewal(true);
        b.iter(|| std::hint::black_box(run_system(SystemKind::Fusion, &wl, &cfg)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
