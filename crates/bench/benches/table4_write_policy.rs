//! Table 4 regeneration: write-through vs write-back L0X bandwidth.

#![allow(clippy::unwrap_used, reason = "a bench stops on a failed run")]

use criterion::{criterion_group, criterion_main, Criterion};
use fusion_core::{run_system, SystemKind};
use fusion_types::{SystemConfig, WritePolicy};
use fusion_workloads::{build_suite, Scale, SuiteId};

fn bench(c: &mut Criterion) {
    let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
    let mut g = c.benchmark_group("table4");
    g.bench_function("writeback", |b| {
        b.iter(|| {
            let res = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
            std::hint::black_box(res.traffic().flits_axc_l1x)
        })
    });
    g.bench_function("write_through", |b| {
        let cfg = SystemConfig::small().with_write_policy(WritePolicy::WriteThrough);
        b.iter(|| {
            let res = run_system(SystemKind::Fusion, &wl, &cfg).unwrap();
            std::hint::black_box(res.traffic().flits_axc_l1x)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
