//! Table 3 regeneration: per-function FUSION execution metrics.

#![allow(clippy::unwrap_used, reason = "a bench stops on a failed run")]

use criterion::{criterion_group, criterion_main, Criterion};
use fusion_core::{run_system, SystemKind};
use fusion_workloads::{build_suite, Scale, SuiteId};

fn bench(c: &mut Criterion) {
    let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
    c.bench_function("table3/fusion_run_adpcm_tiny", |b| {
        b.iter(|| {
            let res = run_system(SystemKind::Fusion, &wl, &Default::default()).unwrap();
            std::hint::black_box(res.function_totals("coder"))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
