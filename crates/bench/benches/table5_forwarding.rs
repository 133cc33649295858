//! Table 5 regeneration: FUSION-Dx write-forwarding identification + run.

#![allow(clippy::unwrap_used, reason = "a bench stops on a failed run")]

use criterion::{criterion_group, criterion_main, Criterion};
use fusion_bench::forwardable_pairs;
use fusion_core::{run_system, SystemKind};
use fusion_workloads::{build_suite, Scale, SuiteId};

fn bench(c: &mut Criterion) {
    let wl = build_suite(SuiteId::Fft, Scale::Tiny);
    c.bench_function("table5/forward_pair_identification_fft", |b| {
        b.iter(|| std::hint::black_box(forwardable_pairs(&wl)))
    });
    c.bench_function("table5/fusion_dx_run_fft_tiny", |b| {
        b.iter(|| {
            let res = run_system(SystemKind::FusionDx, &wl, &Default::default()).unwrap();
            std::hint::black_box(res.tile.unwrap().fwd_l0_to_l0)
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
