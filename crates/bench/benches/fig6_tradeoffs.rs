//! Figure 6 regeneration: the SCRATCH / SHARED / FUSION comparison.

#![allow(clippy::unwrap_used, reason = "a bench stops on a failed run")]

use criterion::{criterion_group, criterion_main, Criterion};
use fusion_core::{run_system, SystemKind};
use fusion_workloads::{build_suite, Scale, SuiteId};

fn bench(c: &mut Criterion) {
    let wl = build_suite(SuiteId::Filter, Scale::Tiny);
    let mut g = c.benchmark_group("fig6");
    for kind in SystemKind::FIG6 {
        g.bench_function(format!("filter_tiny/{kind}"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    run_system(kind, &wl, &Default::default())
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
