//! Table 6 regeneration: AX-TLB / AX-RMAP lookup counting.

#![allow(clippy::unwrap_used, reason = "a bench stops on a failed run")]

use criterion::{criterion_group, criterion_main, Criterion};
use fusion_core::{run_system, SystemKind};
use fusion_workloads::{build_suite, Scale, SuiteId};

fn bench(c: &mut Criterion) {
    let wl = build_suite(SuiteId::Tracking, Scale::Tiny);
    c.bench_function("table6/fusion_translation_track_tiny", |b| {
        b.iter(|| {
            let res = run_system(SystemKind::Fusion, &wl, &Default::default()).unwrap();
            std::hint::black_box((res.ax_tlb_lookups, res.ax_rmap_lookups))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
