//! Table 1 regeneration: trace analyses (op mix, sharing degree) over the
//! benchmark suites.

use criterion::{criterion_group, criterion_main, Criterion};
use fusion_accel::DecodedTrace;
use fusion_workloads::{all_suites, build_suite, Scale};

fn bench(c: &mut Criterion) {
    let workloads: Vec<_> = all_suites()
        .into_iter()
        .map(|id| {
            let wl = build_suite(id, Scale::Tiny);
            let trace = DecodedTrace::decode(&wl);
            (wl, trace)
        })
        .collect();
    c.bench_function("table1/op_mix_and_sharing_all_suites", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for (wl, trace) in &workloads {
                // A fresh clone drops the memoized statistics, so every
                // iteration recomputes them.
                let trace = trace.clone();
                for f in &trace.trace_stats(wl).functions {
                    acc += f.op_mix().ld_pct + f.sharing_degree();
                }
            }
            std::hint::black_box(acc)
        })
    });
    c.bench_function("table1/trace_generation_adpcm", |b| {
        b.iter(|| std::hint::black_box(build_suite(fusion_workloads::SuiteId::Adpcm, Scale::Tiny)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
