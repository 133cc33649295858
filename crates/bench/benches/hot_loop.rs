//! Hot-path microbenchmarks: trace decoding vs. the two replay paths.
//!
//! `decode` measures the one-time cost of flattening a workload into the
//! [`fusion_accel::DecodedTrace`] SoA layout; `replay_memref` drives the
//! issue engine straight off materialized `MemRef`s; `replay_decoded`
//! drives the same engine off the decoded arrays and kind runs the way the
//! sweep does.
//! The two replay numbers bound the per-run win of sharing one decode
//! across a whole sweep grid.

use criterion::{criterion_group, criterion_main, Criterion};
use fusion_accel::{run_phase, run_phase_kind_runs, DecodedTrace};
use fusion_types::Cycle;
use fusion_workloads::{build_suite, Scale, SuiteId};

fn bench(c: &mut Criterion) {
    let workload = build_suite(SuiteId::Fft, Scale::Tiny);
    let decoded = DecodedTrace::decode(&workload);

    let mut g = c.benchmark_group("hot_loop");
    g.bench_function("decode/fft_tiny", |b| {
        b.iter(|| std::hint::black_box(DecodedTrace::decode(&workload).total_refs()))
    });
    g.bench_function("replay_memref/fft_tiny", |b| {
        b.iter(|| {
            let mut cycles = 0u64;
            for phase in &workload.phases {
                let t = run_phase(&phase.refs, phase.mlp.max(1), Cycle::ZERO, |r, now| {
                    // Flat 4-cycle memory plus a touch of the decoded
                    // fields so both paths read the same data per ref.
                    now + 4 + (r.kind.is_write() as u64)
                });
                cycles += t.cycles();
            }
            std::hint::black_box(cycles)
        })
    });
    g.bench_function("replay_decoded/fft_tiny", |b| {
        b.iter(|| {
            let mut cycles = 0u64;
            for idx in 0..decoded.phase_count() {
                let dp = decoded.phase(idx);
                let mlp = workload.phases[idx].mlp.max(1);
                let t = run_phase_kind_runs(
                    dp.len(),
                    |i| dp.gaps[i],
                    mlp,
                    Cycle::ZERO,
                    decoded.phase_kind_runs(idx).iter().copied(),
                    |_i, now, is_write| now + 4 + (is_write as u64),
                );
                cycles += t.cycles();
            }
            std::hint::black_box(cycles)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
