//! In-process replay-throughput probe: runs each (suite, system) grid
//! point many times and reports the *minimum* wall time per run, which is
//! far less scheduler-noisy than one-shot sweep timings. Used to validate
//! hot-loop optimizations before ratcheting `BENCH_sweep.json`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a profiling binary: a failed run should stop it loudly"
)]

use std::time::Instant;

use fusion_accel::{kind_runs_of, DecodedTrace, MemRef};
use fusion_core::result::duration_nanos_saturating;
use fusion_core::runner::{run_system_decoded, SystemKind};
use fusion_types::SystemConfig;
use fusion_workloads::{build_suite, Scale, SuiteId};

fn main() {
    let arg1 = std::env::args().nth(1);
    if arg1.as_deref() == Some("mix") {
        // Print the host/accelerator reference mix per suite: slow rows
        // whose refs are mostly host-side point at `host_access`, not the
        // tile hot loop. Also the same-kind runs the replay finds over
        // every phase's kind lane and their mean length: a stored run
        // (24 bytes) would pay only where refs per run is large. Last,
        // the heap bytes of the recorded MemRefs and of the decoded
        // trace: the sweep's trace cache keeps only the latter, so a
        // cache that kept both would grow by the former.
        let scale = match std::env::args().nth(2).as_deref() {
            None | Some("small") => Scale::Small,
            Some("tiny") => Scale::Tiny,
            Some("paper") => Scale::Paper,
            Some(other) => {
                eprintln!("profile_hot mix: unknown scale {other:?} (tiny, small, paper)");
                std::process::exit(2);
            }
        };
        const MB: f64 = 1024.0 * 1024.0;
        let (mut all_refs, mut all_runs) = (0usize, 0usize);
        let (mut all_memref_bytes, mut all_decoded_bytes) = (0usize, 0usize);
        for suite in SuiteId::ALL {
            let wl = build_suite(suite, scale);
            let decoded = DecodedTrace::decode(&wl);
            let (mut host, mut axc, mut runs, mut memref_bytes) = (0u64, 0u64, 0usize, 0usize);
            for (idx, p) in wl.phases.iter().enumerate() {
                let n = p.refs.len() as u64;
                if p.unit.is_host() {
                    host += n;
                } else {
                    axc += n;
                }
                runs += kind_runs_of(decoded.phase(idx).kinds).count();
                // The bytes the references fill: a recorder's growth
                // slack is never touched, so it never becomes resident.
                memref_bytes += p.refs.len() * std::mem::size_of::<MemRef>();
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the refs already sit in memory, so their count fits usize"
            )]
            let refs = (host + axc) as usize;
            let decoded_bytes = decoded.heap_bytes();
            println!(
                "{suite:?}: {host} host + {axc} axc refs ({:.1}% host), \
                 {runs} kind runs ({:.2} refs/run), \
                 {:.1} MB MemRefs, {:.1} MB decoded",
                host as f64 * 100.0 / refs as f64,
                refs as f64 / runs.max(1) as f64,
                memref_bytes as f64 / MB,
                decoded_bytes as f64 / MB
            );
            all_refs += refs;
            all_runs += runs;
            all_memref_bytes += memref_bytes;
            all_decoded_bytes += decoded_bytes;
        }
        println!(
            "all: {all_refs} refs, {all_runs} kind runs ({:.2} refs/run), \
             {:.1} MB MemRefs, {:.1} MB decoded",
            all_refs as f64 / all_runs.max(1) as f64,
            all_memref_bytes as f64 / MB,
            all_decoded_bytes as f64 / MB
        );
        return;
    }
    if arg1.as_deref() == Some("memo") {
        // Replay-cost anatomy of the memoized design grid: one sequential
        // pass over `design_grid`, reporting whether every job was
        // replayed or copied from its group's first member and the
        // replay wall time per reference, so a hot-loop or slice-table
        // change shows up as a per-ref ns shift or a copy count rather
        // than a noisy end-to-end number (DESIGN.md §12).
        use fusion_core::sweep::{design_grid, Sweep};
        use fusion_core::MemoMark;
        let outcomes = Sweep::new(Scale::Small)
            .threads(1)
            .run(design_grid(&SystemConfig::small()));
        let (mut copied, mut replayed, mut refs, mut wall) = (0usize, 0usize, 0u64, 0u64);
        println!(
            "{:<22} {:<5} {:>10} {:>10} {:>9}",
            "job", "memo", "refs", "wall us", "ns/ref"
        );
        for o in &outcomes {
            let r = o.result.as_ref().expect("job ok");
            let m = r.metrics;
            println!(
                "{:<22} {:<5} {:>10} {:>10.1} {:>9.1}",
                o.job.label(),
                o.memo.mark.label(),
                m.refs_simulated,
                m.wall_nanos as f64 / 1e3,
                m.wall_nanos as f64 / m.refs_simulated.max(1) as f64,
            );
            if o.memo.mark == MemoMark::Hit {
                copied += 1;
            } else {
                replayed += 1;
                refs += m.refs_simulated;
                wall += m.wall_nanos;
            }
        }
        println!(
            "memo: {replayed} replayed ({:.1} ns/ref), {copied} copied",
            wall as f64 / refs.max(1) as f64
        );
        return;
    }
    if arg1.as_deref() == Some("sweep2") {
        // Run the real sweep engine twice in one process (shared trace
        // cache): pass 2 isolates engine overhead from one-shot coldness.
        use fusion_core::sweep::{Sweep, SweepJob, TraceCache};
        use std::sync::Arc;
        let traces = Arc::new(TraceCache::new());
        for pass in 1..=2 {
            let jobs: Vec<SweepJob> = SuiteId::ALL
                .into_iter()
                .flat_map(|suite| {
                    [
                        SystemKind::Scratch,
                        SystemKind::Shared,
                        SystemKind::Fusion,
                        SystemKind::FusionDx,
                    ]
                    .map(|k| SweepJob::new(k, suite, SystemConfig::small()))
                })
                .collect();
            let sweep = Sweep::new(Scale::Small)
                .threads(1)
                .with_trace_cache(traces.clone());
            let outcomes = sweep.run(jobs);
            let (mut refs, mut ns) = (0u64, 0u64);
            for o in &outcomes {
                let r = o.result.as_ref().expect("job ok");
                refs += r.metrics.refs_simulated;
                ns += r.metrics.wall_nanos;
            }
            println!(
                "pass {pass}: {:.2} Mrefs/s ({refs} refs, {:.1} ms)",
                refs as f64 * 1000.0 / ns as f64,
                ns as f64 / 1e6
            );
        }
        return;
    }
    let iters: u32 = arg1.and_then(|s| s.parse().ok()).unwrap_or(20);
    let cfg = SystemConfig::small();
    let systems = [
        SystemKind::Scratch,
        SystemKind::Shared,
        SystemKind::Fusion,
        SystemKind::FusionDx,
    ];
    let mut total_refs = 0u64;
    let mut total_best_ns = 0u64;
    for suite in SuiteId::ALL {
        let wl = build_suite(suite, Scale::Small);
        let decoded = DecodedTrace::decode(&wl);
        let refs = decoded.total_refs();
        for kind in systems {
            let mut best = u64::MAX;
            let mut l2 = 0u64;
            for _ in 0..iters {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "host wall time is what this probe reports"
                )]
                let t = Instant::now();
                let res = run_system_decoded(kind, &wl, &decoded, &cfg).expect("run");
                let ns = duration_nanos_saturating(t.elapsed());
                std::hint::black_box(res.total_cycles);
                l2 = res.l2_accesses;
                best = best.min(ns);
            }
            println!(
                "{suite:?}/{kind}: {:.1} Mrefs/s ({:.1} ns/ref, {:.3} L2/ref)",
                refs as f64 * 1000.0 / best as f64,
                best as f64 / refs as f64,
                l2 as f64 / refs as f64
            );
            total_refs += refs;
            total_best_ns += best;
        }
    }
    println!(
        "aggregate(best): {:.2} Mrefs/s",
        total_refs as f64 * 1000.0 / total_best_ns as f64
    );
}
