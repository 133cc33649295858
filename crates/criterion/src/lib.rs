//! Minimal, dependency-free stand-in for the `criterion` benchmark
//! harness.
//!
//! The repository must build in environments with no network access and no
//! cargo registry cache, so the real `criterion` crate cannot be fetched.
//! This shim exposes the exact subset of its API the `fusion-bench`
//! benches use — [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`Bencher::iter`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros — backed by a simple
//! warmup-then-measure loop over [`std::time::Instant`].
//!
//! Timings are reported as median nanoseconds per iteration. The harness
//! honours two environment variables:
//!
//! * `FUSION_BENCH_BUDGET_MS` — per-benchmark measurement budget
//!   (default 300 ms),
//! * `FUSION_BENCH_MIN_ITERS` — minimum measured iterations (default 5).

use std::time::{Duration, Instant};

/// Per-benchmark measurement budget.
fn budget() -> Duration {
    std::env::var("FUSION_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_millis(300))
}

/// Minimum number of measured iterations.
fn min_iters() -> u64 {
    std::env::var("FUSION_BENCH_MIN_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

/// Prevents the optimizer from discarding a benchmarked value.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Timing handle passed to each benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    /// Runs `f` repeatedly — one warmup call, then measured iterations
    /// until the time budget or the minimum iteration count is reached —
    /// recording one wall-time sample per call.
    #[expect(
        clippy::disallowed_methods,
        reason = "this timing shim exists to measure host wall time"
    )]
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f());
        let budget = budget();
        let min = min_iters();
        let started = Instant::now();
        while (self.samples.len() as u64) < min || started.elapsed() < budget {
            let t = Instant::now();
            black_box(f());
            self.samples.push(t.elapsed());
            if self.samples.len() as u64 >= min && started.elapsed() >= budget {
                break;
            }
        }
    }
}

fn report(name: &str, samples: &mut [Duration]) {
    if samples.is_empty() {
        println!("{name:<40} (no samples)");
        return;
    }
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    let min = samples[0];
    let max = samples[samples.len() - 1];
    println!(
        "{name:<40} median {:>12.1?}  min {:>12.1?}  max {:>12.1?}  ({} iters)",
        median,
        min,
        max,
        samples.len()
    );
}

/// Top-level benchmark registry, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = name.into();
        let mut b = Bencher {
            samples: Vec::new(),
        };
        f(&mut b);
        report(&name, &mut b.samples);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark within the group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name.into());
        let mut b = Bencher {
            samples: Vec::new(),
        };
        f(&mut b);
        report(&full, &mut b.samples);
        self
    }

    /// Ends the group (reporting happens eagerly; this is a no-op kept for
    /// API compatibility).
    pub fn finish(self) {}
}

/// Declares a group function that runs each listed benchmark function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares `main` from one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        std::env::set_var("FUSION_BENCH_BUDGET_MS", "1");
        let mut c = Criterion::default();
        let mut calls = 0u64;
        c.bench_function("shim/smoke", |b| b.iter(|| calls += 1));
        assert!(calls > 0);
    }

    #[test]
    fn group_runs_and_finishes() {
        std::env::set_var("FUSION_BENCH_BUDGET_MS", "1");
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        let mut hits = 0u64;
        g.bench_function("grouped", |b| b.iter(|| hits += 1));
        drop(g);
        assert!(hits > 0);
    }
}
