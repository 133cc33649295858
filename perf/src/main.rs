//! `perf`: runs the benchmark, its traced run, and parent-versus-change
//! comparisons. See `README.md` for the workloads, the metrics and the
//! rule `perf compare` applies.
//!
//! A run is a closed loop: one child process at a time, each simulating
//! with one worker. Every child's stdout goes to a file, never a pipe,
//! and is checked against the workload's expected digest.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use fusion_core::journal::fnv1a;
use fusion_core::SplitMix64;
use fusion_perf::calibrate::{Reference, REFERENCE_S};
use fusion_perf::compare::{self, Record, Verdict};
use fusion_perf::layers::{self, Plan};
use fusion_perf::output::{self, SweepRow};
use fusion_perf::spec::{self, Kind, Spec, END_TO_END, LAYERS, WORKLOADS};
use fusion_perf::stats::{median, Summary};

const USAGE: &str = "\
usage:
  perf run     [--workload <name>]... [--seed <n>] [--seconds <s>] [--trace 0|1]
               [--out <records.jsonl>] [--bin-dir <dir>]
  perf trace   [--workload <name>]... [--seconds <s>] [--out <records.jsonl>]
               [--bin-dir <dir>]
  perf compare <parent.jsonl> <change.jsonl>

workloads: grid_paper grid_small replay_paper tables_paper (default: all)
  --seconds  measuring time per workload (default 20)
  --out      append one record line per workload, for perf compare
  --bin-dir  directory holding the sim and tables binaries
             (default $CARGO_TARGET_DIR/release, else target/release)
Run from the repository root. Scratch files and spans go to target/perf/.
exit codes: 0 ok, 1 an output was wrong or compare found a regression, 2 usage error";

/// Set-up repetitions per workload per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Timed child runs per workload, whatever `--seconds` allows.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 500;
/// One reference-kernel sample per this much child wall time (at least
/// one per operation), so long children are calibrated as finely as
/// short ones.
const KERNEL_SPACING_S: f64 = 1.0;

#[derive(Debug)]
struct Opts {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    bin_dir: PathBuf,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let mut opts = Opts {
        workloads: Vec::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        out: None,
        bin_dir: target.join("release"),
    };
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{key} requires a value"));
        match key.as_str() {
            "--workload" => {
                let name = value()?;
                let w = spec::workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
                if !opts.workloads.iter().any(|x| x.name == w.name) {
                    opts.workloads.push(w);
                }
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed expects a u64")?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds expects a positive number")?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--bin-dir" => opts.bin_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.iter().collect();
    }
    Ok(opts)
}

/// Where child outputs, journals and span files go.
fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from("target").join("perf");
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// One child process: its wall time, peak resident set and output.
struct ChildRun {
    wall_s: f64,
    peak_rss_mb: f64,
    stdout: Vec<u8>,
    failure: Option<String>,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s, the
/// first of which is the peak resident set in kB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    other: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins this process, and every child it starts from now on, to the CPU
/// it is running on. The reference kernel then times the CPU the
/// children run on: on a shared host each CPU slows on its own.
fn pin_to_current_cpu() -> std::io::Result<()> {
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| std::io::Error::last_os_error())?;
    // A C `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::other(format!("CPU {cpu} is past the CPU set")))? |=
        1 << (cpu % 64);
    // SAFETY: `mask` is live for the call and `cpusetsize` is its exact
    // size in bytes, so the kernel reads only inside it.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// Reaps child `pid` and returns its raw wait status and its peak
/// resident set in kB, as the kernel recorded them. The standard library
/// has no call that reports a child's resource usage.
fn reap(pid: u32) -> std::io::Result<(i32, u64)> {
    let pid = i32::try_from(pid).map_err(std::io::Error::other)?;
    let mut status = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and exclusively
        // borrowed for the call, and `Rusage` has the layout of the C
        // `struct rusage` that `wait4` writes on 64-bit Linux.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            return Ok((status, u64::try_from(usage.maxrss_kb).unwrap_or(0)));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

fn run_child(bin_dir: &Path, work: &Path, spec: &Spec) -> ChildRun {
    let (program, args) = spec.command(&work.join(format!("{}.wal", spec.name)));
    let program = bin_dir.join(program);
    let out_path = work.join(format!("{}.out", spec.name));
    let err_path = work.join(format!("{}.err", spec.name));
    let failed = |msg: String| ChildRun {
        wall_s: 0.0,
        peak_rss_mb: 0.0,
        stdout: Vec::new(),
        failure: Some(msg),
    };
    let files = fs::File::create(&out_path).and_then(|o| Ok((o, fs::File::create(&err_path)?)));
    let (stdout, stderr) = match files {
        Ok(f) => f,
        Err(e) => {
            return failed(format!(
                "cannot create output files in {}: {e}",
                work.display()
            ))
        }
    };
    let started = Instant::now();
    let spawned = Command::new(&program)
        .args(&args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn();
    let child = match spawned {
        Ok(c) => c,
        Err(e) => return failed(format!("cannot start {}: {e}", program.display())),
    };
    let reaped = reap(child.id());
    let wall = started.elapsed();
    let (status, peak_kb) = match reaped {
        Ok(r) => r,
        Err(e) => return failed(format!("waiting for {}: {e}", program.display())),
    };
    // A normal exit has no signal bits and the exit code in bits 8..16.
    let failure = if status & 0x7f != 0 || (status >> 8) & 0xff != 0 {
        let err = fs::read_to_string(&err_path).unwrap_or_default();
        let tail: Vec<&str> = err.lines().rev().take(5).collect();
        Some(format!(
            "{} {} ended with wait status {status:#x}: {}",
            program.display(),
            args.join(" "),
            tail.join(" | ")
        ))
    } else {
        None
    };
    match fs::read(&out_path) {
        Ok(stdout) => ChildRun {
            wall_s: wall.as_secs_f64(),
            peak_rss_mb: peak_kb as f64 / 1024.0,
            stdout,
            failure,
        },
        Err(e) => failed(format!("cannot read {}: {e}", out_path.display())),
    }
}

/// Checks a child's output against the workload's digest; returns the
/// sweep rows (empty for `tables`) or why the run counts as failed.
fn check(spec: &Spec, run: &ChildRun) -> Result<Vec<SweepRow>, String> {
    if let Some(f) = &run.failure {
        return Err(f.clone());
    }
    let (digest, rows) = match spec.kind {
        Kind::Sweep { .. } => {
            let text = std::str::from_utf8(&run.stdout).map_err(|_| "sweep output is not UTF-8")?;
            let out = output::parse_sweep(text)?;
            let failed = out
                .rows
                .iter()
                .filter(|r| r.result_digest.is_none())
                .count();
            if failed > 0 {
                return Err(format!("{failed} sweep job(s) failed"));
            }
            (out.digest, out.rows)
        }
        Kind::Tables => (fnv1a(&run.stdout), Vec::new()),
    };
    if digest != spec.expected_digest {
        return Err(format!(
            "{} output digest {digest:016x}, expected {:016x}",
            spec.name, spec.expected_digest
        ));
    }
    Ok(rows)
}

/// Replayed references per second of replay time, over the rows the
/// memo did not splice.
fn replay_mrefs_per_s(rows: &[SweepRow]) -> f64 {
    let (refs, ms) = rows
        .iter()
        .filter(|r| !r.spliced)
        .fold((0u64, 0.0), |(n, t), r| (n + r.refs, t + r.wall_ms));
    refs as f64 / ms / 1e3
}

/// Operations attempted and failed; each failure is reported on stderr.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn note<T>(&mut self, workload: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perf: {workload}: FAILED: {e}");
                None
            }
        }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// One workload's samples within a run. Each time is kept raw, with the
/// index of the reference-kernel batch timed just before it; the batch
/// after it has the next index.
struct Samples {
    spec: &'static Spec,
    jobs: Vec<fusion_core::SweepJob>,
    plan: Plan,
    wall: Vec<(f64, usize)>,
    rss: Vec<f64>,
    /// Sweeps only: `tables` prints no per-job times.
    replay: Vec<(f64, usize)>,
    setup: Vec<(f64, usize)>,
    kernel_per_child: usize,
    spent_s: f64,
    refs: u64,
    tally: Tally,
}

impl Samples {
    /// Wall, set-up and replay samples, each time scaled by `speed` of
    /// its kernel batch and each rate by the inverse.
    fn scaled(&self, speed: impl Fn(usize) -> f64) -> [Vec<f64>; 3] {
        let wall: Vec<f64> = self.wall.iter().map(|&(w, b)| w * speed(b)).collect();
        let setup: Vec<f64> = self.setup.iter().map(|&(t, b)| t * speed(b)).collect();
        let replay = match self.spec.kind {
            Kind::Sweep { .. } => self.replay.iter().map(|&(r, b)| r / speed(b)).collect(),
            // `tables` prints no per-job times: its replay time is taken
            // as the child's wall time less the set-up it does first.
            Kind::Tables => {
                let setup = median(&setup).unwrap_or(f64::NAN);
                wall.iter()
                    .map(|w| self.refs as f64 / (w - setup) / 1e6)
                    .collect()
            }
        };
        [wall, setup, replay]
    }
}

#[derive(Clone, Copy)]
enum Slot {
    Child,
    SetUp,
}

fn run_cmd(opts: &Opts) -> Result<bool, String> {
    let work = work_dir()?;
    if let Err(e) = pin_to_current_cpu() {
        eprintln!(
            "perf: not pinned to one CPU ({e}); calibration may track the children less well"
        );
    }
    let mut rng = SplitMix64(opts.seed);
    let mut order = opts.workloads.clone();
    shuffle(&mut order, &mut rng);
    let mut all: Vec<Samples> = Vec::new();
    let mut slots: Vec<(usize, Slot)> = Vec::new();
    for spec in order {
        let jobs = spec.jobs();
        let plan = Plan::of(&jobs);
        let mut tally = Tally::default();
        // One untimed warm-up: page cache, allocator, CPU frequency.
        let warm = run_child(&opts.bin_dir, &work, spec);
        tally.note(spec.name, check(spec, &warm));
        let (reps, kernel_per_child) = if warm.wall_s > 0.0 {
            let kernels = (warm.wall_s / KERNEL_SPACING_S).ceil() as usize;
            let slot_s = warm.wall_s + kernels as f64 * REFERENCE_S;
            // Headroom for a machine that speeds up after the warm-up;
            // the loop below stops at the time budget either way.
            let reps = ((1.5 * opts.seconds / slot_s).ceil() as usize).clamp(MIN_REPS, MAX_REPS);
            (reps, kernels)
        } else {
            (MIN_REPS, 1)
        };
        let idx = all.len();
        slots.extend((0..reps).map(|_| (idx, Slot::Child)));
        slots.extend((0..SETUP_REPS).map(|_| (idx, Slot::SetUp)));
        all.push(Samples {
            spec,
            jobs,
            plan,
            wall: Vec::new(),
            rss: Vec::new(),
            replay: Vec::new(),
            setup: Vec::new(),
            kernel_per_child,
            spent_s: 0.0,
            refs: 0,
            tally,
        });
    }
    shuffle(&mut slots, &mut rng);
    let mut reference = Reference::new();
    let mut batches: Vec<Vec<f64>> = Vec::new();
    for (idx, slot) in slots {
        let s = &mut all[idx];
        if matches!(slot, Slot::Child) && s.spent_s >= opts.seconds && s.wall.len() >= MIN_REPS {
            continue;
        }
        let slot_started = Instant::now();
        let samples = match slot {
            Slot::Child => s.kernel_per_child,
            Slot::SetUp => 1,
        };
        let batch = batches.len();
        batches.push((0..samples).map(|_| reference.time()).collect());
        match slot {
            Slot::Child => {
                let run = run_child(&opts.bin_dir, &work, s.spec);
                if let Some(rows) = s.tally.note(s.spec.name, check(s.spec, &run)) {
                    s.wall.push((run.wall_s, batch));
                    s.rss.push(run.peak_rss_mb);
                    if let Kind::Sweep { .. } = s.spec.kind {
                        s.replay.push((replay_mrefs_per_s(&rows), batch));
                    }
                }
            }
            Slot::SetUp => {
                let started = Instant::now();
                let refs = s.plan.set_up(s.spec.scale, &s.jobs);
                s.setup.push((started.elapsed().as_secs_f64(), batch));
                s.refs = refs.iter().sum();
            }
        }
        s.spent_s += slot_started.elapsed().as_secs_f64();
    }
    // The batch after the last operation.
    batches.push(vec![reference.time()]);
    // An operation's speed comes from the kernel timed on either side of
    // it (see `calibrate`).
    let speed = |b: usize| {
        let around = [batches[b].as_slice(), batches[b + 1].as_slice()].concat();
        REFERENCE_S / median(&around).unwrap_or(f64::NAN)
    };
    let kernel = median(&batches.concat()).unwrap_or(f64::NAN);
    eprintln!(
        "\nseed {}: reference kernel median {:.2} ms over {} samples, {:.2} ms at the reference speed",
        opts.seed,
        kernel * 1e3,
        batches.iter().map(Vec::len).sum::<usize>(),
        REFERENCE_S * 1e3,
    );

    let mut all_correct = true;
    all.sort_by_key(|s| WORKLOADS.iter().position(|w| w.name == s.spec.name));
    for s in &all {
        let [wall, setup, replay] = s.scaled(speed);
        let [raw_wall, raw_setup, raw_replay] = s.scaled(|_| 1.0);
        let samples: [(&str, &[f64], &[f64]); 4] = [
            ("wall_s", &wall, &raw_wall),
            ("setup_s", &setup, &raw_setup),
            ("replay_mrefs_per_s", &replay, &raw_replay),
            ("peak_rss_mb", &s.rss, &s.rss),
        ];
        eprintln!(
            "\n{} ({} child runs incl. warm-up, {} failed, {} set-ups)",
            s.spec.name,
            s.tally.attempted,
            s.tally.failed,
            s.setup.len(),
        );
        eprintln!(
            "  {:<20} {:<8} {:>12} {:>12} {:>12} {:>4} {:>7} {:>12}",
            "metric", "unit", "median", "q1", "q3", "n", "spread", "raw median"
        );
        let mut metrics = BTreeMap::new();
        for m in END_TO_END {
            let (name, values, raw) = samples
                .iter()
                .find(|(n, _, _)| *n == m.name)
                .copied()
                .unwrap_or((m.name, &[], &[]));
            let summary = Summary::of(values);
            if let Some(x) = summary {
                eprintln!(
                    "  {:<20} {:<8} {:>12.4} {:>12.4} {:>12.4} {:>4} {:>6.2}% {:>12.4}",
                    name,
                    m.unit,
                    x.median,
                    x.q1,
                    x.q3,
                    x.n,
                    100.0 * x.spread(),
                    median(raw).unwrap_or(f64::NAN)
                );
            }
            let value = summary.map_or(f64::NAN, |x| x.median);
            metrics.insert(m.name.to_string(), (value, m.unit));
        }
        let correct =
            s.tally.failed == 0 && metrics.values().all(|(v, _)| v.is_finite() && *v > 0.0);
        all_correct &= correct;
        let record = Record {
            workload: s.spec.name.to_string(),
            correct,
            attempted: s.tally.attempted,
            failed: s.tally.failed,
            metrics,
        };
        emit(&record, opts.out.as_deref())?;
    }
    Ok(all_correct)
}

/// Prints a record's result line on stdout and appends it, named, to `out`.
fn emit(record: &Record, out: Option<&Path>) -> Result<(), String> {
    println!("{}", record.to_json(false));
    if let Some(path) = out {
        use std::io::Write as _;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        writeln!(f, "{}", record.to_json(true))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// One traced pass over a workload: the untimed child for its rows, then
/// every layer in process under spans. Returns the pass's per-layer
/// values and its spans.
fn trace_pass(
    opts: &Opts,
    work: &Path,
    spec: &Spec,
    jobs: &[fusion_core::SweepJob],
    tally: &mut Tally,
) -> Result<(BTreeMap<String, f64>, layers::LayerRun), String> {
    let run = run_child(&opts.bin_dir, work, spec);
    let child_rows = tally.note(spec.name, check(spec, &run)).unwrap_or_default();
    let layer = layers::trace_layers(
        spec.name,
        spec.scale,
        jobs,
        &work.join(format!("{}-trace.wal", spec.name)),
    )?;
    let rows = match spec.kind {
        Kind::Sweep { .. } => child_rows,
        Kind::Tables => layers::in_process_rows(spec.scale, jobs)?,
    };

    // The in-process replays must reproduce the rows job for job.
    if rows.len() != jobs.len() {
        tally.note::<()>(
            spec.name,
            Err(format!("{} rows for {} jobs", rows.len(), jobs.len())),
        );
    } else {
        for ((job, res), row) in jobs.iter().zip(&layer.results).zip(&rows) {
            let same = match res {
                Ok(r) => {
                    row.suite == job.suite.label()
                        && row.system == job.system.label()
                        && row.config == job.variant
                        && row.result_digest == Some(output::result_digest(&r.to_json())?)
                }
                Err(_) => false,
            };
            let verdict = if same {
                Ok(())
            } else {
                Err(format!("{} differs from its row", job.label()))
            };
            tally.note(spec.name, verdict);
        }
    }

    let replayed = |i: &usize| rows.get(*i).is_some_and(|r| !r.spliced);
    let row_ms: f64 = rows.iter().filter(|r| !r.spliced).map(|r| r.wall_ms).sum();
    let traced_ms: f64 = (0..jobs.len())
        .filter(replayed)
        .map(|i| layer.job_ns[i] as f64 / 1e6)
        .sum();
    let spliced = rows.iter().filter(|r| r.spliced).count();
    let mut values = layer.metrics.clone();
    values.insert("core.jobs_spliced".into(), spliced as f64);
    values.insert("core.jobs_replayed".into(), (rows.len() - spliced) as f64);
    values.insert(
        "core.sweep_overhead_ms".into(),
        run.wall_s * 1e3
            - rows.iter().map(|r| r.wall_ms).sum::<f64>()
            - layer.setup_ns as f64 / 1e6,
    );
    values.insert(
        "trace.overhead_pct".into(),
        100.0 * (traced_ms - row_ms) / row_ms,
    );
    Ok((values, layer))
}

fn trace_cmd(opts: &Opts) -> Result<bool, String> {
    let work = work_dir()?;
    let mut all_correct = true;
    for &spec in &opts.workloads {
        let jobs = spec.jobs();
        let mut tally = Tally::default();
        // Traced passes until `--seconds` have gone by (at least one);
        // each metric is the median over the passes.
        let started = Instant::now();
        let mut passes: Vec<BTreeMap<String, f64>> = Vec::new();
        let layer = loop {
            let (values, layer) = trace_pass(opts, &work, spec, &jobs, &mut tally)?;
            passes.push(values);
            if started.elapsed().as_secs_f64() >= opts.seconds {
                break layer;
            }
        };

        let spans = work.join(format!("trace-{}.jsonl", spec.name));
        layer
            .tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        eprintln!(
            "\n{} traced run ({} passes; the last pass's {} spans in {})",
            spec.name,
            passes.len(),
            layer.tracer.spans().len(),
            spans.display()
        );
        eprintln!(
            "  {:<16} {:>6} {:>12} {:>12}",
            "layer", "spans", "total ms", "self ms"
        );
        for (name, t) in layer.tracer.layer_times() {
            eprintln!(
                "  {:<16} {:>6} {:>12.3} {:>12.3}",
                name,
                t.spans,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        eprintln!("  {:<30} {:<7} {:>16}  moves", "metric", "unit", "value");
        let mut metrics = BTreeMap::new();
        for m in LAYERS {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.get(m.name).copied())
                .collect();
            let Some(v) = median(&values).filter(|_| values.len() == passes.len()) else {
                return Err(format!("per-layer metric {} was not measured", m.name));
            };
            let moves = m
                .moves
                .map_or("(should move nothing)".to_string(), |(e, w)| {
                    format!("{e} on {w}")
                });
            eprintln!("  {:<30} {:<7} {:>16.4}  {moves}", m.name, m.unit, v);
            metrics.insert(m.name.to_string(), (v, m.unit));
        }
        let correct = tally.failed == 0 && metrics.values().all(|(v, _)| v.is_finite());
        all_correct &= correct;
        let record = Record {
            workload: spec.name.to_string(),
            correct,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
        };
        emit(&record, opts.out.as_deref())?;
    }
    Ok(all_correct)
}

fn compare_cmd(parent: &str, change: &str) -> Result<bool, String> {
    let read = |p: &str| -> Result<Vec<Record>, String> {
        let text = fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        compare::read_records(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare::compare(&read(parent)?, &read(change)?);
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    println!(
        "{:<14} {:<20} {:>11} {:>23} {:>11} {:>23} {:>7}  verdict",
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "won"
    );
    for r in &rows {
        println!(
            "{:<14} {:<20} {:>11.4} [{:>10.4}, {:>10.4}] {:>11.4} [{:>10.4}, {:>10.4}] {:>3}/{:<3}  {}",
            r.workload,
            r.metric,
            r.parent.median,
            r.parent.q1,
            r.parent.q3,
            r.change.median,
            r.change.q1,
            r.change.q3,
            r.wins,
            r.pairs,
            r.verdict.label()
        );
    }
    Ok(!rows.iter().any(|r| r.verdict == Verdict::Regressed))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = match cmd.as_str() {
        "compare" => match rest {
            [parent, change] => compare_cmd(parent, change),
            _ => Err("compare takes two record files".to_string()),
        },
        "run" | "trace" => match parse_opts(rest) {
            Ok(opts) if cmd == "trace" || opts.trace => trace_cmd(&opts),
            Ok(opts) => run_cmd(&opts),
            Err(e) => Err(e),
        },
        other => Err(format!("unknown command '{other}'")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
