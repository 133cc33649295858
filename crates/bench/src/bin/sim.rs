//! Command-line simulator driver.
//!
//! ```text
//! sim run     --system <sc|sh|fu|fu-dx> --suite <fft|disp|track|adpcm|susan|filt|hist>
//!             [--scale tiny|small|paper] [--large] [--write-through]
//!             [--lease-renewal] [--prefetch <N>] [--json]
//! sim trace   --suite <...> [--scale ...] --out <file>
//! sim replay  --system <...> --trace <file> [--json] [config flags]
//! sim compare --suite <...> [--scale ...] [--threads <N>] [robustness flags] [config flags]
//! sim sweep   [--scale ...] [--threads <N>] [--json] [--no-memo]
//!             [--journal <path>] [--resume] [robustness flags] [config flags]
//! sim verify  [--protocol acc|acc-dx|acc-renew|mesi|all] [--agents <N>] [--blocks <N>]
//!             [--horizon <N>] [--fault <kind>@<event>] [--expect-violation]
//!             [--max-states <N>] [--json]
//! ```
//!
//! `trace` materializes a workload into a compact binary file (the paper's
//! trace-driven workflow); `replay` runs any architecture over it without
//! rebuilding the kernels. `compare` runs all four systems on one suite
//! and `sweep` runs the full 4-system × 7-suite evaluation grid — both
//! over the shared-trace worker pool of [`fusion_core::sweep`].
//!
//! Exit codes follow the usual convention: 0 on success, 1 when a
//! simulation or sweep job fails at runtime (completed rows are still
//! printed, failures are summarized per job on stderr), 2 for usage
//! errors, among them an option the subcommand does not take. The
//! robustness flags — `--budget <cycles>` and `--inject <seed:count>` —
//! map onto the fault-tolerant sweep engine of DESIGN.md §10. Each job
//! runs once: a simulation is a pure function of its inputs, so a failure
//! would only repeat, and every sweep outcome is a function of the grid,
//! the fault plan and the cycle budget, never of thread timing.
//!
//! `sweep --journal` opens the write-ahead journal with
//! [`Sweep::open_journal`] (fresh, or verified and compacted on
//! `--resume`) and runs the grid with [`Sweep::run_points`], which splices
//! the resumed rows and returns one point per grid position; this driver
//! only renders the points (DESIGN.md §13).
//!
//! `verify` runs the exhaustive protocol model checker of DESIGN.md §11
//! over the pure transition functions the simulator itself executes. It
//! exits 0 when the outcome matches expectation — clean by default, or a
//! counterexample found when `--expect-violation` is given — and 1
//! otherwise (including an exploration truncated by `--max-states`).

use std::path::PathBuf;
use std::process::ExitCode;

use fusion_accel::{io as trace_io, Workload};
use fusion_core::{
    design_grid, journal, run_system, FaultPlan, GridPoint, MemoMark, SimResult, Sweep, SweepJob,
    SweepOutcome, SystemKind,
};
use fusion_energy::Component;
use fusion_types::{json_escape, SystemConfig, WritePolicy};
use fusion_verify::{fault_matches_protocol, parse_fault, VerifyProtocol, VerifySpec};
use fusion_workloads::{build_suite, Scale, SuiteId};

const USAGE: &str = "usage:\n  \
sim run     --system <sc|sh|fu|fu-dx> --suite <fft|disp|track|adpcm|susan|filt|hist>\n              \
[--scale tiny|small|paper] [--large] [--write-through] [--lease-renewal]\n              \
[--prefetch <N>] [--json]\n  \
sim trace   --suite <...> [--scale ...] --out <file>\n  \
sim replay  --system <...> --trace <file> [--json] [--large] [--write-through]\n              \
[--lease-renewal] [--prefetch <N>]\n  \
sim compare --suite <...> [--scale ...] [--threads <N>] [robustness flags] [config flags]\n  \
sim sweep   [--scale ...] [--threads <N>] [--json] [--no-memo]\n              \
[--journal <path>] [--resume] [robustness flags] [config flags]\n  \
sim verify  [--protocol <acc|acc-dx|acc-renew|mesi|all>] [--agents <N>] [--blocks <N>]\n              \
[--horizon <N>] [--fault <kind>@<event>] [--expect-violation]\n              \
[--max-states <N>] [--json]\n\n\
verify fault kinds: lease-overrun, gtime-regression (ACC);\n  \
empty-sharers, wrong-owner (MESI)\n\n\
robustness flags (compare/sweep):\n  \
--budget <cycles>     per-job simulated-cycle budget (livelock guard)\n  \
--inject <seed:count> deterministically inject <count> faults (testing)\n\n\
memo flag (sweep):\n  \
--no-memo             simulate every grid point; by default, points that differ\n                        \
only in knobs their system cannot observe copy the first\n                        \
such point's result (DESIGN.md \u{a7}12)\n\n\
durability flags (sweep):\n  \
--journal <path>      write-ahead result journal: one sealed JSONL row per\n                        \
completed grid point, fsync'd in batches (DESIGN.md \u{a7}13)\n  \
--resume              replay a journal, re-verifying and skipping completed\n                        \
points; partial sweeps also leave <path>.salvage.json\n\n\
exit codes: 0 success, 1 runtime/sweep/verification failure, 2 usage error";

/// Usage errors exit 2, distinguishing bad invocations from jobs that
/// failed at runtime (exit 1).
const EXIT_USAGE: u8 = 2;
const EXIT_RUNTIME: u8 = 1;

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(EXIT_USAGE)
}

/// Prints the specific problem, then the usage text.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    usage()
}

/// Options that consume the next argument as their value; every other
/// option stands alone.
const VALUE_KEYS: [&str; 16] = [
    "system",
    "suite",
    "scale",
    "out",
    "trace",
    "prefetch",
    "threads",
    "budget",
    "inject",
    "journal",
    "protocol",
    "agents",
    "blocks",
    "horizon",
    "fault",
    "max-states",
];
/// The options each subcommand accepts, space-separated, matching
/// `USAGE` and what the subcommand reads. Any other option is a usage
/// error, never silently ignored; one that no subcommand accepts is
/// unknown.
const ACCEPTED: [(&str, &str); 6] = [
    (
        "run",
        "system suite scale json large write-through lease-renewal prefetch",
    ),
    ("trace", "suite scale out"),
    (
        "replay",
        "system trace json large write-through lease-renewal prefetch",
    ),
    (
        "compare",
        "suite scale threads budget inject large write-through lease-renewal prefetch",
    ),
    (
        "sweep",
        "scale threads json no-memo journal resume budget inject \
         large write-through lease-renewal prefetch",
    ),
    (
        "verify",
        "protocol agents blocks horizon fault expect-violation max-states json",
    ),
];

/// `true` when the space-separated option list `keys` names `key`.
fn accepts(keys: &str, key: &str) -> bool {
    keys.split_whitespace().any(|k| k == key)
}

#[derive(Debug)]
struct Args {
    values: Vec<(String, String)>,
}

impl Args {
    /// Parses subcommand `cmd`'s `--flag` / `--key value` pairs,
    /// rejecting an unknown subcommand, unknown keys, keys `cmd` does not
    /// accept, bare (non `--`) tokens and valued options missing their
    /// value.
    fn parse(cmd: &str, args: &[String]) -> Result<Args, String> {
        let Some((_, accepted)) = ACCEPTED.iter().find(|(c, _)| *c == cmd) else {
            return Err(format!("unknown subcommand '{cmd}'"));
        };
        let mut values = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let Some(key) = args[i].strip_prefix("--") else {
                return Err(format!("unexpected argument '{}'", args[i]));
            };
            if !accepts(accepted, key) {
                return Err(if ACCEPTED.iter().any(|(_, keys)| accepts(keys, key)) {
                    format!("option '--{key}' is not accepted by 'sim {cmd}'")
                } else {
                    format!("unknown option '--{key}'")
                });
            }
            if values.iter().any(|(k, _)| k == key) {
                return Err(format!("option '--{key}' is given more than once"));
            }
            if VALUE_KEYS.contains(&key) {
                let Some(value) = args.get(i + 1) else {
                    return Err(format!("--{key} requires a value"));
                };
                values.push((key.to_owned(), value.clone()));
                i += 2;
            } else {
                values.push((key.to_owned(), "true".into()));
                i += 1;
            }
        }
        Ok(Args { values })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Parses an optional numeric option, failing loudly on garbage so
    /// sweep scripts never run with silently-downgraded settings.
    fn numeric(&self, key: &str) -> Result<Option<usize>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key} expects a non-negative integer, got '{v}'")),
        }
    }

    /// Parses `--inject seed:count` into a fault plan over `jobs` slots.
    fn fault_plan(&self, jobs: usize) -> Result<Option<FaultPlan>, String> {
        let Some(spec) = self.get("inject") else {
            return Ok(None);
        };
        let err = || format!("--inject expects '<seed>:<count>', got '{spec}'");
        let (seed, count) = spec.split_once(':').ok_or_else(err)?;
        let seed: u64 = seed.parse().map_err(|_| err())?;
        let count: usize = count.parse().map_err(|_| err())?;
        Ok(Some(FaultPlan::seeded(seed, jobs, count)))
    }
}

fn parse_system(s: &str) -> Option<SystemKind> {
    match s {
        "sc" | "scratch" => Some(SystemKind::Scratch),
        "sh" | "shared" => Some(SystemKind::Shared),
        "fu" | "fusion" => Some(SystemKind::Fusion),
        "fu-dx" | "fusion-dx" | "dx" => Some(SystemKind::FusionDx),
        _ => None,
    }
}

fn parse_suite(s: &str) -> Option<SuiteId> {
    match s {
        "fft" => Some(SuiteId::Fft),
        "disp" | "disparity" => Some(SuiteId::Disparity),
        "track" | "tracking" => Some(SuiteId::Tracking),
        "adpcm" => Some(SuiteId::Adpcm),
        "susan" => Some(SuiteId::Susan),
        "filt" | "filter" => Some(SuiteId::Filter),
        "hist" | "histogram" => Some(SuiteId::Histogram),
        _ => None,
    }
}

fn parse_scale(s: Option<&str>) -> Option<Scale> {
    match s {
        None | Some("paper") => Some(Scale::Paper),
        Some("tiny") => Some(Scale::Tiny),
        Some("small") => Some(Scale::Small),
        _ => None,
    }
}

/// Builds the [`SystemConfig`] from the shared config flags. Invalid
/// numeric values are a hard usage error, not a silent downgrade.
fn config_from(args: &Args) -> Result<SystemConfig, String> {
    let mut cfg = if args.flag("large") {
        SystemConfig::large()
    } else {
        SystemConfig::small()
    };
    if args.flag("write-through") {
        cfg.write_policy = WritePolicy::WriteThrough;
    }
    cfg.lease_renewal = args.flag("lease-renewal");
    cfg.l1x_prefetch_degree = args.numeric("prefetch")?.unwrap_or(0);
    Ok(cfg)
}

/// Applies the shared robustness flags to a fresh [`Sweep`].
fn sweep_from(scale: Scale, args: &Args, jobs: usize) -> Result<Sweep, String> {
    let mut sweep = Sweep::new(scale);
    if let Some(n) = args.numeric("threads")? {
        sweep = sweep.threads(n);
    }
    if let Some(n) = args.numeric("budget")? {
        sweep = sweep.budget(n as u64);
    }
    if let Some(plan) = args.fault_plan(jobs)? {
        sweep = sweep.with_faults(plan);
    }
    Ok(sweep)
}

/// Summarizes every failed job on stderr and says whether the sweep was
/// clean.
fn report_failures(points: &[GridPoint]) -> bool {
    let outcomes = || points.iter().filter_map(GridPoint::outcome);
    let failed = outcomes().filter(|o| o.result.is_err()).count();
    if failed == 0 {
        return true;
    }
    eprintln!(
        "sweep: {} completed, {failed} failed",
        outcomes().count() - failed
    );
    for o in outcomes() {
        if let Err(e) = &o.result {
            eprintln!("  FAILED {} [{}]: {e}", o.job.label(), e.kind_label());
        }
    }
    false
}

fn report(res: &SimResult, json: bool) {
    if json {
        // The stats serializer lives on SimResult so the golden-stats
        // test and this driver cannot drift apart.
        println!("{}", res.to_json());
        return;
    }
    println!(
        "{} on {}: {} cycles ({:.0}% DMA), cache-hierarchy energy {}",
        res.system,
        res.workload,
        res.total_cycles,
        100.0 * res.dma_time_fraction(),
        res.cache_energy(),
    );
    println!(
        "  L2 accesses {}  AX-TLB {}  AX-RMAP {}  host forwards {}",
        res.l2_accesses, res.ax_tlb_lookups, res.ax_rmap_lookups, res.host_forwards
    );
    if let Some(t) = res.tile {
        println!(
            "  tile: L0 hit {:.1}%  renewals {}  forwards {}  stalls {}",
            100.0 * t.l0_hits as f64 / t.l0_accesses.max(1) as f64,
            t.lease_renewals,
            t.fwd_l0_to_l0,
            t.stall_cycles
        );
    }
    let compute = res.energy.energy(Component::Compute);
    println!("  compute energy {compute}");
    println!(
        "  accelerator load-to-use: mean {:.1} cyc, max {} cyc over {} refs",
        res.latency.mean(),
        res.latency.max(),
        res.latency.count()
    );
}

fn run(system: SystemKind, wl: &Workload, cfg: &SystemConfig, json: bool) -> ExitCode {
    match run_system(system, wl, cfg) {
        Ok(res) => {
            report(&res, json);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simulation failed [{}]: {e}", e.kind_label());
            ExitCode::from(EXIT_RUNTIME)
        }
    }
}

/// `compare`: all four systems on one suite, over the sweep pool with a
/// single shared trace, with per-job host timings.
fn compare(suite: SuiteId, scale: Scale, args: &Args) -> Result<bool, String> {
    let cfg = config_from(args)?;
    let jobs: Vec<SweepJob> = [
        SystemKind::Scratch,
        SystemKind::Shared,
        SystemKind::Fusion,
        SystemKind::FusionDx,
    ]
    .into_iter()
    .map(|kind| SweepJob::new(kind, suite, cfg.clone()))
    .collect();
    let sweep = sweep_from(scale, args, jobs.len())?;
    let pool = sweep.pool_size(jobs.len());
    #[expect(
        clippy::disallowed_methods,
        reason = "operator-facing wall time; no simulated result reads it"
    )]
    let started = std::time::Instant::now();
    let points = sweep.run_points(&jobs, vec![None; jobs.len()]);
    let total = started.elapsed();
    let outcomes: Vec<&SweepOutcome> = points.iter().filter_map(GridPoint::outcome).collect();
    println!(
        "{:<10} {:>12} {:>8} {:>14} {:>10} {:>10} {:>9}",
        "system", "cycles", "dma%", "cache energy", "L2 acc", "LtU mean", "wall ms"
    );
    for o in &outcomes {
        let Ok(res) = &o.result else { continue };
        println!(
            "{:<10} {:>12} {:>8.2} {:>14} {:>10} {:>10.1} {:>9.1}",
            res.system,
            res.total_cycles,
            res.dma_time_fraction(),
            res.cache_energy().to_string(),
            res.l2_accesses,
            res.latency.mean(),
            res.metrics.wall_time().as_secs_f64() * 1e3,
        );
    }
    let busy: u64 = outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|r| r.metrics.wall_nanos)
        .sum();
    println!(
        "pool: {pool} worker(s), {:.1} ms wall ({:.1} ms of simulation)",
        total.as_secs_f64() * 1e3,
        busy as f64 / 1e6,
    );
    Ok(report_failures(&points))
}

/// `sweep`: the design grid — the 4-system × 7-suite base plus the
/// L0X- and scratchpad-capacity axes (DESIGN.md §12) — over the pool,
/// optionally journaled with `--journal` and crash-recovered with
/// `--resume` (DESIGN.md §13).
fn sweep_cmd(scale: Scale, args: &Args) -> Result<bool, String> {
    let cfg = config_from(args)?;
    let jobs = design_grid(&cfg);
    let mut sweep = sweep_from(scale, args, jobs.len())?.memo(!args.flag("no-memo"));

    let journal_path = args.get("journal").map(PathBuf::from);
    let resume = args.flag("resume");
    if resume && journal_path.is_none() {
        return Err("--resume requires --journal <path>".to_string());
    }
    let mut resumed = vec![None; jobs.len()];
    if let Some(path) = &journal_path {
        match sweep.open_journal(path, resume, &jobs, |w| eprintln!("journal: {w}")) {
            Ok(rows) => resumed = rows,
            Err(e) if e.is_usage() => return Err(format!("--resume: {e}")),
            Err(e) => {
                eprintln!("journal: {e}");
                return Ok(false);
            }
        }
    }

    let pool = sweep.pool_size(resumed.iter().filter(|r| r.is_none()).count());
    #[expect(
        clippy::disallowed_methods,
        reason = "operator-facing wall time; no simulated result reads it"
    )]
    let started = std::time::Instant::now();
    let points = sweep.run_points(&jobs, resumed);
    let total = started.elapsed();
    let journal_lost = sweep.journal_lost();

    if args.flag("json") {
        // One JSON object per grid point; for completed jobs the "result"
        // payload is exactly what `sim run --json` prints for the same
        // (system, suite, config) — resumed rows echo the journaled
        // payload verbatim, so a resumed sweep is byte-identical modulo
        // the timing fields ("wall_ms", "queue_delay_ms", "refs_per_sec")
        // and "memo", which reads "journal". "config" names the capacity
        // variant ("base" on the base grid).
        println!("[");
        for (i, point) in points.iter().enumerate() {
            let tail = if i + 1 == points.len() { "" } else { "," };
            println!("{}{tail}", json_row(point));
        }
        println!("]");
        return Ok(sweep_epilogue(
            &points,
            journal_lost,
            journal_path.as_deref(),
        ));
    }
    println!(
        "{:<12} {:<10} {:<8} {:>12} {:>14} {:>12} {:>9} {:>9}",
        "suite", "system", "config", "cycles", "cache energy", "events", "wall ms", "queue ms"
    );
    for point in &points {
        match point {
            GridPoint::Live(o) => {
                let Ok(res) = &o.result else { continue };
                let m = res.metrics;
                println!(
                    "{:<12} {:<10} {:<8} {:>12} {:>14} {:>12} {:>9.1} {:>9.1}",
                    o.job.suite.label(),
                    o.job.system.label(),
                    o.job.variant,
                    res.total_cycles,
                    res.cache_energy().to_string(),
                    m.sim_events,
                    m.wall_time().as_secs_f64() * 1e3,
                    m.queue_delay().as_secs_f64() * 1e3,
                );
            }
            GridPoint::Resumed(r) => {
                println!(
                    "{:<12} {:<10} {:<8} {:>12} {:>14} {:>12} {:>9} {:>9}",
                    r.suite,
                    r.system,
                    r.variant,
                    journal::result_u64(&r.result_json, "total_cycles").unwrap_or(0),
                    "(journal)",
                    r.sim_events,
                    "-",
                    "-",
                );
            }
            GridPoint::NotRun => unreachable!("{NEVER_UNRUN}"),
        }
    }
    let outcomes: Vec<&SweepOutcome> = points.iter().filter_map(GridPoint::outcome).collect();
    let busy: u64 = outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|r| r.metrics.wall_nanos)
        .sum();
    // Copied rows replayed nothing: only replayed refs count towards the
    // throughput figure.
    let copied = outcomes
        .iter()
        .filter(|o| o.memo.mark == MemoMark::Hit)
        .count();
    let refs: u64 = outcomes
        .iter()
        .filter(|o| o.memo.mark != MemoMark::Hit)
        .filter_map(|o| o.result.as_ref().ok())
        .map(|r| r.metrics.refs_simulated)
        .sum();
    println!(
        "{} jobs on {pool} worker(s): \
         {:.1} ms wall, {:.1} ms of simulation ({:.2}x), \
         {:.2} Mrefs/s",
        outcomes.len(),
        total.as_secs_f64() * 1e3,
        busy as f64 / 1e6,
        busy as f64 / total.as_nanos().max(1) as f64,
        refs as f64 * 1e3 / total.as_nanos().max(1) as f64,
    );
    if !args.flag("no-memo") {
        println!("memo: {copied} of {} jobs copied", outcomes.len());
    }
    Ok(sweep_epilogue(
        &points,
        journal_lost,
        journal_path.as_deref(),
    ))
}

/// Only a killed worker leaves a grid point unrun, and the faults `--inject`
/// stages ([`FaultPlan::seeded`]) never kill one.
const NEVER_UNRUN: &str = "`sim sweep` stages no worker kill";

/// One grid point as a `sim sweep --json` object.
fn json_row(point: &GridPoint) -> String {
    match point {
        GridPoint::Live(o) => match &o.result {
            Ok(res) => {
                let m = res.metrics;
                format!(
                    "{{\"suite\":\"{}\",\"system\":\"{}\",\"config\":\"{}\",\
                     \"wall_ms\":{:.3},\
                     \"queue_delay_ms\":{:.3},\"sim_events\":{},\"refs\":{},\
                     \"refs_per_sec\":{:.0},\"memo\":\"{}\",\"result\":{}}}",
                    o.job.suite.label(),
                    o.job.system.label(),
                    o.job.variant,
                    m.wall_time().as_secs_f64() * 1e3,
                    m.queue_delay().as_secs_f64() * 1e3,
                    m.sim_events,
                    m.refs_simulated,
                    m.refs_per_sec(),
                    o.memo.mark.label(),
                    res.to_json(),
                )
            }
            Err(e) => format!(
                "{{\"suite\":\"{}\",\"system\":\"{}\",\"config\":\"{}\",\
                 \"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}",
                o.job.suite.label(),
                o.job.system.label(),
                o.job.variant,
                e.kind_label(),
                json_escape(&e.to_string()),
            ),
        },
        GridPoint::Resumed(r) => format!(
            "{{\"suite\":\"{}\",\"system\":\"{}\",\"config\":\"{}\",\
             \"wall_ms\":0.000,\
             \"queue_delay_ms\":0.000,\"sim_events\":{},\"refs\":{},\
             \"refs_per_sec\":0,\"memo\":\"journal\",\"result\":{}}}",
            r.suite, r.system, r.variant, r.sim_events, r.refs, r.result_json,
        ),
        GridPoint::NotRun => unreachable!("{NEVER_UNRUN}"),
    }
}

/// Shared sweep wrap-up: failure summary, resume accounting, journal-loss
/// notice, and — on a partial sweep — the machine-readable salvage
/// report (stderr plus `<journal>.salvage.json`). Returns whether the
/// sweep was clean.
fn sweep_epilogue(
    points: &[GridPoint],
    journal_lost: bool,
    journal_path: Option<&std::path::Path>,
) -> bool {
    let ok = report_failures(points);
    let resumed = points.iter().filter(|p| p.is_resumed()).count();
    if resumed > 0 {
        eprintln!(
            "journal: {resumed}/{} grid point(s) resumed, {} run live",
            points.len(),
            points.len() - resumed
        );
    }
    if journal_lost {
        eprintln!("journal: lost mid-sweep; completed rows before the failure are preserved");
    }
    if !ok {
        let salvage =
            journal::salvage_json(points, journal_lost, journal_path.and_then(|p| p.to_str()));
        eprintln!("salvage: {salvage}");
        if let Some(path) = journal_path {
            let out = format!("{}.salvage.json", path.display());
            if let Err(e) = std::fs::write(&out, format!("{salvage}\n")) {
                eprintln!("salvage: cannot write {out}: {e}");
            }
        }
    }
    ok
}

/// Builds the [`VerifySpec`] for `sim verify` from the CLI arguments.
/// Absent options stay `None` so the per-protocol defaults apply. A
/// fault kind that cannot fire in the selected protocol (e.g. a MESI
/// directory fault against `--protocol acc`) is a usage error, not a
/// silently-clean run.
fn verify_spec_from(args: &Args) -> Result<VerifySpec, String> {
    let mut spec = VerifySpec::default();
    if let Some(p) = args.get("protocol") {
        spec.protocol = VerifyProtocol::parse(p).ok_or_else(|| {
            format!("--protocol expects acc|acc-dx|acc-renew|mesi|all, got '{p}'")
        })?;
    }
    spec.agents = args.numeric("agents")?;
    spec.blocks = args.numeric("blocks")?;
    spec.horizon = args.numeric("horizon")?.map(|n| n as u64);
    if let Some(n) = args.numeric("max-states")? {
        spec.max_states = n;
    }
    if let Some(f) = args.get("fault") {
        let fault = parse_fault(f).ok_or_else(|| {
            format!("--fault expects '<kind>@<event>' with kind one of lease-overrun, gtime-regression, empty-sharers, wrong-owner, got '{f}'")
        })?;
        if spec.protocol != VerifyProtocol::All
            && !fault_matches_protocol(fault.kind, spec.protocol)
        {
            return Err(format!(
                "--fault {f} cannot fire in --protocol {}",
                args.get("protocol").unwrap_or("all")
            ));
        }
        spec.fault = Some(fault);
    }
    Ok(spec)
}

/// `verify`: exhaustive model check of the protocol transition
/// functions. Returns `true` when the outcome matches expectation:
/// every explored space closed, and a counterexample was found exactly
/// when `--expect-violation` asked for one.
fn verify_cmd(args: &Args) -> Result<bool, String> {
    let spec = verify_spec_from(args)?;
    let report = fusion_verify::run(&spec);
    if args.flag("json") {
        println!("{}", fusion_verify::render_json(&report));
    } else {
        print!("{}", fusion_verify::render_text(&report));
    }
    let complete = report.protocols.iter().all(|p| p.exploration.complete);
    let ok = if args.flag("expect-violation") {
        report.violated()
    } else {
        complete && !report.violated()
    };
    if !ok {
        if !complete && !report.violated() {
            eprintln!("verify: exploration truncated by --max-states before closing");
        } else if args.flag("expect-violation") {
            eprintln!("verify: expected a counterexample, but every protocol verified clean");
        } else {
            eprintln!("verify: protocol violation found");
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    let args = match Args::parse(cmd, rest) {
        Ok(args) => args,
        Err(e) => return usage_error(&e),
    };
    match cmd.as_str() {
        "run" => {
            let (Some(system), Some(suite)) = (
                args.get("system").and_then(parse_system),
                args.get("suite").and_then(parse_suite),
            ) else {
                return usage();
            };
            let Some(scale) = parse_scale(args.get("scale")) else {
                return usage();
            };
            let cfg = match config_from(&args) {
                Ok(cfg) => cfg,
                Err(e) => return usage_error(&e),
            };
            let wl = build_suite(suite, scale);
            return run(system, &wl, &cfg, args.flag("json"));
        }
        "trace" => {
            let (Some(suite), Some(out)) =
                (args.get("suite").and_then(parse_suite), args.get("out"))
            else {
                return usage();
            };
            let Some(scale) = parse_scale(args.get("scale")) else {
                return usage();
            };
            let wl = build_suite(suite, scale);
            let file = match std::fs::File::create(out) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create {out}: {e}");
                    return ExitCode::from(EXIT_RUNTIME);
                }
            };
            if let Err(e) = trace_io::write_workload(&wl, file) {
                eprintln!("trace write failed: {e}");
                return ExitCode::from(EXIT_RUNTIME);
            }
            eprintln!(
                "wrote {} ({} phases, {} refs)",
                out,
                wl.phases.len(),
                wl.total_refs()
            );
        }
        "compare" => {
            let Some(suite) = args.get("suite").and_then(parse_suite) else {
                return usage();
            };
            let Some(scale) = parse_scale(args.get("scale")) else {
                return usage();
            };
            match compare(suite, scale, &args) {
                Err(e) => return usage_error(&e),
                Ok(false) => return ExitCode::from(EXIT_RUNTIME),
                Ok(true) => {}
            }
        }
        "sweep" => {
            let Some(scale) = parse_scale(args.get("scale")) else {
                return usage();
            };
            match sweep_cmd(scale, &args) {
                Err(e) => return usage_error(&e),
                Ok(false) => return ExitCode::from(EXIT_RUNTIME),
                Ok(true) => {}
            }
        }
        "verify" => match verify_cmd(&args) {
            Err(e) => return usage_error(&e),
            Ok(false) => return ExitCode::from(EXIT_RUNTIME),
            Ok(true) => {}
        },
        "replay" => {
            let (Some(system), Some(path)) =
                (args.get("system").and_then(parse_system), args.get("trace"))
            else {
                return usage();
            };
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot open {path}: {e}");
                    return ExitCode::from(EXIT_RUNTIME);
                }
            };
            let cfg = match config_from(&args) {
                Ok(cfg) => cfg,
                Err(e) => return usage_error(&e),
            };
            let wl = match trace_io::read_workload(file) {
                Ok(wl) => wl,
                Err(e) => {
                    eprintln!("trace read failed [{}]: {e}", e.kind_label());
                    return ExitCode::from(EXIT_RUNTIME);
                }
            };
            return run(system, &wl, &cfg, args.flag("json"));
        }
        other => unreachable!("Args::parse rejected subcommand '{other}'"),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_separates_flags_from_valued_options() {
        let args = Args::parse(
            "run",
            &argv(&[
                "--system",
                "fu",
                "--json",
                "--prefetch",
                "4",
                "--write-through",
            ]),
        )
        .unwrap();
        assert_eq!(args.get("system"), Some("fu"));
        assert_eq!(args.get("prefetch"), Some("4"));
        assert!(args.flag("json"));
        assert!(args.flag("write-through"));
        assert!(!args.flag("large"));
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bare_tokens() {
        assert!(Args::parse("sweep", &argv(&["--bogus", "1"]))
            .unwrap_err()
            .contains("--bogus"));
        assert!(Args::parse("sweep", &argv(&["fft"]))
            .unwrap_err()
            .contains("unexpected argument"));
        assert!(Args::parse("compare", &argv(&["--suite"]))
            .unwrap_err()
            .contains("requires a value"));
        assert_eq!(
            Args::parse("sweep", &argv(&["--threads", "1", "--threads", "0"])).unwrap_err(),
            "option '--threads' is given more than once"
        );
    }

    #[test]
    fn each_subcommand_accepts_only_its_own_options() {
        // Every valued option is accepted somewhere, so none is unknown.
        for key in VALUE_KEYS {
            assert!(ACCEPTED.iter().any(|(_, keys)| accepts(keys, key)), "{key}");
        }
        let err = Args::parse("run", &argv(&["--threads", "4"])).unwrap_err();
        assert_eq!(err, "option '--threads' is not accepted by 'sim run'");
        let err = Args::parse("compare", &argv(&["--no-memo"])).unwrap_err();
        assert_eq!(err, "option '--no-memo' is not accepted by 'sim compare'");
        let err = Args::parse("bogus", &argv(&["--json"])).unwrap_err();
        assert_eq!(err, "unknown subcommand 'bogus'");
    }

    #[test]
    fn invalid_numeric_values_are_hard_errors() {
        let args = Args::parse("run", &argv(&["--prefetch", "garbage"])).unwrap();
        let err = config_from(&args).unwrap_err();
        assert!(err.contains("--prefetch"), "{err}");
        assert!(err.contains("garbage"), "{err}");
        let args = Args::parse("sweep", &argv(&["--threads", "-2"])).unwrap();
        assert!(args.numeric("threads").is_err());
    }

    #[test]
    fn config_flags_round_trip() {
        let args = Args::parse(
            "run",
            &argv(&[
                "--large",
                "--write-through",
                "--lease-renewal",
                "--prefetch",
                "2",
            ]),
        )
        .unwrap();
        let cfg = config_from(&args).unwrap();
        assert_eq!(cfg.write_policy, WritePolicy::WriteThrough);
        assert!(cfg.lease_renewal);
        assert_eq!(cfg.l1x_prefetch_degree, 2);
    }

    #[test]
    fn robustness_flags_parse_and_apply() {
        let args = Args::parse("sweep", &argv(&["--budget", "100000"])).unwrap();
        assert_eq!(args.numeric("budget").unwrap(), Some(100_000));
        let sweep = sweep_from(Scale::Tiny, &args, 28).unwrap();
        assert!(sweep.pool_size(28) >= 1);
    }

    #[test]
    fn inject_spec_parses_and_rejects_garbage() {
        let args = Args::parse("sweep", &argv(&["--inject", "7:3"])).unwrap();
        let plan = args.fault_plan(28).unwrap().unwrap();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan, FaultPlan::seeded(7, 28, 3));

        for bad in ["7", "x:3", "7:x", ":"] {
            let args = Args::parse("sweep", &argv(&["--inject", bad])).unwrap();
            let err = args.fault_plan(28).unwrap_err();
            assert!(err.contains("--inject"), "{err}");
        }
        let args = Args::parse("sweep", &argv(&["--json"])).unwrap();
        assert!(args.fault_plan(28).unwrap().is_none());
    }

    #[test]
    fn verify_spec_maps_absent_options_to_defaults() {
        let args = Args::parse("verify", &argv(&[])).unwrap();
        let spec = verify_spec_from(&args).unwrap();
        assert_eq!(spec.protocol, VerifyProtocol::All);
        assert_eq!(spec.agents, None);
        assert_eq!(spec.blocks, None);
        assert_eq!(spec.horizon, None);
        assert!(spec.fault.is_none());

        let args = Args::parse(
            "verify",
            &argv(&[
                "--protocol",
                "acc-renew",
                "--blocks",
                "1",
                "--horizon",
                "4",
                "--max-states",
                "1000",
            ]),
        )
        .unwrap();
        let spec = verify_spec_from(&args).unwrap();
        assert_eq!(spec.protocol, VerifyProtocol::AccRenew);
        assert_eq!(spec.blocks, Some(1));
        assert_eq!(spec.horizon, Some(4));
        assert_eq!(spec.max_states, 1000);
    }

    #[test]
    fn verify_spec_rejects_bad_protocol_and_mismatched_fault() {
        let args = Args::parse("verify", &argv(&["--protocol", "moesi"])).unwrap();
        assert!(verify_spec_from(&args).unwrap_err().contains("--protocol"));

        let args = Args::parse("verify", &argv(&["--fault", "lease-overrun"])).unwrap();
        assert!(verify_spec_from(&args).unwrap_err().contains("--fault"));

        // A MESI directory fault can never fire in an ACC-only run.
        let args = Args::parse(
            "verify",
            &argv(&["--protocol", "acc", "--fault", "wrong-owner@0"]),
        )
        .unwrap();
        let err = verify_spec_from(&args).unwrap_err();
        assert!(err.contains("cannot fire"), "{err}");

        // Against `all` the same fault is fine: it applies to the MESI leg.
        let args = Args::parse("verify", &argv(&["--fault", "wrong-owner@0"])).unwrap();
        assert!(verify_spec_from(&args).unwrap().fault.is_some());
    }

    #[test]
    fn usage_lists_every_subcommand_and_option() {
        for needle in [
            "run",
            "trace",
            "replay",
            "compare",
            "sweep",
            "verify",
            "--prefetch",
            "--threads",
            "--json",
            "--budget",
            "--inject",
            "--journal",
            "--resume",
            "--protocol",
            "--agents",
            "--blocks",
            "--horizon",
            "--fault",
            "--no-memo",
            "--expect-violation",
            "--max-states",
            "exit codes",
        ] {
            assert!(USAGE.contains(needle), "usage text missing '{needle}'");
        }
    }
}
