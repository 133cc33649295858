//! Durable resumable sweeps: the checksummed write-ahead result journal
//! (DESIGN.md §13).
//!
//! A long design-space sweep must survive the process dying under it — a
//! crash, an OOM-kill, a SIGKILL. The journal makes that cheap:
//!
//! * **Write-ahead rows** — the sweep journals one JSONL row per
//!   *completed* grid point ([`JournalRow`]), carrying the job key
//!   (system × suite × scale × config-hash × code-version), the trace
//!   fingerprint and the full [`SimResult::to_json`] payload. Rows are appended in batches, one
//!   write and one fsync each ([`JournalWriter::append_batch`]), and no
//!   result is published before its batch is durable, so a row on disk is
//!   a grid point that never needs to run again.
//! * **Sealed lines** — every line ends in a trailing FNV-1a seal over
//!   the bytes before it. Torn writes, truncation and bit rot fail the
//!   seal and the line is dropped with a warning; the rest of the journal
//!   stays usable ([`read_journal`]).
//! * **Verified resume** — `--resume` never *assumes* a journaled row
//!   still applies. Every claim is re-verified against the current run:
//!   the header's code version and scale must match exactly (usage error
//!   otherwise), each row's config fingerprint is recomputed from the live
//!   [`SystemConfig`], its trace fingerprint is compared against the
//!   freshly materialized workload, and the embedded result payload is
//!   structurally validated. Anything that fails is re-run, never
//!   spliced ([`plan_resume`]).
//! * **One resume path** — [`crate::Sweep::open_journal`] creates, or
//!   verifies against the sweep's own traces and compacts, the journal;
//!   [`crate::Sweep::run_points`] splices its rows and runs the rest.
//!   `sim sweep` and the chaos tests both call these two.
//! * **Salvage** — on a partial sweep the CLI emits a machine-readable
//!   salvage report ([`salvage_json`]) naming what completed, what
//!   failed, what was never attempted and whether the journal was lost,
//!   plus the resume command.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use fusion_types::error::JournalError;
use fusion_types::hash::{FxHashMap, FxHashSet};
use fusion_types::{json_escape, SystemConfig};
use fusion_workloads::{Scale, SuiteId};

use crate::result::SimResult;
use crate::sweep::{GridPoint, SweepJob, TraceCache};

/// Journal line-format version, bumped whenever the row grammar, the
/// fields covered by the seal or the meaning of a field change (version 2:
/// the trace fingerprint hashes the version-2 trace file). Rows with a
/// different `fswp` are dropped with a warning (re-run, never mis-parsed).
pub const FORMAT_VERSION: u32 = 2;

/// The code version stamped into headers and rows: the crate version plus
/// the journal format revision. Resuming against a journal from any other
/// code version is a usage error — results produced by different code
/// cannot be assumed byte-identical.
pub fn code_version() -> String {
    format!("{}+wal{FORMAT_VERSION}", env!("CARGO_PKG_VERSION"))
}

/// Re-exported for the benchmark harness under `perf/`, which imports it
/// from here.
pub use fusion_types::hash::fnv1a;

/// Stable lowercase label of a workload scale (journal headers and rows).
pub fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// 64-bit fingerprint over *every* field of a [`SystemConfig`]: FNV-1a
/// of its derived `Debug` rendering, which names each field and prints
/// each float in exact round-trip form, so changing any field — including
/// one added later — changes the fingerprint.
///
/// Unlike [`crate::memo::observed_config`], which deliberately drops the
/// fields a system cannot see, the journal key must cover the whole
/// configuration: a resumed row is only valid if the job's config is
/// identical to the producer's.
pub fn config_fingerprint(cfg: &SystemConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

/// Identity of one grid point as the journal keys it:
/// `(system label, suite label, variant, config fingerprint)`. The scale
/// and code version are journal-wide (header-checked), not per-key.
pub type JobKey = (String, String, String, u64);

/// The journal key of a sweep job.
pub fn job_key(job: &SweepJob) -> JobKey {
    (
        job.system.label().to_string(),
        job.suite.label().to_string(),
        job.variant.clone(),
        config_fingerprint(&job.config),
    )
}

/// The journal's first line: sweep-wide identity every row is read under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Workload scale of the sweep ([`scale_label`]).
    pub scale: String,
    /// [`code_version`] of the producing binary.
    pub code_version: String,
    /// Grid size the sweep was launched with (informational).
    pub grid: usize,
}

/// One completed grid point as journaled: the job key, the verification
/// fingerprints, the measurements resumed JSON rows echo and the full
/// result payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRow {
    /// System label (`"SC"`, `"SH"`, `"FU"`, `"FU-Dx"`).
    pub system: String,
    /// Suite label (`"FFT"`, `"DISP."`, ...).
    pub suite: String,
    /// Scale label (must match the header).
    pub scale: String,
    /// Config-variant label (`"base"`, `"l0x8k"`, ...).
    pub variant: String,
    /// [`config_fingerprint`] of the job's full config.
    pub config_hash: u64,
    /// [`code_version`] of the producing binary.
    pub code_version: String,
    /// Fingerprint of the encoded workload trace the job replayed.
    pub trace_fingerprint: u64,
    /// Always `1`: a sweep runs each job once. Kept, like `backoff`,
    /// while the `perf` harness passes both (ROADMAP item 3).
    pub attempts: u32,
    /// Always `0`; see `attempts`.
    pub backoff: u64,
    /// Simulated events processed (measurement, for resumed JSON rows).
    pub sim_events: u64,
    /// Dynamic references replayed (measurement, for resumed JSON rows).
    pub refs: u64,
    /// The full [`SimResult::to_json`] payload, verbatim. Resume echoes
    /// this string instead of re-serializing a reconstructed result, so
    /// byte-identity with the producing run is trivial.
    pub result_json: String,
}

impl JournalRow {
    /// Builds the row for a successful sweep outcome. The sweep passes
    /// `attempts = 1` and `backoff = 0` (see [`JournalRow::attempts`]).
    pub fn for_result(
        job: &SweepJob,
        scale: Scale,
        res: &SimResult,
        attempts: u32,
        backoff: u64,
        trace_fingerprint: u64,
    ) -> JournalRow {
        JournalRow {
            system: job.system.label().to_string(),
            suite: job.suite.label().to_string(),
            scale: scale_label(scale).to_string(),
            variant: job.variant.clone(),
            config_hash: config_fingerprint(&job.config),
            code_version: code_version(),
            trace_fingerprint,
            attempts,
            backoff,
            sim_events: res.metrics.sim_events,
            refs: res.metrics.refs_simulated,
            result_json: res.to_json(),
        }
    }

    /// The row's grid-point key.
    pub fn key(&self) -> JobKey {
        (
            self.system.clone(),
            self.suite.clone(),
            self.variant.clone(),
            self.config_hash,
        )
    }
}

/// Appends the trailing FNV-1a seal to an unsealed line prefix (the
/// prefix must be an open JSON object, i.e. without its closing brace).
/// Exposed so tests can forge resealed corruptions.
pub fn seal_line(unsealed: &str) -> String {
    format!(
        "{unsealed},\"seal\":\"{:016x}\"}}",
        fnv1a(unsealed.as_bytes())
    )
}

/// Encodes the header line (sealed, no trailing newline).
pub fn encode_header(h: &JournalHeader) -> String {
    seal_line(&format!(
        "{{\"fswp\":{FORMAT_VERSION},\"kind\":\"header\",\"scale\":\"{}\",\"code\":\"{}\",\"grid\":{}",
        h.scale, h.code_version, h.grid
    ))
}

/// Encodes one result row (sealed, no trailing newline).
pub fn encode_row(r: &JournalRow) -> String {
    seal_line(&format!(
        "{{\"fswp\":{FORMAT_VERSION},\"kind\":\"row\",\"system\":\"{}\",\"suite\":\"{}\",\
         \"scale\":\"{}\",\"variant\":\"{}\",\"config_hash\":\"{:016x}\",\"code\":\"{}\",\
         \"trace\":\"{:016x}\",\"attempts\":{},\"backoff\":{},\"sim_events\":{},\"refs\":{},\
         \"result\":{}",
        r.system,
        r.suite,
        r.scale,
        r.variant,
        r.config_hash,
        r.code_version,
        r.trace_fingerprint,
        r.attempts,
        r.backoff,
        r.sim_events,
        r.refs,
        r.result_json,
    ))
}

/// Verifies a line's trailing seal; returns the unsealed prefix when it
/// holds. A torn tail, a flipped bit or a reseal over a different payload
/// all fail here.
fn check_seal(line: &str) -> Option<&str> {
    let idx = line.rfind(",\"seal\":\"")?;
    let hex = line
        .get(idx + ",\"seal\":\"".len()..)?
        .strip_suffix("\"}")?;
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let want = u64::from_str_radix(hex, 16).ok()?;
    if fnv1a(line.get(..idx)?.as_bytes()) == want {
        line.get(..idx)
    } else {
        None
    }
}

/// Extracts the first `"name":"<value>"` string field (panic-free; the
/// journal grammar puts no quotes or escapes inside values).
fn str_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = line.get(start..)?;
    rest.get(..rest.find('"')?)
}

/// Extracts the first `"name":<digits>` numeric field.
fn u64_field(line: &str, name: &str) -> Option<u64> {
    let pat = format!("\"{name}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: &str = {
        let rest = line.get(start..)?;
        let end = rest
            .as_bytes()
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(rest.len());
        rest.get(..end)?
    };
    digits.parse().ok()
}

/// Extracts the first `"name":"<16 hex digits>"` fingerprint field.
fn hex_field(line: &str, name: &str) -> Option<u64> {
    let v = str_field(line, name)?;
    if v.len() != 16 {
        return None;
    }
    u64::from_str_radix(v, 16).ok()
}

/// A cycle pulled from a journaled result payload (`"total_cycles"`,
/// `"dma_cycles"`, ...), for the CLI's text rendering of resumed rows.
pub fn result_u64(result_json: &str, name: &str) -> Option<u64> {
    u64_field(result_json, name)
}

/// `true` when `s` is one balanced JSON object (brace depth returns to
/// zero exactly at the end, tracking strings and escapes). A resealed
/// splice of half a payload fails this.
fn balanced_object(s: &str) -> bool {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (i, b) in s.bytes().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i == s.len() - 1;
                }
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    false
}

/// The result-payload `system` string a row with this system label must
/// embed — the cross-check that catches a resealed row whose payload was
/// spliced from a different system's result.
fn expected_result_system(system_label: &str) -> Option<&'static str> {
    match system_label {
        "SC" => Some("SCRATCH"),
        "SH" => Some("SHARED"),
        "FU" => Some("FUSION"),
        "FU-Dx" => Some("FUSION-Dx"),
        _ => None,
    }
}

/// What [`read_journal`] recovered from a journal's bytes: the header (if
/// its line verified), every row whose seal and structure verified, and a
/// warning per line that was dropped.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The verified header, when present.
    pub header: Option<JournalHeader>,
    /// Rows that passed seal + structural verification, journal order,
    /// with all duplicate-key rows removed (see module docs).
    pub rows: Vec<JournalRow>,
    /// One human-readable warning per dropped or suspicious line.
    pub warnings: Vec<String>,
}

/// Decodes journal bytes, tolerating a torn tail, corrupt lines and
/// duplicate keys: damaged lines are dropped with a warning and *all*
/// rows sharing a duplicated key are dropped (a duplicate means two
/// writers raced or a file was spliced — re-running is the only safe
/// answer, splicing either copy silently is not). Never panics.
pub fn read_journal(bytes: &[u8]) -> Recovery {
    let mut rec = Recovery::default();
    let text = String::from_utf8_lossy(bytes);
    let torn_tail = !bytes.is_empty() && bytes.last() != Some(&b'\n');
    let line_count = text.lines().count();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        let Some(unsealed) = check_seal(line) else {
            let why = if torn_tail && lineno == line_count {
                "torn tail (partial write)"
            } else {
                "bad or missing seal"
            };
            rec.warnings
                .push(format!("line {lineno}: {why}; dropped, will re-run"));
            continue;
        };
        // A header is read at any format version: its code version names
        // the format revision, so resuming a journal of another format is
        // refused as a code-version mismatch instead of silently re-run.
        let kind = str_field(unsealed, "kind");
        if kind != Some("header") && u64_field(unsealed, "fswp") != Some(FORMAT_VERSION as u64) {
            rec.warnings.push(format!(
                "line {lineno}: unknown journal format version; dropped"
            ));
            continue;
        }
        match kind {
            Some("header") => {
                let header = (|| {
                    Some(JournalHeader {
                        scale: str_field(unsealed, "scale")?.to_string(),
                        code_version: str_field(unsealed, "code")?.to_string(),
                        grid: usize::try_from(u64_field(unsealed, "grid")?).ok()?,
                    })
                })();
                match (header, rec.header.is_some()) {
                    (Some(h), false) => rec.header = Some(h),
                    (Some(_), true) => rec
                        .warnings
                        .push(format!("line {lineno}: duplicate header; ignored")),
                    (None, _) => rec
                        .warnings
                        .push(format!("line {lineno}: malformed header; ignored")),
                }
            }
            Some("row") => match decode_row(unsealed) {
                Ok(row) => rec.rows.push(row),
                Err(detail) => rec
                    .warnings
                    .push(format!("line {lineno}: {detail}; dropped, will re-run")),
            },
            _ => rec
                .warnings
                .push(format!("line {lineno}: unknown record kind; dropped")),
        }
    }

    // Duplicate keys: drop every copy, not just the extras. Two sealed
    // rows for one grid point cannot both be trusted blindly.
    let mut seen: FxHashMap<JobKey, usize> = FxHashMap::default();
    for row in &rec.rows {
        *seen.entry(row.key()).or_insert(0) += 1;
    }
    let dups: FxHashSet<JobKey> = seen
        .into_iter()
        .filter(|(_, n)| *n > 1)
        .map(|(k, _)| k)
        .collect();
    if !dups.is_empty() {
        rec.rows.retain(|row| {
            let keep = !dups.contains(&row.key());
            if !keep {
                rec.warnings.push(format!(
                    "duplicate rows for {}/{}@{}; all dropped, will re-run",
                    row.suite, row.system, row.variant
                ));
            }
            keep
        });
    }
    rec
}

/// Decodes one sealed row line's unsealed prefix.
fn decode_row(unsealed: &str) -> Result<JournalRow, String> {
    let result_start = unsealed
        .find("\"result\":")
        .ok_or("row missing result payload")?;
    let result_json = unsealed
        .get(result_start + "\"result\":".len()..)
        .ok_or("row missing result payload")?;
    if !balanced_object(result_json) {
        return Err("result payload is not one balanced JSON object".to_string());
    }
    let head = unsealed
        .get(..result_start)
        .ok_or("row header unreadable")?;
    let row = JournalRow {
        system: str_field(head, "system")
            .ok_or("row missing system")?
            .to_string(),
        suite: str_field(head, "suite")
            .ok_or("row missing suite")?
            .to_string(),
        scale: str_field(head, "scale")
            .ok_or("row missing scale")?
            .to_string(),
        variant: str_field(head, "variant")
            .ok_or("row missing variant")?
            .to_string(),
        config_hash: hex_field(head, "config_hash").ok_or("row missing config_hash")?,
        code_version: str_field(head, "code")
            .ok_or("row missing code version")?
            .to_string(),
        trace_fingerprint: hex_field(head, "trace").ok_or("row missing trace fingerprint")?,
        // Saturate rather than truncate: a corrupt attempts field must
        // not alias onto a small plausible value.
        attempts: u32::try_from(u64_field(head, "attempts").ok_or("row missing attempts")?)
            .unwrap_or(u32::MAX),
        backoff: u64_field(head, "backoff").ok_or("row missing backoff")?,
        sim_events: u64_field(head, "sim_events").ok_or("row missing sim_events")?,
        refs: u64_field(head, "refs").ok_or("row missing refs")?,
        result_json: result_json.to_string(),
    };
    let expected = expected_result_system(&row.system)
        .ok_or_else(|| format!("unknown system label '{}'", row.system))?;
    if !row
        .result_json
        .starts_with(&format!("{{\"system\":\"{expected}\""))
    {
        return Err(format!(
            "result payload does not belong to system '{}'",
            row.system
        ));
    }
    Ok(row)
}

/// The verified resume plan over one grid: for each job, either the
/// journaled row to splice or `None` (run it live).
#[derive(Debug, Default)]
pub struct ResumePlan {
    /// Parallel to the grid: `Some(row)` splices, `None` re-runs.
    pub resumed: Vec<Option<JournalRow>>,
    /// Verification warnings (rows dropped, orphans ignored).
    pub warnings: Vec<String>,
}

impl ResumePlan {
    /// Number of grid points served from the journal.
    pub fn resumed_count(&self) -> usize {
        self.resumed.iter().flatten().count()
    }
}

/// Plans a resume: matches recovered rows against `jobs` and re-verifies
/// every claim (checked, never assumed).
///
/// Header mismatches on code version or scale are usage errors
/// ([`JournalError::is_usage`]); a missing header downgrades to a full
/// re-run with a warning. Per-row mismatches (config fingerprint via the
/// key, stale code version, changed trace bytes, wrong scale) drop the
/// row back to the re-run set with a warning. `trace_fingerprint` is
/// asked at most once per suite.
pub fn plan_resume(
    jobs: &[SweepJob],
    scale: Scale,
    recovery: &Recovery,
    expected_code_version: &str,
    trace_fingerprint: &mut dyn FnMut(SuiteId) -> u64,
) -> Result<ResumePlan, JournalError> {
    let mut plan = ResumePlan {
        resumed: Vec::with_capacity(jobs.len()),
        warnings: recovery.warnings.clone(),
    };
    let Some(header) = &recovery.header else {
        plan.warnings
            .push("journal has no verifiable header; ignoring journaled rows".to_string());
        plan.resumed = jobs.iter().map(|_| None).collect();
        return Ok(plan);
    };
    if header.code_version != expected_code_version {
        return Err(JournalError::CodeVersionMismatch {
            found: header.code_version.clone(),
            expected: expected_code_version.to_string(),
        });
    }
    let scale_str = scale_label(scale);
    if header.scale != scale_str {
        return Err(JournalError::ScaleMismatch {
            found: header.scale.clone(),
            expected: scale_str.to_string(),
        });
    }
    // Hot-map audit: probed per row, never iterated.
    let mut fingerprints: FxHashMap<SuiteId, u64> = FxHashMap::default();
    let mut by_key: FxHashMap<JobKey, JournalRow> = FxHashMap::default();
    for row in &recovery.rows {
        by_key.insert(row.key(), row.clone());
    }
    for job in jobs {
        let Some(row) = by_key.remove(&job_key(job)) else {
            plan.resumed.push(None);
            continue;
        };
        let label = job.label();
        let verified = if row.code_version != expected_code_version {
            plan.warnings
                .push(format!("{label}: row code version stale; will re-run"));
            false
        } else if row.scale != scale_str {
            plan.warnings
                .push(format!("{label}: row scale mismatch; will re-run"));
            false
        } else if row.trace_fingerprint
            != *fingerprints
                .entry(job.suite)
                .or_insert_with(|| trace_fingerprint(job.suite))
        {
            plan.warnings
                .push(format!("{label}: workload trace changed; will re-run"));
            false
        } else {
            true
        };
        plan.resumed.push(verified.then_some(row));
    }
    if !by_key.is_empty() {
        plan.warnings.push(format!(
            "{} journaled row(s) match no current grid point; ignored",
            by_key.len()
        ));
    }
    Ok(plan)
}

/// Appends sealed lines to a journal file, one write and one fsync per
/// batch — the write-ahead discipline: a row is on disk before the sweep
/// publishes the result it records. `with_quota` arms the chaos harness's
/// disk-full simulation.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    quota: Option<u64>,
    written: u64,
    syncs: u64,
}

impl JournalWriter {
    /// Creates (truncating) the journal at `path` and writes the sealed
    /// header. Resume goes through [`compact`] instead, which never
    /// truncates the journal it reads from.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<JournalWriter, JournalError> {
        let mut w = JournalWriter::open(path)?;
        w.append_batch(&[encode_header(header)])?;
        Ok(w)
    }

    /// Creates (truncating) an empty file at `path`.
    fn open(path: &Path) -> Result<JournalWriter, JournalError> {
        let file = File::create(path).map_err(|e| JournalError::Io {
            detail: format!("create {}: {e}", path.display()),
        })?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            quota: None,
            written: 0,
            syncs: 0,
        })
    }

    /// Caps the bytes this writer may put on disk, simulating a full
    /// device: writes past the quota fail with [`JournalError::DiskFull`].
    pub fn with_quota(mut self, bytes: u64) -> JournalWriter {
        self.quota = Some(bytes);
        self
    }

    /// Appends one sealed row, fsync'd before returning.
    pub fn append(&mut self, row: &JournalRow) -> Result<(), JournalError> {
        self.append_batch(&[encode_row(row)])
    }

    /// Appends sealed lines (each without its newline) with one write and
    /// one `sync_data`, so the batch is durable before this returns. A
    /// batch that would pass the quota writes nothing: the file ends at
    /// the previous batch.
    pub fn append_batch(&mut self, lines: &[String]) -> Result<(), JournalError> {
        let mut payload = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            payload.push_str(line);
            payload.push('\n');
        }
        if let Some(quota) = self.quota {
            if self.written + payload.len() as u64 > quota {
                return Err(JournalError::DiskFull {
                    detail: format!(
                        "injected quota of {quota} bytes exhausted at {}",
                        self.path.display()
                    ),
                });
            }
        }
        let io_err = |e: std::io::Error| JournalError::Io {
            detail: format!("write {}: {e}", self.path.display()),
        };
        self.file.write_all(payload.as_bytes()).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)?;
        self.syncs += 1;
        self.written += payload.len() as u64;
        Ok(())
    }

    /// `sync_data` calls made so far: one per batch, header included.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// Rewrites the journal at `path` as `header` plus `rows` and returns a
/// writer that appends after them — resume's compaction, which drops torn
/// tails, duplicates and stale rows rather than appending after them.
///
/// Crash-safe: the lines go to a sibling `<name>.compact` file in one
/// batch (one write, one fsync), which is then renamed over `path` and
/// the directory synced. Until the rename the old journal is untouched,
/// so a crash or a failed write at any point leaves one complete journal
/// at `path`, never a truncated one.
pub fn compact<'a>(
    path: &Path,
    header: &JournalHeader,
    rows: impl IntoIterator<Item = &'a JournalRow>,
) -> Result<JournalWriter, JournalError> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".compact");
    let tmp = path.with_file_name(name);
    let mut lines = vec![encode_header(header)];
    lines.extend(rows.into_iter().map(encode_row));
    let io_err = |what: &str, e: std::io::Error| JournalError::Io {
        detail: format!("{what} {}: {e}", path.display()),
    };
    let mut w = JournalWriter::open(&tmp)?;
    if let Err(e) = w.append_batch(&lines) {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(io_err("rename onto", e));
    }
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("sync the directory of", e))?;
    w.path = path.to_path_buf();
    Ok(w)
}

/// The body of [`crate::Sweep::open_journal`]: [`JournalWriter::create`]
/// when fresh; on resume [`read_journal`], [`plan_resume`] and [`compact`].
/// The warnings reach `warn` before compaction, so a failed compaction
/// still reports them.
pub(crate) fn open(
    path: &Path,
    resume: bool,
    jobs: &[SweepJob],
    scale: Scale,
    traces: &TraceCache,
    warn: &mut dyn FnMut(&str),
) -> Result<(JournalSink, Vec<Option<JournalRow>>), JournalError> {
    let header = JournalHeader {
        scale: scale_label(scale).to_string(),
        code_version: code_version(),
        grid: jobs.len(),
    };
    if !resume {
        let writer = JournalWriter::create(path, &header)?;
        return Ok((JournalSink::new(writer), vec![None; jobs.len()]));
    }
    let resumed = match std::fs::read(path) {
        Ok(bytes) => {
            let plan = plan_resume(
                jobs,
                scale,
                &read_journal(&bytes),
                &header.code_version,
                &mut |suite| traces.fingerprint(suite, scale),
            )?;
            plan.warnings.iter().for_each(|w| warn(w));
            plan.resumed
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            warn(&format!(
                "{} not found; running the full grid",
                path.display()
            ));
            vec![None; jobs.len()]
        }
        Err(e) => {
            return Err(JournalError::Io {
                detail: format!("cannot read {}: {e}", path.display()),
            })
        }
    };
    let writer = compact(path, &header, resumed.iter().flatten())?;
    Ok((JournalSink::new(writer), resumed))
}

/// Thread-safe journal endpoint a sweep commits batches through.
///
/// Journal loss is itself handled gracefully: after the first failed
/// batch (disk full, I/O error) the sink goes dead and later commits
/// no-op — the sweep keeps producing results, it just loses crash
/// protection for them, and [`JournalSink::lost`] reports why.
#[derive(Debug)]
pub struct JournalSink {
    state: Mutex<SinkState>,
}

/// The writer and, once a batch has failed, why.
#[derive(Debug)]
struct SinkState {
    writer: JournalWriter,
    lost: Option<String>,
}

impl JournalSink {
    /// Wraps a writer for concurrent use.
    pub fn new(writer: JournalWriter) -> JournalSink {
        JournalSink {
            state: Mutex::new(SinkState { writer, lost: None }),
        }
    }

    /// Appends sealed row lines as one batch ([`JournalWriter::
    /// append_batch`]); on failure the sink goes dead (never fails the
    /// sweep jobs whose results it was recording).
    pub fn commit(&self, lines: &[String]) {
        let mut state = self.state();
        if state.lost.is_some() || lines.is_empty() {
            return;
        }
        if let Err(e) = state.writer.append_batch(lines) {
            state.lost = Some(e.to_string());
        }
    }

    /// Why the journal died mid-sweep, if it did.
    pub fn lost(&self) -> Option<String> {
        self.state().lost.clone()
    }

    /// The writer's [`JournalWriter::syncs`].
    pub fn syncs(&self) -> u64 {
        self.state().writer.syncs()
    }

    /// The state, with poison recovery: a panic elsewhere never leaves
    /// the writer half-updated, since every update is one call.
    fn state(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Renders the machine-readable salvage report a partial sweep exits
/// with: what completed (live + resumed), what failed and how, what was
/// never attempted, whether the journal died mid-sweep, and the resume
/// hint. `points` is the whole grid ([`crate::Sweep::run_points`]).
pub fn salvage_json(points: &[GridPoint], journal_lost: bool, journal: Option<&str>) -> String {
    use std::fmt::Write as _;
    let expected = points.len();
    let outcomes = || points.iter().filter_map(GridPoint::outcome);
    let resumed = points.iter().filter(|p| p.is_resumed()).count();
    let completed = resumed + outcomes().filter(|o| o.result.is_ok()).count();
    let failed = outcomes().filter(|o| o.result.is_err()).count();
    let not_attempted = points
        .iter()
        .filter(|p| matches!(p, GridPoint::NotRun))
        .count();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"salvage\":1,\"journal\":{},\"expected\":{expected},\"completed\":{completed},\
         \"resumed\":{resumed},\"failed\":{failed},\"not_attempted\":{not_attempted},\
         \"journal_lost\":{journal_lost},\"failures\":[",
        match journal {
            Some(p) => format!("\"{}\"", json_escape(p)),
            None => "null".to_string(),
        },
    );
    let mut first = true;
    for o in outcomes() {
        let Err(e) = &o.result else { continue };
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(
            s,
            "{{\"suite\":\"{}\",\"system\":\"{}\",\"config\":\"{}\",\"kind\":\"{}\",\
             \"message\":\"{}\"}}",
            o.job.suite.label(),
            o.job.system.label(),
            o.job.variant,
            e.kind_label(),
            json_escape(&e.to_string()),
        );
    }
    let resume_hint = match journal {
        Some(p) => format!("\"sim sweep --journal {} --resume\"", json_escape(p)),
        None => "null".to_string(),
    };
    let _ = write!(s, "],\"resume\":{resume_hint}}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            scale: "tiny".to_string(),
            code_version: code_version(),
            grid: 2,
        }
    }

    fn row(system: &str, result_system: &str) -> JournalRow {
        JournalRow {
            system: system.to_string(),
            suite: "FFT".to_string(),
            scale: "tiny".to_string(),
            variant: "base".to_string(),
            config_hash: 0x1234,
            code_version: code_version(),
            trace_fingerprint: 0xabcd,
            attempts: 1,
            backoff: 0,
            sim_events: 10,
            refs: 20,
            result_json: format!(
                "{{\"system\":\"{result_system}\",\"total_cycles\":42,\"phases\":[]}}"
            ),
        }
    }

    #[test]
    fn header_and_row_round_trip() {
        let text = format!(
            "{}\n{}\n",
            encode_header(&header()),
            encode_row(&row("FU", "FUSION"))
        );
        let rec = read_journal(text.as_bytes());
        assert_eq!(rec.header, Some(header()));
        assert_eq!(rec.rows, vec![row("FU", "FUSION")]);
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
    }

    #[test]
    fn a_journal_of_the_previous_format_is_a_usage_error_on_resume() {
        let old_header = seal_line(
            "{\"fswp\":1,\"kind\":\"header\",\"scale\":\"tiny\",\"code\":\"0.1.0+wal1\",\"grid\":2",
        );
        let row_now = encode_row(&row("FU", "FUSION"));
        let unsealed = check_seal(&row_now).unwrap();
        let old_row =
            seal_line(&unsealed.replacen(&format!("\"fswp\":{FORMAT_VERSION}"), "\"fswp\":1", 1));
        let rec = read_journal(format!("{old_header}\n{old_row}\n").as_bytes());
        assert_eq!(
            rec.header.as_ref().map(|h| h.code_version.as_str()),
            Some("0.1.0+wal1")
        );
        assert!(
            rec.rows.is_empty(),
            "a row of another format is never trusted"
        );
        let jobs = [SweepJob::new(
            crate::runner::SystemKind::Fusion,
            SuiteId::Fft,
            SystemConfig::small(),
        )];
        let err = plan_resume(&jobs, Scale::Tiny, &rec, &code_version(), &mut |_| 0)
            .expect_err("resume must refuse the journal");
        assert!(err.is_usage(), "{err}");
    }

    #[test]
    fn torn_tail_drops_only_the_last_line() {
        let full = format!(
            "{}\n{}\n",
            encode_header(&header()),
            encode_row(&row("SC", "SCRATCH"))
        );
        let torn = &full.as_bytes()[..full.len() - 9];
        let rec = read_journal(torn);
        assert_eq!(rec.header, Some(header()));
        assert!(rec.rows.is_empty());
        assert_eq!(rec.warnings.len(), 1);
        assert!(rec.warnings[0].contains("torn tail"), "{:?}", rec.warnings);
    }

    #[test]
    fn flipped_bit_fails_the_seal() {
        let mut line = encode_row(&row("SH", "SHARED")).into_bytes();
        line[20] ^= 0x01;
        line.push(b'\n');
        let rec = read_journal(&line);
        assert!(rec.rows.is_empty());
        assert_eq!(rec.warnings.len(), 1);
    }

    #[test]
    fn resealed_cross_system_splice_is_rejected() {
        // A row claiming SC but carrying a FUSION payload, with a *valid*
        // seal: structural validation must still reject it.
        let line = encode_row(&row("SC", "FUSION"));
        let rec = read_journal(format!("{line}\n").as_bytes());
        assert!(rec.rows.is_empty());
        assert!(
            rec.warnings[0].contains("does not belong"),
            "{:?}",
            rec.warnings
        );
    }

    #[test]
    fn duplicate_keys_drop_every_copy() {
        let a = encode_row(&row("FU", "FUSION"));
        let b = encode_row(&row("SC", "SCRATCH"));
        let text = format!("{}\n{a}\n{b}\n{a}\n", encode_header(&header()));
        let rec = read_journal(text.as_bytes());
        assert_eq!(rec.rows.len(), 1);
        assert_eq!(rec.rows[0].system, "SC");
        assert!(
            rec.warnings.iter().any(|w| w.contains("duplicate rows")),
            "{:?}",
            rec.warnings
        );
    }

    #[test]
    fn garbage_bytes_never_panic() {
        let mut rng = fusion_types::SplitMix64(99);
        for len in [0usize, 1, 7, 64, 513] {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64().to_le_bytes()[0]).collect();
            let rec = read_journal(&bytes);
            assert!(rec.rows.is_empty());
        }
    }

    #[test]
    fn balanced_object_tracks_strings() {
        assert!(balanced_object("{\"a\":1}"));
        assert!(balanced_object("{\"a\":\"}{\"}"));
        assert!(!balanced_object("{\"a\":1"));
        assert!(!balanced_object("{\"a\":1}}"));
        assert!(!balanced_object("{\"a\":1}{"));
        assert!(!balanced_object(""));
    }

    #[test]
    fn config_fingerprint_sees_every_knob() {
        let base = SystemConfig::small();
        let fp = config_fingerprint(&base);
        let mut l0 = base.clone();
        l0.l0x.capacity_bytes *= 2;
        assert_ne!(fp, config_fingerprint(&l0));
        let mut wp = base.clone();
        wp.write_policy = fusion_types::WritePolicy::WriteThrough;
        assert_ne!(fp, config_fingerprint(&wp));
        let mut pf = base.clone();
        pf.l1x_prefetch_degree = 2;
        assert_ne!(fp, config_fingerprint(&pf));
        let mut link = base.clone();
        link.link_l0x_l0x_pj_per_byte += 0.01;
        assert_ne!(fp, config_fingerprint(&link));
        let mut l2 = base.clone();
        l2.l2.latency += 1;
        assert_ne!(fp, config_fingerprint(&l2));
        let mut mem = base.clone();
        mem.memory_latency += 1;
        assert_ne!(fp, config_fingerprint(&mem));
        let mut sp = base.clone();
        sp.scratchpad.latency += 1;
        assert_ne!(fp, config_fingerprint(&sp));
        let chk = base
            .clone()
            .with_checker(fusion_types::fault::CheckerConfig::enabled());
        assert_ne!(fp, config_fingerprint(&chk));
        assert_eq!(fp, config_fingerprint(&base.clone()));
    }

    #[test]
    fn salvage_report_counts_and_escapes() {
        let mut points = vec![GridPoint::Resumed(row("FU", "FUSION")); 3];
        points.extend(std::iter::repeat_with(|| GridPoint::NotRun).take(7));
        let json = salvage_json(&points, false, Some("wal \"x\".jsonl"));
        assert!(json.contains("\"expected\":10"));
        assert!(json.contains("\"resumed\":3"));
        assert!(json.contains("\"not_attempted\":7"));
        assert!(json.contains("\\\"x\\\""));
        assert!(json.contains("\"journal_lost\":false"));
        let none = salvage_json(&[GridPoint::NotRun], true, None);
        assert!(none.contains("\"journal_lost\":true"));
        assert!(none.contains("\"journal\":null"));
        assert!(none.contains("\"resume\":null"));
    }
}
