//! Reading and checking what a `sim` / `tables` child printed.
//!
//! Correctness is a digest: FNV-1a over the output, which must equal the
//! workload's expected digest. `tables` output is deterministic and is
//! digested verbatim. A sweep's rows also carry host measurements (wall
//! time, queue delay, retry accounting, memo marks, the tile-thread
//! reservation); those fields are removed before digesting, so a memoized
//! grid and the same grid replayed in full digest equal.

use fusion_core::journal::fnv1a;

use crate::json::{self, Value};

/// Sweep-row fields that describe the run on the host, not the simulated
/// machine: dropped before digesting.
pub const HOST_FIELDS: [&str; 7] = [
    "wall_ms",
    "queue_delay_ms",
    "refs_per_sec",
    "memo",
    "attempts",
    "backoff",
    "tile_threads",
];

/// One grid point of `sim sweep --json`, as the benchmark uses it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Suite label (`"FFT"`, ...).
    pub suite: String,
    /// System label (`"SC"`, ...).
    pub system: String,
    /// Config variant (`"base"`, `"l0x2k"`, ...).
    pub config: String,
    /// References the row reports (memo-spliced rows report their whole
    /// trace, though nothing was replayed).
    pub refs: u64,
    /// Host milliseconds the job took.
    pub wall_ms: f64,
    /// Whether the memo spliced this job instead of replaying it.
    pub spliced: bool,
    /// Simulated events (energy-ledger activity) of the job.
    pub sim_events: u64,
    /// Digest of the row's `result` member (`None` for a failed job).
    pub result_digest: Option<u64>,
}

/// Parsed `sim sweep --json` output: the rows plus the digest of their
/// simulated content.
#[derive(Debug, Clone)]
pub struct SweepOutput {
    /// Grid points in grid order.
    pub rows: Vec<SweepRow>,
    /// FNV-1a of the rows with [`HOST_FIELDS`] removed.
    pub digest: u64,
}

/// Parses and digests the stdout of `sim sweep --json`.
pub fn parse_sweep(stdout: &str) -> Result<SweepOutput, String> {
    let doc = json::parse(stdout)?;
    let items = doc.as_array().ok_or("sweep output is not a JSON array")?;
    let mut rows = Vec::with_capacity(items.len());
    let mut stripped = Vec::with_capacity(items.len());
    for item in items {
        let members = item.as_object().ok_or("sweep row is not an object")?;
        let text = |k: &str| {
            item.get(k)
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string()
        };
        let num = |k: &str| item.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        rows.push(SweepRow {
            suite: text("suite"),
            system: text("system"),
            config: text("config"),
            refs: num("refs") as u64,
            wall_ms: num("wall_ms"),
            spliced: text("memo") == "hit",
            sim_events: num("sim_events") as u64,
            result_digest: item.get("result").map(|r| fnv1a(r.to_json().as_bytes())),
        });
        stripped.push(Value::Obj(
            members
                .iter()
                .filter(|(k, _)| !HOST_FIELDS.contains(&k.as_str()))
                .cloned()
                .collect(),
        ));
    }
    Ok(SweepOutput {
        rows,
        digest: fnv1a(Value::Arr(stripped).to_json().as_bytes()),
    })
}

/// Digest of one simulated result's JSON (as `SimResult::to_json` or a
/// sweep row's `result` member prints it), normalized through the parser
/// so both sources compare byte for byte.
pub fn result_digest(result_json: &str) -> Result<u64, String> {
    Ok(fnv1a(json::parse(result_json)?.to_json().as_bytes()))
}
