//! Run records and the parent-versus-change verdicts.
//!
//! A record is one workload's result from one `perf run`: the line the
//! benchmark prints, plus the workload name. `perf compare` pairs the
//! i-th parent record of a workload with its i-th change record (run the
//! two commits alternately) and applies the rule for claiming a gain on a
//! noisy shared machine: at least ten pairs, the change winning at least
//! nine in ten of them, and medians further apart than the parent's
//! interquartile range. A change whose median is worse than the parent's
//! by more than the metric's bound is a regression; where either side's
//! spread is wider than the bound the pair is unresolved, unless every
//! change run beats every parent run. Any rise in the share of failed
//! operations is a regression.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::spec::{Better, END_TO_END};
use crate::stats::Summary;

/// One workload's result from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Whether every output checked out.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name, with their units.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Record {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, preceded by `workload` when `named`.
    pub fn to_json(&self, named: bool) -> String {
        let mut out = String::from("{");
        if named {
            out.push_str("\"workload\":");
            json::write_str(&self.workload, &mut out);
            out.push(',');
        }
        let _ = write!(
            out,
            "\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(name, &mut out);
            // A non-finite value cannot be written as JSON; it only
            // arises from a run with nothing measured, which is failed.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, ":{{\"value\":{value:?},\"unit\":");
            json::write_str(unit, &mut out);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses a named record line.
    pub fn parse(line: &str) -> Result<Record, String> {
        let v = json::parse(line)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("record without '{k}'"));
        let count = |k: &str| -> Result<u64, String> {
            field(k)?
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("'{k}' is not a count"))
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?
            .as_object()
            .ok_or("'metrics' is not an object")?
        {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric '{name}' has no value"))?;
            let unit = crate::spec::unit_of(name).unwrap_or("");
            metrics.insert(name.clone(), (value, unit));
        }
        Ok(Record {
            workload: field("workload")?
                .as_str()
                .ok_or("'workload' is not a string")?
                .to_string(),
            correct: matches!(field("correct")?, Value::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// Reads a file of record lines (blank lines ignored).
pub fn read_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Record::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The outcome for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins by the gain rule.
    Improved,
    /// No worse than the bound, and the spread allows saying so.
    Unchanged,
    /// Worse than the parent by more than the bound (or more failures).
    Regressed,
    /// The spread is wider than the bound: no call either way.
    Unresolved,
}

impl Verdict {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (metric, workload) comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name (`fail_share` for the failure check).
    pub metric: String,
    /// Parent samples' summary.
    pub parent: Summary,
    /// Change samples' summary.
    pub change: Summary,
    /// Pairs compared.
    pub pairs: usize,
    /// Pairs the change won.
    pub wins: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// The verdict for one metric given paired samples (`parent[i]` ran next
/// to `change[i]`).
pub fn judge(
    better: Better,
    bound: f64,
    parent: &[f64],
    change: &[f64],
) -> Option<(Verdict, usize)> {
    let p = Summary::of(parent)?;
    let c = Summary::of(change)?;
    let beats = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| beats(**c, **p))
        .count();
    let gain = match better {
        Better::Lower => p.median - c.median,
        Better::Higher => c.median - p.median,
    };
    let verdict = if pairs >= 10 && wins * 10 >= pairs * 9 && gain > p.q3 - p.q1 {
        Verdict::Improved
    } else if p.spread().max(c.spread()) > bound
        && !change
            .iter()
            .all(|&cv| parent.iter().all(|&pv| beats(cv, pv)))
    {
        Verdict::Unresolved
    } else if -gain > bound * p.median.abs() {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Some((verdict, wins))
}

/// Compares every end-to-end metric and the failure share on every
/// workload both sides ran.
pub fn compare(parent: &[Record], change: &[Record]) -> Vec<Comparison> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent {
        if !workloads.contains(&r.workload.as_str())
            && change.iter().any(|c| c.workload == r.workload)
        {
            workloads.push(&r.workload);
        }
    }
    let mut out = Vec::new();
    for w in workloads {
        let p: Vec<&Record> = parent.iter().filter(|r| r.workload == w).collect();
        let c: Vec<&Record> = change.iter().filter(|r| r.workload == w).collect();
        let n = p.len().min(c.len());
        let (p, c) = (&p[..n], &c[..n]);
        for m in END_TO_END {
            let values = |rs: &[&Record]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(m.name).map(|v| v.0))
                    .collect()
            };
            let (pv, cv) = (values(p), values(c));
            if let (Some(parent), Some(change), Some((verdict, wins))) = (
                Summary::of(&pv),
                Summary::of(&cv),
                judge(m.better, m.bound, &pv, &cv),
            ) {
                out.push(Comparison {
                    workload: w.to_string(),
                    metric: m.name.to_string(),
                    parent,
                    change,
                    pairs: pv.len().min(cv.len()),
                    wins,
                    verdict,
                });
            }
        }
        let share = |rs: &[&Record]| -> Vec<f64> {
            rs.iter()
                .map(|r| r.failed as f64 / r.attempted.max(1) as f64)
                .collect()
        };
        let (pf, cf) = (share(p), share(c));
        let total = |v: &[f64]| v.iter().sum::<f64>();
        if let (Some(ps), Some(cs)) = (Summary::of(&pf), Summary::of(&cf)) {
            out.push(Comparison {
                workload: w.to_string(),
                metric: "fail_share".to_string(),
                parent: ps,
                change: cs,
                pairs: n,
                wins: pf.iter().zip(&cf).filter(|(p, c)| c < p).count(),
                verdict: if total(&cf) > total(&pf) {
                    Verdict::Regressed
                } else {
                    Verdict::Unchanged
                },
            });
        }
    }
    out
}
