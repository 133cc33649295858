//! The harness's statistics, output digests, verdicts and traced run.

use std::collections::BTreeMap;
use std::time::Instant;

use fusion_core::full_grid;
use fusion_perf::compare::{self, judge, Record, Verdict};
use fusion_perf::json;
use fusion_perf::layers::trace_layers;
use fusion_perf::output::parse_sweep;
use fusion_perf::spec::{Better, LAYERS};
use fusion_perf::stats::{median, quartiles, Summary};
use fusion_types::SystemConfig;
use fusion_workloads::Scale;

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values: statistics.quantiles(v, n=4) and median(v).
    let cases: [(&[f64], [f64; 3], f64); 6] = [
        (&[1.0, 2.0], [0.75, 1.5, 2.25], 1.5),
        (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0], 2.0),
        (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75], 2.5),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5], 3.0),
        (
            &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
            [27.5, 55.0, 82.5],
            55.0,
        ),
        (
            &[0.31, 0.29, 0.35, 0.30, 0.33, 0.32],
            [0.2975, 0.315, 0.335],
            0.315,
        ),
    ];
    for (v, q, m) in cases {
        let got = quartiles(v).unwrap();
        for (g, want) in got.iter().zip(q) {
            assert!((g - want).abs() < 1e-12, "{v:?}: {got:?} vs {q:?}");
        }
        assert!((median(v).unwrap() - m).abs() < 1e-12);
    }
    assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
    assert_eq!(median(&[]), None);
    let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    assert!((s.spread() - 2.5 / 2.5).abs() < 1e-12);
}

fn sweep_text(wall_ms: &str, total_cycles: u64) -> String {
    format!(
        "[\n{{\"suite\":\"FFT\",\"system\":\"SC\",\"config\":\"base\",\"tile_threads\":1,\
         \"wall_ms\":{wall_ms},\"queue_delay_ms\":0.197,\"sim_events\":10,\"refs\":55424,\
         \"refs_per_sec\":21660289,\"memo\":\"miss\",\"attempts\":1,\"backoff\":0,\
         \"result\":{{\"system\":\"SCRATCH\",\"total_cycles\":{total_cycles},\"cache_energy_pj\":1.500}}}},\n\
         {{\"suite\":\"FFT\",\"system\":\"SH\",\"config\":\"l0x2k\",\"tile_threads\":1,\
         \"wall_ms\":0.004,\"queue_delay_ms\":0.0,\"sim_events\":10,\"refs\":55424,\
         \"refs_per_sec\":0,\"memo\":\"hit\",\"attempts\":1,\"backoff\":0,\
         \"result\":{{\"system\":\"SHARED\",\"total_cycles\":7}}}}\n]\n"
    )
}

#[test]
fn digest_ignores_host_timings_but_not_simulated_stats() {
    let base = parse_sweep(&sweep_text("2.559", 328452)).unwrap();
    let slower = parse_sweep(&sweep_text("9.120", 328452)).unwrap();
    let different = parse_sweep(&sweep_text("2.559", 328453)).unwrap();
    assert_eq!(
        base.digest, slower.digest,
        "wall_ms must not change the digest"
    );
    assert_ne!(
        base.digest, different.digest,
        "total_cycles must change the digest"
    );
    assert_eq!(base.rows.len(), 2);
    assert!(!base.rows[0].spliced && base.rows[1].spliced);
    assert_eq!(base.rows[0].refs, 55424);
    assert!((base.rows[0].wall_ms - 2.559).abs() < 1e-12);
    assert!(base.rows.iter().all(|r| r.result_digest.is_some()));
    assert!(parse_sweep("[{\"suite\":\"FFT\"").is_err());
}

fn record(workload: &str, value: f64, failed: u64) -> Record {
    let mut metrics = BTreeMap::new();
    for (name, unit) in [
        ("wall_s", "s"),
        ("setup_s", "s"),
        ("replay_mrefs_per_s", "Mrefs/s"),
        ("peak_rss_mb", "MB"),
    ] {
        metrics.insert(name.to_string(), (value, unit));
    }
    Record {
        workload: workload.into(),
        correct: failed == 0,
        attempted: 20,
        failed,
        metrics,
    }
}

#[test]
fn records_round_trip() {
    let r = record("grid_small", 0.3125, 1);
    assert_eq!(Record::parse(&r.to_json(true)).unwrap(), r);
    let line = r.to_json(false);
    let v = json::parse(&line).unwrap();
    let keys: Vec<&str> = v
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn verdicts_follow_the_gain_and_bound_rules() {
    let parent: Vec<f64> = (0..10).map(|i| 1.0 + 0.002 * i as f64).collect();
    let faster: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
    let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
    let same: Vec<f64> = parent.iter().rev().copied().collect();
    let noisy: Vec<f64> = (0..10)
        .map(|i| if i % 2 == 0 { 0.7 } else { 1.4 })
        .collect();
    let v = |p: &[f64], c: &[f64]| judge(Better::Lower, 0.1, p, c).unwrap().0;
    assert_eq!(v(&parent, &faster), Verdict::Improved);
    assert_eq!(v(&parent, &slower), Verdict::Regressed);
    assert_eq!(v(&parent, &same), Verdict::Unchanged);
    assert_eq!(v(&parent, &noisy), Verdict::Unresolved);
    // Nine wins in ten is needed, and ten pairs.
    assert_eq!(v(&parent[..9], &faster[..9]), Verdict::Unchanged);
    // For a throughput, higher is the better direction.
    assert_eq!(
        judge(Better::Higher, 0.1, &parent, &slower).unwrap().0,
        Verdict::Improved
    );

    let parents: Vec<Record> = (0..10).map(|_| record("grid_small", 1.0, 0)).collect();
    let changes: Vec<Record> = (0..10)
        .map(|i| record("grid_small", 1.0, (i == 3) as u64))
        .collect();
    let rows = compare::compare(&parents, &changes);
    let fail = rows.iter().find(|r| r.metric == "fail_share").unwrap();
    assert_eq!(
        fail.verdict,
        Verdict::Regressed,
        "one more failure regresses"
    );
    assert!(rows
        .iter()
        .filter(|r| r.metric != "fail_share")
        .all(|r| r.verdict == Verdict::Unchanged));
}

#[test]
fn tiny_traced_run_nests_spans_and_measures_every_layer() {
    let started = Instant::now();
    let jobs = full_grid(&SystemConfig::small());
    let journal = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf-tiny-trace.wal");
    let run = trace_layers("tiny", Scale::Tiny, &jobs, &journal).unwrap();
    assert!(
        started.elapsed().as_secs() < 60,
        "a tiny traced run takes seconds"
    );

    let spans = run.tracer.spans();
    assert!(spans
        .iter()
        .any(|s| s.name == "core.system" && s.parent.is_some()));
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            assert!(p < s.id, "parents open first");
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{} escapes {}",
                s.name,
                parent.name
            );
            assert!(s.trace.starts_with("tiny"));
        }
    }
    let times = run.tracer.layer_times();
    for (name, t) in &times {
        assert!(t.self_ns <= t.total_ns, "{name}");
    }
    assert!(
        times["suite"].self_ns < times["suite"].total_ns,
        "suite spans have children"
    );

    // Everything but the four numbers that need the child's rows.
    let from_child = [
        "core.jobs_spliced",
        "core.jobs_replayed",
        "core.sweep_overhead_ms",
        "trace.overhead_pct",
    ];
    for m in LAYERS.iter().filter(|m| !from_child.contains(&m.name)) {
        let v = run
            .metrics
            .get(m.name)
            .unwrap_or_else(|| panic!("{} missing", m.name));
        assert!(v.is_finite() && *v >= 0.0, "{} = {v}", m.name);
    }
    assert!(run.metrics["core.replay_ms"] > 0.0);
    assert!(run.metrics["dma.blocks"] > 0.0 && run.metrics["acc.l1_fills"] > 0.0);
    assert_eq!(run.results.len(), jobs.len());
    assert!(run.results.iter().all(Result::is_ok));
    assert!(run.job_ns.iter().all(|&ns| ns > 0));

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf-tiny-trace.jsonl");
    run.tracer.write_jsonl(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), spans.len());
    for line in text.lines() {
        let v = json::parse(line).unwrap();
        assert!(v.get("name").is_some() && v.get("trace").is_some());
    }
}
