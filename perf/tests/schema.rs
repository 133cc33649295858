//! `BENCHMARK.json` at the repository root must describe exactly what
//! `perf` runs and reports, within the limits its readers accept.

use fusion_perf::json::{self, Value};
use fusion_perf::spec::{END_TO_END, LAYERS, WORKLOADS};

fn benchmark() -> (String, Value) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    (text, doc)
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("'{key}' is a list"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("'{key}' is a string"))
}

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn top_level_shape_and_limits() {
    let (text, doc) = benchmark();
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = list(&doc, "command");
    assert!((1..=32).contains(&command.len()));
    for arg in command {
        let arg = arg.as_str().expect("command arguments are strings");
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }
    let paths = list(&doc, "paths");
    assert!((1..=16).contains(&paths.len()));
    for p in paths {
        let p = p.as_str().expect("paths are strings");
        assert!((1..=200).contains(&p.len()), "{p}");
        assert!(
            p.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)),
            "{p}"
        );
        assert!(!p.starts_with('/') && !p.contains(".."), "{p}");
    }
    // Every file the command names lies under one of the paths.
    for arg in command
        .iter()
        .filter_map(Value::as_str)
        .filter(|a| a.contains('/'))
    {
        assert!(
            paths
                .iter()
                .filter_map(Value::as_str)
                .any(|p| arg.starts_with(&format!("{p}/"))),
            "{arg} is outside the benchmark's paths"
        );
    }
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    // 4 + 22 runs per workload, each measuring `run_seconds` plus up to
    // 12 s of warm-up, set-ups, overrun and cargo's up-to-date checks on a
    // machine at half speed, and two builds, within the 3420 s budget.
    let runs = 4 + 22 * WORKLOADS.len();
    assert!(runs as f64 * (seconds + 12.0) <= 3420.0 - 300.0);
}

#[test]
fn workloads_match_the_harness() {
    let (_, doc) = benchmark();
    let listed = list(&doc, "workloads");
    assert!((2..=8).contains(&listed.len()));
    assert_eq!(listed.len(), WORKLOADS.len());
    for (w, spec) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(text(w, "name"), spec.name);
        assert_eq!(text(w, "why"), spec.why);
        assert!(is_name(spec.name), "{}", spec.name);
        assert!(!spec.why.is_empty() && spec.why.len() <= 200 && !spec.why.contains('\n'));
    }
    // The memoized grid and its full replay simulate the same thing.
    let digest = |name: &str| {
        WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .map(|w| w.expected_digest)
    };
    assert_eq!(digest("grid_paper"), digest("replay_paper"));
}

#[test]
fn metrics_match_the_harness() {
    let (_, doc) = benchmark();
    let e2e = list(&doc, "end_to_end");
    assert!((1..=16).contains(&e2e.len()));
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, spec) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        assert_eq!(text(m, "name"), spec.name);
        assert_eq!(text(m, "unit"), spec.unit);
        assert_eq!(text(m, "better"), spec.better.label());
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert_eq!(bound, spec.bound);
        assert!(bound > 0.0 && bound <= 0.25, "{}", spec.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layers = list(&doc, "per_layer");
    assert!((1..=128).contains(&layers.len()));
    assert_eq!(layers.len(), LAYERS.len());
    for (m, spec) in layers.iter().zip(&LAYERS) {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        assert_eq!(text(m, "name"), spec.name);
        assert_eq!(text(m, "unit"), spec.unit);
        assert_eq!(text(m, "better"), spec.better.label());
    }

    let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    names.extend(LAYERS.iter().map(|m| m.name));
    names.extend(WORKLOADS.iter().map(|w| w.name));
    for (i, n) in names.iter().enumerate() {
        assert!(is_name(n), "bad name {n}");
        assert!(!names[..i].contains(n), "{n} is used twice");
    }
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(LAYERS.iter().map(|m| m.unit))
    {
        assert!(is_unit(unit), "bad unit {unit}");
    }
}

#[test]
fn every_layer_metric_names_what_it_should_move() {
    let is_workload = |w: &str| WORKLOADS.iter().any(|s| s.name == w);
    for m in LAYERS {
        match m.moves {
            Some((e2e, workload)) => {
                assert!(
                    END_TO_END.iter().any(|e| e.name == e2e),
                    "{}: {e2e}",
                    m.name
                );
                assert!(is_workload(workload), "{}: {workload}", m.name);
                assert_ne!(workload, m.least, "{}", m.name);
            }
            // Only counts of what was simulated (and the harness's own
            // overhead) may claim to move nothing.
            None => assert!(
                matches!(m.unit, "count" | "%"),
                "{} predicts nothing",
                m.name
            ),
        }
        assert!(is_workload(m.least), "{}: {}", m.name, m.least);
        assert!(!m.layer.is_empty());
    }
}
