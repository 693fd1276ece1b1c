//! The benchmark's own tests: the traced replays reproduce the untraced
//! runners' trials exactly, every metric `BENCHMARK.json` names is
//! emitted with a well-formed name and its unit, and a different seed
//! changes the inputs but not the set of metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use emerge_bench::report::{parse_json, JsonValue};
use perfbench::fig7;
use perfbench::protocol::Budget;
use perfbench::sweep;
use perfbench::trace::Tracer;
use perfbench::workloads::{keyed_pair, share_pair, WORKLOADS};

fn benchmark_json() -> JsonValue {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    parse_json(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> BTreeMap<String, String> {
    let doc = benchmark_json();
    let metrics = doc
        .get(section)
        .and_then(JsonValue::as_array)
        .expect(section);
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark binary for one second and returns the metrics of
/// its result line, `name -> (value, unit)`.
fn run(workload: &str, seed: u64, trace: bool) -> BTreeMap<String, (f64, String)> {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--scratch")
        .arg(&scratch)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json(last).expect("result line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert!(result
        .get("attempted")
        .and_then(JsonValue::as_u64)
        .is_some_and(|n| n >= 1));
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64).expect("value");
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            (name.clone(), (value, unit.to_string()))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn traced_and_untraced_runs_give_identical_fingerprints() {
    let mut tracer = Tracer::new();
    let (untraced, traced, _) = share_pair(7, Budget::Trials(4), &mut tracer).unwrap();
    assert_eq!(untraced.digests, traced.digests);
    assert_eq!(untraced.digests[0].len(), 4);

    let mut tracer = Tracer::new();
    let (untraced, traced, _) = keyed_pair(7, Budget::Trials(6), &mut tracer).unwrap();
    assert_eq!(untraced.digests, traced.digests);
    assert_eq!(untraced.digests.iter().map(Vec::len).sum::<usize>(), 6);

    let mut tracer = Tracer::new();
    let plain = fig7::figure(7, 2, None).unwrap();
    let traced = fig7::figure(7, 2, Some(&mut tracer)).unwrap();
    assert_eq!(plain.digest(), traced.digest());
    assert!(tracer.layers().contains_key("model.share"));
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let expected = declared(section);
        assert!(
            expected.keys().all(|name| well_formed(name)),
            "{expected:?}"
        );
        for workload in WORKLOADS {
            let got = run(workload, 11, trace);
            let got_units: BTreeMap<String, String> = got
                .iter()
                .map(|(k, (_, u))| (k.clone(), u.clone()))
                .collect();
            assert_eq!(got_units, expected, "{workload} trace={trace}");
            if !trace {
                for (name, (value, _)) in &got {
                    assert!(*value > 0.0, "{workload}: {name} = {value}");
                }
            }
        }
    }
}

#[test]
fn a_different_seed_changes_inputs_but_not_the_metric_set() {
    let mut a = Tracer::new();
    let mut b = Tracer::new();
    let (share_a, _, _) = share_pair(1, Budget::Trials(2), &mut a).unwrap();
    let (share_b, _, _) = share_pair(2, Budget::Trials(2), &mut b).unwrap();
    assert_ne!(share_a.digests, share_b.digests);
    let (keyed_a, _, _) = keyed_pair(1, Budget::Trials(2), &mut a).unwrap();
    let (keyed_b, _, _) = keyed_pair(2, Budget::Trials(2), &mut b).unwrap();
    assert_ne!(keyed_a.digests, keyed_b.digests);
    assert_ne!(
        fig7::figure(1, 2, None).unwrap().digest(),
        fig7::figure(2, 2, None).unwrap().digest()
    );
    assert_ne!(sweep::grid(1).unwrap().seed, sweep::grid(2).unwrap().seed);

    for workload in WORKLOADS {
        let names = |seed| run(workload, seed, false).into_keys().collect::<Vec<_>>();
        assert_eq!(names(3), names(4), "{workload}");
    }
}
