//! Drives both binaries over every workload with `--passes 2` and holds
//! the three places that name metrics — `src/metrics.rs`, the binaries'
//! result lines, and `../BENCHMARK.json` — to each other.

use std::path::Path;
use std::process::Command;

use ft_benchmark::cells::WORKLOADS;
use ft_benchmark::harness::Json;
use ft_benchmark::metrics::{END_TO_END, PER_LAYER};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Run `exe` on `workload` and return the parsed last line of its output.
fn result_of(exe: &str, workload: &str, seed: &str) -> Json {
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", seed, "--passes", "2"])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{exe} {workload} failed\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{exe} {workload}: {e} in `{last}`"))
}

fn assert_reports(result: &Json, names: &[(&str, &str)], what: &str) {
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{what}: wrong verdicts"
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
    let metrics = result.get("metrics").expect("metrics").as_obj();
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{what}: {name}"
            );
            (name.as_str(), unit)
        })
        .collect();
    assert_eq!(got, names, "{what}: metric names and units");
    for (name, _) in got {
        let well_formed = name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(well_formed && !name.is_empty(), "{what}: bad name `{name}`");
    }
}

/// Every span's parent is an earlier span of the same file.
fn assert_parents_resolve(workload: &str) {
    let path = manifest_dir().join(format!("out/trace-{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).expect("the traced run wrote its span file");
    let mut roots = 0;
    for (expect_id, line) in text.lines().enumerate() {
        let span = Json::parse(line).expect("a span is one JSON object");
        assert_eq!(
            span.get("id").and_then(Json::as_f64),
            Some(expect_id as f64)
        );
        assert_eq!(span.get("workload").and_then(Json::as_str), Some(workload));
        let (start, end) = (span.get("start_ns"), span.get("end_ns"));
        assert!(start.and_then(Json::as_f64) <= end.and_then(Json::as_f64));
        match span.get("parent") {
            Some(Json::Null) => roots += 1,
            Some(Json::Num(p)) => assert!(*p < expect_id as f64, "parent after child"),
            other => panic!("span {expect_id}: parent {other:?}"),
        }
    }
    assert_eq!(roots, 1, "one `workload` root span");
}

fn drive(workload: &str) {
    // Not the default seed: a second seed must pass the same checks.
    let e2e = result_of(env!("CARGO_BIN_EXE_bench_e2e"), workload, "7");
    assert_reports(&e2e, &END_TO_END, workload);
    let traced = result_of(env!("CARGO_BIN_EXE_bench_probe"), workload, "7");
    assert_reports(&traced, &PER_LAYER, workload);
    assert_parents_resolve(workload);
}

#[test]
fn exhaustive_reports_every_metric() {
    drive("exhaustive");
}

#[test]
fn reduced_reports_every_metric() {
    drive("reduced");
}

#[test]
fn synth_reports_every_metric() {
    drive("synth");
}

#[test]
fn resume_reports_every_metric() {
    drive("resume");
}

#[test]
fn tables_reports_every_metric() {
    drive("tables");
}

#[test]
fn benchmark_json_lists_the_same_names() {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        let entries = spec.get(key).expect(key).as_arr();
        entries
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |names: &[(&str, &str)]| -> Vec<(String, String)> {
        names
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
