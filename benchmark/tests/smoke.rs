//! Runs the four workloads at `--smoke` sizes through the real command line
//! and holds the harness to what `BENCHMARK.json` declares.

use au_benchmark::report::{metric_names, number_after};
use au_benchmark::spec::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::Command;

fn declared(traced: bool) -> Vec<&'static str> {
    let defs = if traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    defs.iter().map(|d| d.name).collect()
}

/// One smoke run; returns the result line.
fn smoke_run(workload: &str, traced: bool, out: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_au-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "71",
            "--seconds",
            "0",
            "--smoke",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .arg("--work-dir")
        .arg(out.join("work"))
        .output()
        .expect("the benchmark binary starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} traced={traced}: {stderr}"
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_passes_its_oracles_and_emits_the_declared_metrics() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for w in &WORKLOADS {
        for traced in [false, true] {
            let line = smoke_run(w.name, traced, &out);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{}: {line}",
                w.name
            );
            assert_eq!(
                number_after(&line, "\"failed\": "),
                Some(0.0),
                "{}: {line}",
                w.name
            );
            assert!(number_after(&line, "\"attempted\": ").is_some_and(|n| n >= 1.0));
            assert_eq!(
                metric_names(&line),
                declared(traced),
                "{} traced={traced}",
                w.name
            );
        }
        assert!(out.join(format!("result_{}.json", w.name)).is_file());
        let trace = std::fs::read_to_string(out.join(format!("trace_{}.json", w.name)))
            .expect("a trace file");
        assert!(trace.contains("\"spans\": ["));
        let coverage = number_after(&trace, "\"self_time_coverage\": ").expect("coverage");
        assert!(
            (coverage - 1.0).abs() <= 0.05,
            "self times cover {coverage} of the traced spans"
        );
    }
    assert!(
        !out.join("work")
            .read_dir()
            .is_ok_and(|mut d| d.next().is_some()),
        "work files left behind"
    );
}

#[test]
fn benchmark_json_is_what_the_tables_declare() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with --emit-benchmark-json"
    );
}

#[test]
fn declared_names_fit_the_contract() {
    let allowed = |name: &str| {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name));
    assert!(names.iter().all(|n| allowed(n)), "{names:?}");
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is declared twice");
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    assert!(END_TO_END
        .iter()
        .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
}
