//! The perf harness's determinism contract: two runs at the same seed
//! emit byte-identical `BENCH_*.json` (`BENCH_repro.json` included), and
//! no artifact carries a timed field — the property the CI gate's
//! value-for-value diff (and any cross-machine baseline diff) relies on.

use au_bench::med_dataset;
use au_bench::perf::json::Value;
use au_bench::perf::repro::{self, Data};
use au_bench::perf::{run_shard_comparison, run_workload};

const SCALE: f64 = 0.04; // 48 records/side via sized(1200, scale)

fn med_report(seed: u64) -> String {
    let n = 48;
    let ds = med_dataset(n, seed);
    run_workload("med", &ds, n, 0.9, seed, SCALE)
        .to_value()
        .to_string()
}

#[test]
fn same_seed_emits_byte_identical_json() {
    let a = med_report(71);
    let b = med_report(71);
    assert_eq!(
        a.as_bytes(),
        b.as_bytes(),
        "same-seed runs must emit identical JSON"
    );

    // fig_shard carries deterministic memory-bytes columns: the peak is
    // taken at fixed points of a sequential task schedule, so it must be
    // byte-stable too — that's what lets bench_gate diff it.
    let sa = run_shard_comparison(SCALE, 71).to_value().to_string();
    let sb = run_shard_comparison(SCALE, 71).to_value().to_string();
    assert_eq!(sa.as_bytes(), sb.as_bytes());

    // No `*_seconds`, no `*_per_second`: nothing in an artifact is timed.
    for doc in [&a, &sa] {
        assert!(Value::parse(doc).is_ok() && doc.contains("\"candidates\""));
        assert!(!doc.contains("second"), "timed field in {doc}");
    }
}

#[test]
fn the_paper_claims_are_byte_identical_and_untimed() {
    let a = repro::to_value(SCALE, &repro::run(SCALE)).to_string();
    let b = repro::to_value(SCALE, &repro::run(SCALE)).to_string();
    assert_eq!(a.as_bytes(), b.as_bytes(), "BENCH_repro.json drifted");
    assert!(Value::parse(&a).is_ok() && a.contains("\"holds\""));
    assert!(!a.contains("second"), "timed field in {a}");
}

#[test]
fn different_seed_changes_the_payload() {
    let a = med_report(71);
    let b = med_report(72);
    assert_ne!(a, b, "seed must reach the dataset generator");
    let claim = |seed| repro::fig5(Data::med(48, seed)).to_value().to_string();
    assert_ne!(claim(71), claim(72), "seed must reach a claim's dataset");
}
