//! The perf harness's determinism contract: with timings zeroed, two runs
//! at the same seed emit byte-identical `BENCH_*.json` — the property the
//! CI gate's exact-match checks (and any cross-machine baseline diff)
//! rely on.

use au_bench::med_dataset;
use au_bench::perf::{json, run_shard_comparison, run_workload, SCHEMA};

const SCALE: f64 = 0.04; // 48 records/side via sized(1200, scale)

fn med_report(seed: u64) -> au_bench::perf::WorkloadReport {
    let n = 48;
    let ds = med_dataset(n, seed);
    run_workload("med", &ds, n, 0.9, seed, SCALE, false)
}

#[test]
fn same_seed_emits_byte_identical_json() {
    let a = med_report(71).to_json(false);
    let b = med_report(71).to_json(false);
    assert_eq!(
        a.as_bytes(),
        b.as_bytes(),
        "same-seed runs must emit identical JSON"
    );

    // fig_shard carries deterministic memory-bytes columns: the peak is
    // taken at fixed points of a sequential task schedule, so it must be
    // byte-stable too — that's what lets bench_gate diff it.
    let sa = run_shard_comparison(SCALE, 71, false).to_json(false);
    let sb = run_shard_comparison(SCALE, 71, false).to_json(false);
    assert_eq!(sa.as_bytes(), sb.as_bytes());
}

#[test]
fn different_seed_changes_the_payload() {
    let a = med_report(71).to_json(false);
    let b = med_report(72).to_json(false);
    assert_ne!(a, b, "seed must reach the dataset generator");
}

#[test]
fn timed_and_deterministic_runs_share_every_count() {
    // `to_json(true)` vs `to_json(false)` may differ only in timing
    // fields; the deterministic projection of a timed report is identical
    // to a timings-off report.
    let rep = med_report(71);
    let timed = json::Value::parse(&rep.to_json(true)).unwrap();
    let untimed = json::Value::parse(&rep.to_json(false)).unwrap();
    let rows_t = timed.get("workloads").unwrap().as_arr().unwrap();
    let rows_u = untimed.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(rows_t.len(), rows_u.len());
    for (t, u) in rows_t.iter().zip(rows_u) {
        for key in [
            "id",
            "candidates",
            "processed_pairs",
            "result_pairs",
            "precision",
            "recall",
            "f1",
        ] {
            assert_eq!(t.get(key), u.get(key), "field {key}");
        }
        assert_eq!(u.get("total_seconds").unwrap().as_f64(), Some(0.0));
    }
    assert_eq!(timed.get("schema").unwrap().as_str(), Some(SCHEMA));
}
