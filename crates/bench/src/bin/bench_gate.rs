//! CI perf regression gate: diff fresh `BENCH_*.json` artifacts against
//! the checked-in baseline.
//!
//! ```text
//! cargo run --release -p au-bench --bin bench_gate -- <baseline_dir> <current_dir>
//! ```
//!
//! Checks, per `BENCH_*.json` present in the baseline directory:
//!
//! * **determinism** — candidate counts, processed pairs, in-probe
//!   compatibility rejections, result pairs, P/R/F and the per-tier
//!   verification rejection counters must match the baseline exactly
//!   (they are pure functions of the seed, so any drift is a behaviour
//!   change, not noise) — on the join rows and on `BENCH_med.json`'s
//!   `search/…` row, the same sums over a fixed query set;
//! * **throughput** — `records_per_second` and `verify_cands_per_second`
//!   may not regress by more than `BENCH_GATE_TOL` (default 0.25: a drop
//!   past 25% fails) against the baseline; rows whose baseline or current
//!   throughput is 0 (timings disabled) are skipped;
//! * **memory** — the join files' top-level `prepare_memory_bytes` and the
//!   `fig_shard` rows' `memory_bytes` are length-based and exact-matched;
//!   in `BENCH_fig_shard.json`, `memory_ratio` (sharded
//!   peak bytes / monolithic whole-corpus prepare bytes) may not exceed
//!   `BENCH_GATE_MAX_MEMORY_RATIO` (default 0.25 — the memory-lean
//!   acceptance bound), and the sharded row must report pruned tasks
//!   whenever the baseline did;
//! * **robustness** — in `BENCH_fig_serve.json`, the top-level
//!   durability counters (`wal_frames`, `wal_replayed_frames`,
//!   `wal_retries`, `wal_backoff_waits`, `degraded_entries`,
//!   `degraded_writes`, `admission_rejected`, plus `compactions`,
//!   `stale_anomalies`, `records_prepared`, `records_signed` and the
//!   `inherited_candidates` / `fresh_candidates` pair) are exact-matched —
//!   the fault schedules are seeded, so any drift is a durability
//!   behaviour change (or, for `records_prepared` / `records_signed`,
//!   stage-1 / stage-3 work that came back; for the pair, an inherited
//!   pebble order that filters differently).
//!
//! Exit code 1 on any failure; every failure is printed.

use au_bench::perf::json::Value;
use std::path::Path;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn f64_field(row: &Value, key: &str) -> f64 {
    row.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn rows_by_id<'a>(doc: &'a Value, list_key: &str) -> Vec<(&'a str, &'a Value)> {
    doc.get(list_key)
        .and_then(Value::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| r.get("id").and_then(Value::as_str).map(|id| (id, r)))
                .collect()
        })
        .unwrap_or_default()
}

struct Gate {
    tol: f64,
    max_memory_ratio: f64,
    failures: Vec<String>,
    checks: usize,
}

impl Gate {
    fn fail(&mut self, msg: String) {
        println!("FAIL {msg}");
        self.failures.push(msg);
    }

    fn check_exact(&mut self, id: &str, key: &str, base: f64, cur: f64) {
        self.checks += 1;
        if (base - cur).abs() > 1e-9 || base.is_nan() != cur.is_nan() {
            self.fail(format!(
                "{id}: {key} changed (baseline {base}, current {cur})"
            ));
        }
    }

    fn check_throughput(&mut self, id: &str, unit: &str, base: f64, cur: f64) {
        if base.is_nan() || cur.is_nan() || base <= 0.0 || cur <= 0.0 {
            return; // timings disabled (or absent) on either side
        }
        self.checks += 1;
        let floor = base * (1.0 - self.tol);
        if cur < floor {
            self.fail(format!(
                "{id}: throughput regressed {:.0} → {:.0} {unit} (floor {:.0}, tol {:.0}%)",
                base,
                cur,
                floor,
                self.tol * 100.0
            ));
        } else {
            println!("  ok {id}: {:.0} → {:.0} {unit}", base, cur);
        }
    }

    fn gate_file(&mut self, name: &str, base: &Value, cur: &Value) {
        // Top-level deterministic counters (mostly the fig_serve
        // robustness trail): compaction count, WAL frame / replay / retry
        // / backoff counters, the degradation counters and the admission
        // shed count are exact functions of (scale, seed, fault seed) —
        // any drift is a durability behaviour change, not noise.
        for key in [
            "stale_anomalies",
            "compactions",
            "wal_frames",
            "wal_replayed_frames",
            "wal_retries",
            "wal_backoff_waits",
            "degraded_entries",
            "degraded_writes",
            "admission_rejected",
            // Stage-1 work of the served workload: the initial corpus
            // plus one record per insert, whatever the compactions did.
            "records_prepared",
            // Stage-3 work: the initial corpus, what each inheriting
            // compaction appended, every live row at a re-rank.
            "records_signed",
            // The final battery's `Vτ` under the served (inherited) order
            // and under a fresh ranking of the same records.
            "inherited_candidates",
            "fresh_candidates",
            // BENCH_{med,wiki}: the two fresh `Prepared`s' deep bytes —
            // length-based, so a pure function of (scale, seed) too.
            "prepare_memory_bytes",
        ] {
            if base.get(key).is_some() {
                self.check_exact(name, key, f64_field(base, key), f64_field(cur, key));
            }
        }
        let cur_rows = rows_by_id(cur, "workloads");
        for (id, brow) in rows_by_id(base, "workloads") {
            let Some((_, crow)) = cur_rows.iter().find(|(cid, _)| *cid == id) else {
                self.fail(format!("{name}: row '{id}' missing from current run"));
                continue;
            };
            for key in [
                "candidates",
                "processed_pairs",
                "result_pairs",
                "precision",
                "recall",
                "f1",
                // Per-tier verification counters: pure per-candidate
                // functions — deterministic across runs, thread counts
                // and hosts, so any drift is a cascade behaviour change.
                "tier0_rejects",
                "mass_rejects",
                "enum_rejects",
                "rowmax_rejects",
                "greedy_rejects",
                "tier2_rejects",
                // In-probe compatibility rejections: an exact function
                // of (scale, seed, θ) — drift means the bound changed.
                "compat_rejected",
                // fig_shard rows: the task grid and the deep memory
                // accounting are pure functions of (scale, seed) and the
                // fixed shard parameters — drift means the planner, the
                // pruning bound or the accounting itself changed.
                "shard_tasks",
                "shard_tasks_pruned",
                "memory_bytes",
                // The search row: the size of its fixed query set (its
                // funnel sums ride on the keys above).
                "queries",
            ] {
                if brow.get(key).is_some() {
                    self.check_exact(id, key, f64_field(brow, key), f64_field(crow, key));
                }
            }
            self.check_throughput(
                id,
                "records/s",
                f64_field(brow, "records_per_second"),
                f64_field(crow, "records_per_second"),
            );
            // Verification owns the join's wall-clock; gate its throughput
            // directly so a tiered-engine regression cannot hide behind
            // faster earlier stages. Absent in pre-tiering baselines (the
            // NaN/0 guard skips it then).
            self.check_throughput(
                id,
                "candidates/s",
                f64_field(brow, "verify_cands_per_second"),
                f64_field(crow, "verify_cands_per_second"),
            );
        }
        // Memory-lean ceiling on the current fig_shard artifact: the
        // sharded peak may never exceed the configured fraction of a
        // monolithic whole-corpus prepare. Checked on the current run
        // (not diffed): this is an absolute acceptance bound, not a
        // regression tolerance.
        if let Some(ratio) = cur.get("memory_ratio").and_then(Value::as_f64) {
            self.checks += 1;
            if ratio <= 0.0 || ratio.is_nan() {
                self.fail(format!("{name}: memory_ratio {ratio} not positive"));
            } else if ratio > self.max_memory_ratio {
                self.fail(format!(
                    "{name}: memory_ratio {ratio:.3} above ceiling {:.3}",
                    self.max_memory_ratio
                ));
            } else {
                println!(
                    "  ok {name}: memory_ratio {ratio:.3} ≤ {:.3}",
                    self.max_memory_ratio
                );
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_dir, current_dir] = &args[..] else {
        eprintln!("usage: bench_gate <baseline_dir> <current_dir>");
        std::process::exit(2);
    };
    let mut gate = Gate {
        tol: env_f64("BENCH_GATE_TOL", 0.25),
        max_memory_ratio: env_f64("BENCH_GATE_MAX_MEMORY_RATIO", 0.25),
        failures: Vec::new(),
        checks: 0,
    };
    let entries = std::fs::read_dir(baseline_dir).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read baseline dir {baseline_dir}: {e}");
        std::process::exit(2);
    });
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        eprintln!("bench_gate: no BENCH_*.json in {baseline_dir}");
        std::process::exit(2);
    }
    for name in &names {
        println!("gate {name}");
        let base = load(&Path::new(baseline_dir).join(name));
        let cur = load(&Path::new(current_dir).join(name));
        match (base, cur) {
            (Ok(base), Ok(cur)) => gate.gate_file(name, &base, &cur),
            (Err(e), _) | (_, Err(e)) => gate.fail(e),
        }
    }
    println!(
        "bench_gate: {} checks, {} failures",
        gate.checks,
        gate.failures.len()
    );
    if !gate.failures.is_empty() {
        std::process::exit(1);
    }
}
