//! CI perf gate: diff fresh `BENCH_*.json` artifacts against a
//! checked-in baseline directory, value for value.
//!
//! ```text
//! cargo run --release -p au-bench --bin bench_gate -- <baseline_dir> <current_dir>
//! ```
//!
//! Every field the perf bins write is a pure function of (`AU_SCALE`,
//! seed), so the gate needs no key list and no tolerance:
//!
//! * **exact** — both directories hold the same `BENCH_*.json` files and
//!   each pair of documents is equal value for value, both ways: a missing
//!   or extra file, row (matched by `id`) or key fails, and so does any
//!   changed number or string. A baseline of another `schema` fails
//!   whole, naming it: regenerate it.
//! * **memory ceiling** — the current `BENCH_fig_shard.json`'s
//!   `memory_ratio` (sharded peak / monolithic prepare bytes) must lie in
//!   (0, `MAX_MEMORY_RATIO` = 0.25], whatever the baseline says.
//!
//! Nothing timed is gated; the repo benchmark is the timing record. Exit
//! code 1 on any failure (all printed), 2 on a usage or directory error.

use au_bench::perf::json::Value;
use au_bench::perf::{MAX_MEMORY_RATIO, SCHEMA};
use std::path::Path;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `BENCH_*.json` file names in `dir`, sorted.
fn bench_files(dir: &Path) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    Ok(names)
}

/// An object's members as `/key`, or an array's elements as `[id]`
/// (`[position]` when they carry no `id`); `None` for a scalar.
fn children(v: &Value) -> Option<Vec<(String, &Value)>> {
    match v {
        Value::Obj(members) => Some(members.iter().map(|(k, v)| (format!("/{k}"), v)).collect()),
        Value::Arr(items) => Some(
            items
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let id = v.get("id").and_then(Value::as_str);
                    (format!("[{}]", id.map_or(i.to_string(), str::to_string)), v)
                })
                .collect(),
        ),
        _ => None,
    }
}

#[derive(Default)]
struct Gate {
    checks: usize,
    failures: Vec<String>,
}

impl Gate {
    fn fail(&mut self, msg: String) {
        println!("FAIL {msg}");
        self.failures.push(msg);
    }

    /// Every `BENCH_*.json` of `base_dir` against its namesake in
    /// `cur_dir`, and no file in `cur_dir` the baseline lacks. `Err` when
    /// a directory cannot be read or the baseline holds no artifact.
    fn gate_dirs(&mut self, base_dir: &Path, cur_dir: &Path) -> Result<(), String> {
        let names = bench_files(base_dir)?;
        if names.is_empty() {
            return Err(format!("no BENCH_*.json in {}", base_dir.display()));
        }
        let current = bench_files(cur_dir)?;
        for extra in current.iter().filter(|n| !names.contains(n)) {
            self.fail(format!("{extra}: not in the baseline"));
        }
        for name in &names {
            println!("gate {name}");
            match (load(&base_dir.join(name)), load(&cur_dir.join(name))) {
                (Ok(base), Ok(cur)) => self.gate_doc(name, &base, &cur),
                (Err(e), _) | (_, Err(e)) => self.fail(e),
            }
        }
        Ok(())
    }

    /// One artifact: the baseline's schema, the two-way diff, and on
    /// `BENCH_fig_shard.json` the memory ceiling.
    fn gate_doc(&mut self, name: &str, base: &Value, cur: &Value) {
        let schema = base.get("schema").and_then(Value::as_str);
        if schema != Some(SCHEMA) {
            self.fail(format!(
                "{name}: baseline schema {schema:?} is not \"{SCHEMA}\"; regenerate the baseline"
            ));
            return;
        }
        self.diff(name, base, cur);
        if name == "BENCH_fig_shard.json" {
            self.checks += 1;
            match cur.get("memory_ratio").and_then(Value::as_f64) {
                Some(r) if r > 0.0 && r <= MAX_MEMORY_RATIO => {
                    println!("  ok {name}: memory_ratio {r:.3} ≤ {MAX_MEMORY_RATIO}");
                }
                r => self.fail(format!(
                    "{name}: memory_ratio {r:?} outside (0, {MAX_MEMORY_RATIO}]"
                )),
            }
        }
    }

    /// Two-way structural diff; `path` names the node in messages.
    fn diff(&mut self, path: &str, base: &Value, cur: &Value) {
        let (Some(b), Some(c)) = (children(base), children(cur)) else {
            self.checks += 1;
            if base != cur {
                self.fail(format!("{path}: changed (baseline {base}, current {cur})"));
            }
            return;
        };
        for (label, bv) in &b {
            match c.iter().find(|(l, _)| l == label) {
                Some((_, cv)) => self.diff(&format!("{path}{label}"), bv, cv),
                None => self.fail(format!("{path}{label}: missing from the current run")),
            }
        }
        for (label, _) in c.iter().filter(|(l, _)| !b.iter().any(|(bl, _)| bl == l)) {
            self.fail(format!("{path}{label}: not in the baseline"));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_dir, current_dir] = &args[..] else {
        eprintln!("usage: bench_gate <baseline_dir> <current_dir>");
        std::process::exit(2);
    };
    let mut gate = Gate::default();
    if let Err(e) = gate.gate_dirs(Path::new(baseline_dir), Path::new(current_dir)) {
        eprintln!("bench_gate: {e}");
        std::process::exit(2);
    }
    let (checks, failed) = (gate.checks, gate.failures.len());
    println!("bench_gate: {checks} checks, {failed} failures");
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `BENCH_fig_shard.json` in miniature; `SCHEMA` stands for the
    /// current schema tag.
    const SHARD: &str = r#"{"schema": "SCHEMA", "name": "fig_shard", "n_records": 240,
        "workloads": [{"id": "fig_shard/sharded", "candidates": 6752}],
        "prune_fraction": 0.303030, "memory_ratio": 0.190831}"#;

    fn gate(base: &str, cur: &str) -> Gate {
        let doc = |text: &str| Value::parse(&text.replace("SCHEMA", SCHEMA)).unwrap();
        let mut gate = Gate::default();
        gate.gate_doc("BENCH_fig_shard.json", &doc(base), &doc(cur));
        gate
    }

    #[test]
    fn identical_documents_pass() {
        let g = gate(SHARD, SHARD);
        assert_eq!(g.failures, Vec::<String>::new());
        assert_eq!(g.checks, 8, "seven leaves and the memory ceiling");
    }

    #[test]
    fn a_current_fig_shard_without_memory_ratio_fails() {
        let cur = SHARD.replace(r#", "memory_ratio": 0.190831"#, "");
        let f = gate(SHARD, &cur).failures;
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].contains("/memory_ratio: missing from the current run"));
        assert!(f[1].contains("memory_ratio None outside"));
    }

    #[test]
    fn a_row_only_in_the_current_run_fails() {
        let cur = SHARD.replace("6752}]", r#"6752}, {"id": "fig_shard/extra"}]"#);
        let f = gate(SHARD, &cur).failures;
        assert_eq!(
            f,
            ["BENCH_fig_shard.json/workloads[fig_shard/extra]: not in the baseline"]
        );
    }

    #[test]
    fn any_changed_number_or_string_fails() {
        for (from, to) in [
            ("240", "241"),
            ("0.303030", "0.310000"),
            ("6752", "6751"),
            (r#""fig_shard""#, r#""fig_shard2""#),
        ] {
            let f = gate(SHARD, &SHARD.replace(from, to)).failures;
            assert_eq!(f.len(), 1, "{from} → {to}: {f:?}");
            assert!(f[0].contains(&format!("changed (baseline {from}, current {to})")));
        }
    }

    #[test]
    fn a_non_numeric_or_absent_value_is_compared_too() {
        let base = SHARD.replace("6752", r#""n/a""#);
        assert!(gate(&base, &base).failures.is_empty());
        assert_eq!(gate(&base, &base.replace("n/a", "?")).failures.len(), 1);
        let absent = base.replace(r#", "candidates": "n/a""#, "");
        let f = gate(&base, &absent).failures;
        assert_eq!(
            f,
            ["BENCH_fig_shard.json/workloads[fig_shard/sharded]/candidates: missing from the current run"]
        );
    }

    #[test]
    fn an_old_schema_baseline_fails_naming_its_schema() {
        let f = gate(&SHARD.replace("SCHEMA", "au-bench/perf/v1"), SHARD).failures;
        assert_eq!(f.len(), 1);
        assert!(
            f[0].contains(r#"baseline schema Some("au-bench/perf/v1")"#),
            "{}",
            f[0]
        );
    }

    #[test]
    fn memory_ratio_above_the_ceiling_fails() {
        let over = SHARD.replace("0.190831", "0.26");
        let f = gate(&over, &over).failures;
        assert_eq!(
            f,
            ["BENCH_fig_shard.json: memory_ratio Some(0.26) outside (0, 0.25]"]
        );
    }

    #[test]
    fn a_missing_or_extra_file_fails() {
        let root = std::env::temp_dir().join(format!("bench_gate_test_{}", std::process::id()));
        let (base, cur) = (root.join("base"), root.join("cur"));
        let doc = SHARD.replace("SCHEMA", SCHEMA);
        for (dir, files) in [(&base, ["fig_shard", "med"]), (&cur, ["fig_shard", "wiki"])] {
            std::fs::create_dir_all(dir).unwrap();
            for f in files {
                std::fs::write(dir.join(format!("BENCH_{f}.json")), &doc).unwrap();
            }
        }
        let mut g = Gate::default();
        g.gate_dirs(&base, &cur).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(g.failures.len(), 2, "{:?}", g.failures);
        assert_eq!(g.failures[0], "BENCH_wiki.json: not in the baseline");
        assert!(
            g.failures[1].contains("BENCH_med.json"),
            "{}",
            g.failures[1]
        );
    }
}
