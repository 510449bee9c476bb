//! Machine-readable perf run: writes `BENCH_<name>.json` artifacts.
//!
//! ```text
//! AU_SCALE=0.1 cargo run --release -p au-bench --bin perf [-- <out_dir>]
//! ```
//!
//! `AU_SCALE` sizes the datasets (default 1.0; anything but a positive
//! number panics). Every field written is a count or a run parameter, so
//! two runs write byte-identical files; `bench_gate` diffs them against
//! `tools/perf_baseline/`. Time a stage with the repo benchmark's traced
//! runs instead (`benchmark/README.md`).

use au_bench::perf::{run_all, write_report, SEED};
use std::path::PathBuf;

fn main() {
    let out_dir: PathBuf = std::env::args().nth(1).unwrap_or_else(|| ".".into()).into();
    let scale = au_bench::scale_from_env(1.0);
    eprintln!("perf: AU_SCALE={scale} seed={SEED}");
    let (workloads, shard) = run_all(scale);
    for w in &workloads {
        for r in &w.rows {
            println!(
                "{:<24} candidates={:<10} postings={:<10} pairs={:<8} f1={:.3}",
                r.id, r.candidates, r.processed_pairs, r.result_pairs, r.prf.f
            );
        }
    }
    for r in workloads.iter().filter_map(|w| w.search.as_ref()) {
        println!(
            "{:<24} candidates={:<10} pairs={:<8} queries={} window={} postings={} walked={}",
            r.id,
            r.candidates,
            r.result_pairs,
            r.queries,
            r.window_plan_queries,
            r.processed_pairs,
            r.walked_postings
        );
    }
    for r in &shard.rows {
        println!(
            "{:<24} pairs={:<8} tasks={}+{}p mem={:.1}MiB",
            r.id,
            r.result_pairs,
            r.shard_tasks,
            r.shard_tasks_pruned,
            r.memory_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    println!(
        "fig_shard: shards={} cache={} prune_fraction={:.3} memory_ratio={:.3}",
        shard.shards, shard.cache_capacity, shard.prune_fraction, shard.memory_ratio
    );
    let docs = workloads
        .iter()
        .map(|w| (&w.name, w.to_value()))
        .chain([(&shard.name, shard.to_value())]);
    for (name, doc) in docs {
        let p = write_report(&out_dir, name, &doc).expect("write BENCH_*.json");
        eprintln!("wrote {}", p.display());
    }
}
