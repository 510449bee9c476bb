//! Machine-readable perf run: writes `BENCH_<name>.json` artifacts.
//!
//! ```text
//! AU_SCALE=0.1 cargo run --release -p au-bench --bin perf [-- <out_dir>]
//! ```
//!
//! Environment:
//! * `AU_SCALE` — dataset scale (default 1.0);
//! * `AU_PERF_DETERMINISTIC=1` — zero all timing fields (byte-identical
//!   output for a fixed seed; used by the determinism test and for
//!   regenerating count-only baselines).

use au_bench::perf::{run_all, write_reports, PerfOptions};
use std::path::PathBuf;

fn main() {
    let out_dir: PathBuf = std::env::args().nth(1).unwrap_or_else(|| ".".into()).into();
    let opts = PerfOptions::from_env();
    eprintln!(
        "perf: AU_SCALE={} seed={} timings={}",
        opts.scale, opts.seed, opts.timings
    );
    let (workloads, shard) = run_all(&opts);
    for w in &workloads {
        for r in &w.rows {
            println!(
                "{:<24} candidates={:<10} pairs={:<8} f1={:.3} total={:.3}s rec/s={:.0}",
                r.id, r.candidates, r.result_pairs, r.prf.f, r.total_seconds, r.records_per_second
            );
        }
    }
    for r in workloads.iter().filter_map(|w| w.search.as_ref()) {
        println!(
            "{:<24} candidates={:<10} pairs={:<8} queries={} postings={} walked={}",
            r.id, r.candidates, r.result_pairs, r.queries, r.processed_pairs, r.walked_postings
        );
    }
    for r in &shard.rows {
        println!(
            "{:<24} pairs={:<8} tasks={}+{}p mem={:.1}MiB prep={:.3}s join={:.3}s",
            r.id,
            r.result_pairs,
            r.shard_tasks,
            r.shard_tasks_pruned,
            r.memory_bytes as f64 / (1024.0 * 1024.0),
            r.prepare_seconds,
            r.join_seconds
        );
    }
    println!(
        "fig_shard: shards={} cache={} prune_fraction={:.3} memory_ratio={:.3} speedup={:.2}x",
        shard.shards,
        shard.cache_capacity,
        shard.prune_fraction,
        shard.memory_ratio,
        shard.sharded_speedup
    );
    let paths =
        write_reports(&out_dir, &workloads, &shard, opts.timings).expect("write BENCH_*.json");
    for p in paths {
        eprintln!("wrote {}", p.display());
    }
}
