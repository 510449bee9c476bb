//! Standalone fig_shard run: sharded vs monolithic self-join at scales
//! where the full perf sweep is too slow to be a CI smoke.
//!
//! ```text
//! AU_SCALE=10 cargo run --release -p au-bench --bin perf_shard [-- <out_dir>]
//! ```
//!
//! Writes only `BENCH_fig_shard.json`; `bench_gate` diffs it against a
//! baseline directory holding just that artifact (exact task grid and
//! memory bytes, and the absolute `memory_ratio` ceiling) without paying
//! for the workload sweep. `AU_SCALE` works as for `perf`.

use au_bench::perf::{run_shard_comparison, write_report, SEED};
use std::path::PathBuf;

fn main() {
    let out_dir: PathBuf = std::env::args().nth(1).unwrap_or_else(|| ".".into()).into();
    let scale = au_bench::scale_from_env(1.0);
    eprintln!("perf_shard: AU_SCALE={scale} seed={SEED}");
    let shard = run_shard_comparison(scale, SEED);
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
        "fig_shard: n={} shards={} cache={} prune_fraction={:.3} memory_ratio={:.3}",
        shard.n_records,
        shard.shards,
        shard.cache_capacity,
        shard.prune_fraction,
        shard.memory_ratio
    );
    let p =
        write_report(&out_dir, &shard.name, &shard.to_value()).expect("write BENCH_fig_shard.json");
    eprintln!("wrote {}", p.display());
}
