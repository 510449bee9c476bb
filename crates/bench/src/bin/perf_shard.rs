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
//! for the workload sweep. `AU_SCALE` and `<out_dir>` work as for `perf`.

use au_bench::perf::{out_dir, run_shard_comparison, write_report, SEED};

fn main() {
    let dir = out_dir(std::env::args().nth(1));
    let scale = au_bench::scale_from_env(1.0);
    eprintln!("perf_shard: AU_SCALE={scale} seed={SEED}");
    let shard = run_shard_comparison(scale, SEED);
    shard.print();
    let p = write_report(&dir, &shard.name, &shard.to_value()).expect("write BENCH_fig_shard.json");
    eprintln!("wrote {}", p.display());
}
