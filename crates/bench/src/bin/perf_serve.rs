//! Standalone fig_serve run: the concurrent serving layer driven through
//! a deterministic read + mutate + compact scenario.
//!
//! ```text
//! cargo run --release -p au-bench --bin perf_serve [-- <out_dir>]
//! ```
//!
//! Writes only `BENCH_fig_serve.json`; point `bench_gate` at a baseline
//! directory containing just that artifact to gate the serving layer
//! (exact per-phase candidate/result counters, QPS floor when timings
//! are on). The runner itself asserts the hard acceptance invariants —
//! zero stale-read anomalies and byte-identical answers vs a fresh
//! monolithic prepare of the final corpus state — so a violation fails
//! the run before any JSON is written. Environment knobs are the same
//! as `perf`: `AU_SCALE`, `AU_PERF_DETERMINISTIC=1`.

use au_bench::perf::{run_serve_workload, write_serve_report, PerfOptions};
use std::path::PathBuf;

fn main() {
    let out_dir: PathBuf = std::env::args().nth(1).unwrap_or_else(|| ".".into()).into();
    let opts = PerfOptions::from_env();
    eprintln!(
        "perf_serve: AU_SCALE={} seed={} timings={}",
        opts.scale, opts.seed, opts.timings
    );
    let serve = run_serve_workload(opts.scale, opts.seed, opts.timings);
    for r in &serve.rows {
        println!(
            "{:<16} queries={:<6} results={:<7} cand={:<8} p50={:.2}ms p99={:.2}ms qps={:.0}",
            r.id,
            r.queries,
            r.result_pairs,
            r.candidates,
            r.p50_seconds * 1e3,
            r.p99_seconds * 1e3,
            r.records_per_second
        );
    }
    println!(
        "fig_serve: initial={} +{} -{} compactions={} records_prepared={} records_signed={} \
         candidates inherited={} fresh={} stale_anomalies={} pause={:.2}ms",
        serve.n_initial,
        serve.n_inserts,
        serve.n_deletes,
        serve.compactions,
        serve.records_prepared,
        serve.records_signed,
        serve.inherited_candidates,
        serve.fresh_candidates,
        serve.stale_anomalies,
        serve.compact_pause_seconds * 1e3
    );
    println!(
        "durability: wal_frames={} replayed={} retries={} backoff_waits={} \
         degraded_entries={} degraded_writes={} admission_rejected={} recovery={:.2}ms",
        serve.wal_frames,
        serve.wal_replayed_frames,
        serve.wal_retries,
        serve.wal_backoff_waits,
        serve.degraded_entries,
        serve.degraded_writes,
        serve.admission_rejected,
        serve.recovery_seconds * 1e3
    );
    let p = write_serve_report(&out_dir, &serve, opts.timings).expect("write BENCH_fig_serve.json");
    eprintln!("wrote {}", p.display());
}
