//! Standalone fig_serve run: the concurrent serving layer driven through
//! a deterministic read + mutate + compact scenario.
//!
//! ```text
//! AU_SCALE=0.1 cargo run --release -p au-bench --bin perf_serve [-- <out_dir>]
//! ```
//!
//! Writes only `BENCH_fig_serve.json`: per-phase funnel counters plus the
//! durability, stage-1 / stage-3 work and inherited-order counters, all
//! pure functions of (`AU_SCALE`, seed). `bench_gate` diffs it against
//! `tools/perf_baseline_serve/`. The runner itself asserts the hard
//! acceptance invariants — zero stale-read anomalies, byte-identical
//! answers vs a fresh monolithic prepare of the final corpus state and
//! vs a crash-recovered service — so a violation fails the run before
//! any JSON is written. `AU_SCALE` and `<out_dir>` work as for `perf`;
//! serve latencies are the repo benchmark's `serve_mixed` workload.

use au_bench::perf::{out_dir, run_serve_workload, write_report, SEED};

fn main() {
    let dir = out_dir(std::env::args().nth(1));
    let scale = au_bench::scale_from_env(1.0);
    eprintln!("perf_serve: AU_SCALE={scale} seed={SEED}");
    let serve = run_serve_workload(scale, SEED);
    for r in &serve.rows {
        println!(
            "{:<16} queries={:<6} results={:<7} cand={:<8} postings={}",
            r.id, r.queries, r.result_pairs, r.candidates, r.processed_pairs
        );
    }
    println!(
        "fig_serve: initial={} +{} -{} compactions={} records_prepared={} records_signed={} \
         candidates inherited={} fresh={} stale_anomalies={}",
        serve.n_initial,
        serve.n_inserts,
        serve.n_deletes,
        serve.compactions,
        serve.records_prepared,
        serve.records_signed,
        serve.inherited_candidates,
        serve.fresh_candidates,
        serve.stale_anomalies
    );
    println!(
        "durability: wal_frames={} replayed={} retries={} backoff_waits={} \
         degraded_entries={} degraded_writes={} admission_rejected={}",
        serve.wal_frames,
        serve.wal_replayed_frames,
        serve.wal_retries,
        serve.wal_backoff_waits,
        serve.degraded_entries,
        serve.degraded_writes,
        serve.admission_rejected
    );
    let p = write_report(&dir, &serve.name, &serve.to_value()).expect("write BENCH_fig_serve.json");
    eprintln!("wrote {}", p.display());
}
